(* The paper's micro-benchmarks (§6.2) on the simulated CMP.

   Each benchmark fixes a total operation count, splits it across CPUs and
   measures completion cycles.  Three variants reproduce the three curves of
   Figures 1-3:

   - [`Java_lock]: lock-based synchronisation under MESI.  The lock is held
     only around the data-structure operation (TestMap/TestSortedMap) or
     around the whole compound operation (TestCompound), with the
     surrounding computation outside/inside respectively, matching the
     paper's description.
   - [`Atomos_naive]: one long transaction per iteration (computation plus
     operation) against the plain structure in simulated memory — the
     "Atomos HashMap/TreeMap" curves, limited by memory-level conflicts on
     the size word and rebalancing rotations.
   - [`Atomos_txcoll]: the same long transactions against the transactional
     collection classes — the "Atomos TransactionalMap/TransactionalSortedMap"
     curves. *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc
module Acc = Sim_ds.Acc
module H = Sim_ds.Sim_hashmap
module A = Sim_ds.Sim_avlmap
module SL = Sim_ds.Spinlock

module SimTxMap =
  Txcoll.Transactional_map.Make (Sim.Tcc.Tm_ops) (Txcoll.Host.Int_hashed)

module SimTxSorted = Txcoll.Transactional_sorted_map.Make (Sim.Tcc.Tm_ops) (Int)

type variant = [ `Java_lock | `Atomos_naive | `Atomos_txcoll ]

let variant_name = function
  | `Java_lock -> "Java"
  | `Atomos_naive -> "Atomos naive"
  | `Atomos_txcoll -> "Atomos transactional"

type params = {
  total_ops : int;
  think : int; (* computation cycles surrounding each operation *)
  key_space : int;
  cfg : Sim.Config.t;
}

let default_params =
  { total_ops = 1024; think = 6000; key_space = 512; cfg = Sim.Config.default }

let per_cpu total n_cpus cpu =
  (* Distribute work as evenly as possible. *)
  (total / n_cpus) + if cpu < total mod n_cpus then 1 else 0

(* Operation mix of TestMap: 80% lookups, 10% insertions, 10% removals. *)
let pick_op rng =
  let r = Random.State.int rng 100 in
  if r < 80 then `Get else if r < 90 then `Put else `Remove

let pick_key rng p = Random.State.int rng p.key_space

(* ------------------------------------------------------------------ *)
(* TestMap (Figure 1)                                                  *)

let run_testmap ?(p = default_params) ~variant ~n_cpus () =
  let m = Machine.create ~cfg:p.cfg ~n_cpus () in
  let a = Acc.host m in
  match variant with
  | (`Java_lock | `Atomos_naive) as v ->
      let h = H.create a ~buckets:(p.key_space / 2) in
      for i = 0 to (p.key_space / 2) - 1 do
        H.put a h (i * 2) i
      done;
      let lock = SL.create a () in
      let body cpu () =
        let rng = Random.State.make [| 0xC0FFEE; cpu |] in
        let s = Acc.sim in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k = pick_key rng p in
          let op = pick_op rng in
          match v with
          | `Java_lock ->
              (* Computation outside the short critical region. *)
              Ops.work p.think;
              SL.with_lock lock (fun () ->
                  match op with
                  | `Get -> ignore (H.find s h k)
                  | `Put -> H.put s h k k
                  | `Remove -> H.remove s h k)
          | `Atomos_naive ->
              (* The operation is surrounded by computation (§6.2), so its
                 read set stays vulnerable for the rest of the transaction. *)
              Tcc.atomic (fun () ->
                  Ops.work (p.think / 2);
                  (match op with
                  | `Get -> ignore (H.find s h k)
                  | `Put -> H.put s h k k
                  | `Remove -> H.remove s h k);
                  Ops.work (p.think - (p.think / 2)))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))
  | `Atomos_txcoll ->
      let tm = SimTxMap.create () in
      for i = 0 to (p.key_space / 2) - 1 do
        ignore (SimTxMap.put tm (i * 2) i)
      done;
      let body cpu () =
        let rng = Random.State.make [| 0xC0FFEE; cpu |] in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k = pick_key rng p in
          let op = pick_op rng in
          Tcc.atomic (fun () ->
              Ops.work (p.think / 2);
              (match op with
              | `Get -> ignore (SimTxMap.find tm k)
              | `Put -> ignore (SimTxMap.put tm k k)
              | `Remove -> ignore (SimTxMap.remove tm k));
              Ops.work (p.think - (p.think / 2)))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))

(* ------------------------------------------------------------------ *)
(* TestSortedMap (Figure 2): lookups become subMap range scans taking
   the median of a small key range.                                    *)

let range_width = 8

let run_testsortedmap ?(p = default_params) ~variant ~n_cpus () =
  let m = Machine.create ~cfg:p.cfg ~n_cpus () in
  let a = Acc.host m in
  match variant with
  | (`Java_lock | `Atomos_naive) as v ->
      let t = A.create a () in
      for i = 0 to (p.key_space / 2) - 1 do
        A.put a t (i * 2) i
      done;
      let lock = SL.create a () in
      let median s k =
        let seen = ref [] in
        A.iter_range s t ~lo:k ~hi:(k + range_width) (fun k' _ ->
            seen := k' :: !seen);
        match !seen with
        | [] -> None
        | l -> Some (List.nth l (List.length l / 2))
      in
      let body cpu () =
        let rng = Random.State.make [| 0xBEEF; cpu |] in
        let s = Acc.sim in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k = pick_key rng p in
          let op = pick_op rng in
          match v with
          | `Java_lock ->
              Ops.work p.think;
              SL.with_lock lock (fun () ->
                  match op with
                  | `Get -> ignore (median s k)
                  | `Put -> A.put s t k k
                  | `Remove -> A.remove s t k)
          | `Atomos_naive ->
              Tcc.atomic (fun () ->
                  Ops.work (p.think / 2);
                  (match op with
                  | `Get -> ignore (median s k)
                  | `Put -> A.put s t k k
                  | `Remove -> A.remove s t k);
                  Ops.work (p.think - (p.think / 2)))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))
  | `Atomos_txcoll ->
      let tm = SimTxSorted.create () in
      for i = 0 to (p.key_space / 2) - 1 do
        ignore (SimTxSorted.put tm (i * 2) i)
      done;
      let median k =
        let seen =
          List.rev
            (SimTxSorted.fold_range
               (fun k' _ acc -> k' :: acc)
               tm [] ~lo:(Some k)
               ~hi:(Some (k + range_width)))
        in
        match seen with [] -> None | l -> Some (List.nth l (List.length l / 2))
      in
      let body cpu () =
        let rng = Random.State.make [| 0xBEEF; cpu |] in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k = pick_key rng p in
          let op = pick_op rng in
          Tcc.atomic (fun () ->
              Ops.work (p.think / 2);
              (match op with
              | `Get -> ignore (median k)
              | `Put -> ignore (SimTxSorted.put tm k k)
              | `Remove -> ignore (SimTxSorted.remove tm k));
              Ops.work (p.think - (p.think / 2)))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))

(* ------------------------------------------------------------------ *)
(* TestCompound (Figure 3): two operations separated by computation must
   act as one atomic compound.  Java needs a coarse lock held across the
   whole compound (including the computation between the operations);
   Atomos runs the loop body as a single transaction.                  *)

let run_testcompound ?(p = default_params) ~variant ~n_cpus () =
  let m = Machine.create ~cfg:p.cfg ~n_cpus () in
  let a = Acc.host m in
  let mid_think = p.think / 2 in
  match variant with
  | (`Java_lock | `Atomos_naive) as v ->
      let h = H.create a ~buckets:(p.key_space / 2) in
      for i = 0 to (p.key_space / 2) - 1 do
        H.put a h (i * 2) i
      done;
      let lock = SL.create a () in
      let body cpu () =
        let rng = Random.State.make [| 0xFACE; cpu |] in
        let s = Acc.sim in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k1 = pick_key rng p and k2 = pick_key rng p in
          Ops.work (p.think / 2);
          match v with
          | `Java_lock ->
              (* Coarse lock protecting the compound operation, held across
                 the computation between the two operations. *)
              SL.with_lock lock (fun () ->
                  let x = H.find s h k1 in
                  Ops.work mid_think;
                  H.put s h k2 (Option.value ~default:0 x + 1))
          | `Atomos_naive ->
              Tcc.atomic (fun () ->
                  let x = H.find s h k1 in
                  Ops.work mid_think;
                  H.put s h k2 (Option.value ~default:0 x + 1))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))
  | `Atomos_txcoll ->
      let tm = SimTxMap.create () in
      for i = 0 to (p.key_space / 2) - 1 do
        ignore (SimTxMap.put tm (i * 2) i)
      done;
      let body cpu () =
        let rng = Random.State.make [| 0xFACE; cpu |] in
        for _ = 1 to per_cpu p.total_ops n_cpus cpu do
          let k1 = pick_key rng p and k2 = pick_key rng p in
          Ops.work (p.think / 2);
          Tcc.atomic (fun () ->
              let x = SimTxMap.find tm k1 in
              Ops.work mid_think;
              ignore (SimTxMap.put tm k2 (Option.value ~default:0 x + 1)))
        done
      in
      Machine.run m (Array.init n_cpus (fun c -> body c))
