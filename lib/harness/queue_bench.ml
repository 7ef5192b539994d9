(* Simulated work-queue benchmark (paper §3.3 and the Delaunay motivation):
   workers repeatedly take work, process it for a while inside the same
   transaction, and put new work back.

   Variants:
   - [`Naive]: a plain linked queue in simulated memory, accessed inside
     the transaction — every take/put writes the head/tail/length words, so
     all workers conflict at the memory level;
   - [`Txcoll]: the reduced-isolation TransactionalQueue (immediate
     compensated takes, deferred puts) — takes never conflict.

   This regenerates the queue half of the paper's §3.3 argument: the
   Transactional result should scale while the naive one serialises. *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc
module Acc = Sim_ds.Acc
module NQ = Sim_ds.Sim_queue

module SimTxQueue = Txcoll.Transactional_queue.Make (Sim.Tcc.Tm_ops)

type outcome = {
  label : string;
  cpus : int;
  cycles : int;
  violations : int;
  processed : int;
}

let think = 2500

let run_naive ~n_cpus ~items =
  let m = Machine.create ~n_cpus () in
  let a = Acc.host m in
  let q = NQ.create a () in
  for i = 1 to items do
    NQ.enqueue a q i
  done;
  let processed = Atomic.make 0 in
  let body _cpu () =
    let s = Acc.sim in
    let continue = ref true in
    while !continue do
      let got =
        Tcc.atomic (fun () ->
            match NQ.dequeue s q with
            | None -> false
            | Some v ->
                Ops.work think;
                (* Half the items spawn no further work; the benchmark
                   drains. *)
                if v mod 2 = 0 then NQ.enqueue s q (v + 100_001);
                true)
      in
      if got then Atomic.incr processed else continue := false
    done
  in
  let stats = Machine.run m (Array.init n_cpus (fun c -> body c)) in
  (stats, Atomic.get processed)

let run_txcoll ~n_cpus ~items =
  let m = Machine.create ~n_cpus () in
  let q = SimTxQueue.create () in
  for i = 1 to items do
    SimTxQueue.put q i
  done;
  let processed = Atomic.make 0 in
  let body _cpu () =
    let continue = ref true in
    while !continue do
      let got =
        Tcc.atomic (fun () ->
            match SimTxQueue.take q with
            | None -> false
            | Some v ->
                Ops.work think;
                if v mod 2 = 0 then SimTxQueue.put q (v + 100_001);
                true)
      in
      if got then Atomic.incr processed else continue := false
    done
  in
  let stats = Machine.run m (Array.init n_cpus (fun c -> body c)) in
  (stats, Atomic.get processed)

let sweep ?(cpus = [ 1; 4; 16 ]) ?(items = 256) () =
  List.concat_map
    (fun n ->
      let ns, np = run_naive ~n_cpus:n ~items in
      let ts, tp = run_txcoll ~n_cpus:n ~items in
      [
        {
          label = "naive queue in txns";
          cpus = n;
          cycles = ns.Machine.cycles;
          violations = ns.Machine.total_violations;
          processed = np;
        };
        {
          label = "TransactionalQueue";
          cpus = n;
          cycles = ts.Machine.cycles;
          violations = ts.Machine.total_violations;
          processed = tp;
        };
      ])
    cpus

let render ppf outcomes =
  Fmt.pf ppf "@.Work-queue benchmark (Delaunay-style, simulated TCC)@.";
  Fmt.pf ppf "  %-24s %5s %12s %10s %10s@." "variant" "cpus" "cycles"
    "violations" "processed";
  List.iter
    (fun o ->
      Fmt.pf ppf "  %-24s %5d %12d %10d %10d@." o.label o.cpus o.cycles
        o.violations o.processed)
    outcomes
