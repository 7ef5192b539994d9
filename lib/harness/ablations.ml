(* Ablation benchmarks for the design choices discussed in paper §5.1:

   - [isempty]: a dedicated isEmpty lock versus deriving isEmpty from size.
     Workload: "if (!map.isEmpty()) map.put(key, value)" on distinct keys —
     the paper's example of transactions that should commute but abort under
     the size-lock encoding.
   - [blind_put]: put variants that do not return the previous value versus
     standard put, on the paper's "LastModified" workload where every
     transaction writes the same key.
   - [backoff]: contention-manager backoff on/off for the conflict-heavy
     naive TestMap, illustrating the livelock discussion. *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc

module SimTxMap = Workloads.SimTxMap

type outcome = {
  label : string;
  cycles : int;
  violations : int;
}

let run_isempty_variant ~policy ~n_cpus ~ops_per_cpu ~think =
  let m = Machine.create ~n_cpus () in
  let tm = SimTxMap.create ~isempty_policy:policy () in
  ignore (SimTxMap.put tm 0 0);
  let body cpu () =
    for i = 1 to ops_per_cpu do
      Tcc.atomic (fun () ->
          Ops.work (think / 2);
          if not (SimTxMap.is_empty tm) then
            ignore (SimTxMap.put tm ((cpu * 100_000) + i) i);
          Ops.work (think / 2))
    done
  in
  let s = Machine.run m (Array.init n_cpus (fun c -> body c)) in
  (s.Machine.cycles, s.Machine.total_violations)

let isempty ?(n_cpus = 16) ?(ops_per_cpu = 32) ?(think = 4000) () =
  let c1, v1 =
    run_isempty_variant ~policy:SimTxMap.Dedicated ~n_cpus ~ops_per_cpu ~think
  in
  let c2, v2 =
    run_isempty_variant ~policy:SimTxMap.Via_size ~n_cpus ~ops_per_cpu ~think
  in
  [
    { label = "dedicated isEmpty lock"; cycles = c1; violations = v1 };
    { label = "isEmpty via size lock"; cycles = c2; violations = v2 };
  ]

let run_blind_variant ~blind ~n_cpus ~ops_per_cpu ~think =
  let m = Machine.create ~n_cpus () in
  let tm = SimTxMap.create () in
  ignore (SimTxMap.put tm 42 0);
  let body _cpu () =
    for i = 1 to ops_per_cpu do
      Tcc.atomic (fun () ->
          Ops.work (think / 2);
          (* Every transaction stamps the same "LastModified" key. *)
          if blind then SimTxMap.put_blind tm 42 i
          else ignore (SimTxMap.put tm 42 i);
          Ops.work (think / 2))
    done
  in
  let s = Machine.run m (Array.init n_cpus (fun c -> body c)) in
  (s.Machine.cycles, s.Machine.total_violations)

let blind_put ?(n_cpus = 16) ?(ops_per_cpu = 32) ?(think = 4000) () =
  let c1, v1 = run_blind_variant ~blind:true ~n_cpus ~ops_per_cpu ~think in
  let c2, v2 = run_blind_variant ~blind:false ~n_cpus ~ops_per_cpu ~think in
  [
    { label = "blind put (no old value)"; cycles = c1; violations = v1 };
    { label = "standard put"; cycles = c2; violations = v2 };
  ]

let backoff ?(n_cpus = 16) () =
  let base = { Workloads.default_params with total_ops = 512 } in
  let with_backoff =
    Workloads.run_testmap ~p:base ~variant:`Atomos_naive ~n_cpus ()
  in
  let without =
    let cfg = { base.Workloads.cfg with Sim.Config.backoff_base = 1 } in
    Workloads.run_testmap
      ~p:{ base with Workloads.cfg = cfg }
      ~variant:`Atomos_naive ~n_cpus ()
  in
  [
    {
      label = "exponential backoff";
      cycles = with_backoff.Machine.cycles;
      violations = with_backoff.Machine.total_violations;
    };
    {
      label = "no backoff";
      cycles = without.Machine.cycles;
      violations = without.Machine.total_violations;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Redo vs undo logging (§5.1) on the host STM: same contended workload
   (read one key, write another, small key space) against the redo-based
   TransactionalMap and the undo-logging variant, in interleaved
   redo/undo pairs so host drift moves both sides alike.  Each run is a
   closed-loop row; its [aborts] are the retried attempts.  After the
   runs each map is audited: no semantic lock left registered, and every
   seeded key still bound. *)

module RedoMap = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module UndoMap = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed)

type host_map_ops = {
  find : int -> string option;
  put : int -> string -> string option;
  size : unit -> int;
  outstanding_locks : unit -> int;
}

(* One audited quantity of a run: [fresh] must equal [expected]. *)
type audit = { check : string; fresh : int; expected : int }

(* The value written is the value read with each letter advanced, so
   values keep the seed's four bytes however long the run: the rows
   compare the maps, not a string copy that grows with every commit. *)
let next_letter c = if c = 'z' then 'a' else Char.chr (Char.code c + 1)

let run_host_contention ~label ~ops ~n_domains ~txns ~key_space =
  for k = 0 to key_space - 1 do
    ignore (ops.put k "seed")
  done;
  Closed_loop.run ~label ~domains:n_domains ~txns_per_domain:txns (fun d ->
      let rng = Random.State.make [| 0xAB1; d |] in
      fun _ ->
        Tcc_stm.Stm.atomic (fun () ->
            let k1 = Random.State.int rng key_space in
            let k2 = Random.State.int rng key_space in
            let v = Option.value ~default:"" (ops.find k1) in
            ignore (ops.put k2 (String.map next_letter v))))

let redo_vs_undo_pairs = 5

(* Interleaved redo/undo runs: the redo rows and the undo rows, each in
   run order, and the audits. *)
let redo_vs_undo ?(n_domains = 2) ?(txns = 20_000) ?(key_space = 8) () =
  let redo = RedoMap.create () and undo = UndoMap.create () in
  let redo_ops =
    {
      find = RedoMap.find redo;
      put = RedoMap.put redo;
      size = (fun () -> RedoMap.size redo);
      outstanding_locks = (fun () -> RedoMap.outstanding_locks redo);
    }
  and undo_ops =
    {
      find = UndoMap.find undo;
      put = UndoMap.put undo;
      size = (fun () -> UndoMap.size undo);
      outstanding_locks = (fun () -> UndoMap.outstanding_locks undo);
    }
  in
  let run label ops =
    run_host_contention ~label ~ops ~n_domains ~txns ~key_space
  in
  let runs =
    List.init redo_vs_undo_pairs (fun _ ->
        let r = run "redo logging (optimistic)" redo_ops in
        (r, run "undo logging (pessimistic)" undo_ops))
  in
  let audits =
    List.concat_map
      (fun (name, ops) ->
        [
          {
            check = "ablation." ^ name ^ ".outstanding_locks";
            fresh = ops.outstanding_locks ();
            expected = 0;
          };
          {
            check = "ablation." ^ name ^ ".size";
            fresh = ops.size ();
            expected = key_space;
          };
        ])
      [ ("redo", redo_ops); ("undo", undo_ops) ]
  in
  ((List.map fst runs, List.map snd runs), audits)

let render ppf title outcomes =
  Fmt.pf ppf "@.Ablation: %s@." title;
  List.iter
    (fun o ->
      Fmt.pf ppf "  %-28s cycles: %10d   violations: %6d@." o.label o.cycles
        o.violations)
    outcomes

(* Every run's row, then per side the median commits/s with its
   interquartile range, and whether the gap between the two medians
   exceeds both sides' IQRs. *)
let render_redo_vs_undo ppf (redo_rows, undo_rows) =
  Fmt.pf ppf
    "@.Ablation: redo vs undo logging, host STM (interleaved pairs; aborts = \
     retried attempts)@.";
  Fmt.pf ppf "  %s@." Closed_loop.header;
  List.iter (Fmt.pf ppf "  %a@." Closed_loop.pp_row) (redo_rows @ undo_rows);
  let summary rows =
    let q1, med, q3 =
      Closed_loop.quartiles
        (List.map (fun r -> r.Closed_loop.commits_per_s) rows)
    in
    let label = (List.hd rows).Closed_loop.label in
    Fmt.pf ppf "  %-26s median %.0f commits/s, IQR %.0f (%.1f%% of median)@."
      label med (q3 -. q1)
      (100. *. (q3 -. q1) /. med);
    (med, q3 -. q1)
  in
  let m1, iqr1 = summary redo_rows in
  let m2, iqr2 = summary undo_rows in
  let gap = Float.abs (m1 -. m2) in
  Fmt.pf ppf "  median gap %.0f commits/s; exceeds both IQRs: %b@." gap
    (gap > Float.max iqr1 iqr2)
