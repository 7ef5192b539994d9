(* Deeper simulator tests: partial rollback of closed children, commit-token
   serialisation, bus contention, cache eviction, and the sorted-map/queue
   wrappers over the simulated TCC machine. *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc
module Acc = Sim_ds.Acc

(* ---------------- machine internals ---------------- *)

let test_bus_contention_costs () =
  (* With a bus-dominated configuration (cheap memory, expensive transfer),
     N CPUs all missing must queue: completion time grows with N even
     though each CPU's own work is constant. *)
  let cfg =
    { Sim.Config.default with Sim.Config.mem_latency = 5; bus_per_line = 20 }
  in
  let run n =
    let m = Machine.create ~cfg ~n_cpus:n () in
    let body cpu () =
      let base = Ops.alloc (64 * 64) in
      for i = 0 to 63 do
        ignore (Ops.load (base + (i * 64) + cpu))
      done
    in
    (Machine.run m (Array.init n (fun c -> body c))).Machine.cycles
  in
  let one = run 1 and sixteen = run 16 in
  Alcotest.(check bool) "bus queuing dominates" true (sixteen > 2 * one)

let test_cache_eviction_dirty_writeback () =
  (* Writing more lines than the cache holds forces evictions/writebacks;
     re-reading the evicted lines misses again. *)
  let cfg = { Sim.Config.default with Sim.Config.l1_sets = 4; l1_ways = 2 } in
  let m = Machine.create ~cfg ~n_cpus:1 () in
  let lines = 64 in
  let body () =
    let base = Ops.alloc (lines * cfg.Sim.Config.line_words) in
    for i = 0 to lines - 1 do
      Ops.store (base + (i * cfg.Sim.Config.line_words)) i
    done;
    for i = 0 to lines - 1 do
      ignore (Ops.load (base + (i * cfg.Sim.Config.line_words)))
    done
  in
  let stats = Machine.run m [| body |] in
  (* 8-line cache, 64 dirty lines: both passes must miss mostly. *)
  Alcotest.(check bool) "eviction traffic" true
    (stats.Machine.cycles > lines * Sim.Config.default.Sim.Config.l2_hit)

let test_token_serialises_commits () =
  (* Transactions that only commit (no conflicts) still serialise their
     commit phases on the token; with a huge commit cost this becomes
     visible as token wait. *)
  let cfg = { Sim.Config.default with Sim.Config.commit_base = 400 } in
  let m = Machine.create ~cfg ~n_cpus:8 () in
  let body cpu () =
    let mine = Ops.alloc 1 in
    ignore cpu;
    for i = 1 to 10 do
      Tcc.atomic (fun () -> Ops.store mine i)
    done
  in
  let stats = Machine.run m (Array.init 8 (fun c -> body c)) in
  Alcotest.(check int) "no violations" 0 stats.Machine.total_violations;
  Alcotest.(check bool) "commit arbitration queues" true
    (stats.Machine.total_bus_wait + stats.Machine.total_token_wait > 0)

let test_closed_nested_partial_rollback_in_sim () =
  (* CPU 1 reads a word only inside a closed child; CPU 0 overwrites it.
     The child must retry without restarting the parent (the parent's
     side-effect counter advances once). *)
  let m = Machine.create ~n_cpus:2 () in
  let hot = Machine.alloc_words m 1 in
  let out = Machine.alloc_words m 1 in
  let parent_entries = ref 0 in
  let child_entries = ref 0 in
  let reader () =
    Tcc.atomic (fun () ->
        incr parent_entries;
        Tcc.closed_nested (fun () ->
            incr child_entries;
            let v = Ops.load hot in
            if !child_entries = 1 then
              (* Idle inside the child so the writer can violate us. *)
              for _ = 1 to 60 do
                Ops.work 10
              done;
            Ops.store out v))
  in
  let writer () =
    Ops.work 150;
    Tcc.atomic (fun () -> Ops.store hot 42)
  in
  ignore (Machine.run m [| writer; reader |]);
  Alcotest.(check int) "parent ran once" 1 !parent_entries;
  Alcotest.(check int) "child retried" 2 !child_entries;
  Alcotest.(check int) "child saw committed value" 42 (Machine.mem_read m out)

let test_tcc_retry_now () =
  let m = Machine.create ~n_cpus:1 () in
  let tries = ref 0 in
  let body () =
    Tcc.atomic (fun () ->
        incr tries;
        if !tries = 1 then Tcc.retry_now () |> ignore)
  in
  ignore (Machine.run m [| body |]);
  Alcotest.(check int) "transparent retry" 2 !tries

(* ---------------- sorted map and queue wrappers over TCC -------------- *)

module SimTxSorted = Harness.Workloads.SimTxSorted

module SimTxQueue = Txcoll.Transactional_queue.Make (Sim.Tcc.Tm_ops)

let test_sorted_wrapper_on_tcc () =
  let m = Machine.create ~n_cpus:4 () in
  let sm = SimTxSorted.create () in
  for i = 0 to 63 do
    ignore (SimTxSorted.put sm (i * 10) i)
  done;
  let range_sum = ref 0 in
  let body cpu () =
    for i = 0 to 24 do
      Tcc.atomic (fun () ->
          Ops.work 100;
          ignore (SimTxSorted.put sm (((cpu + 1) * 10_000) + i) i));
      if cpu = 0 then
        Tcc.atomic (fun () ->
            range_sum :=
              SimTxSorted.fold_range (fun _ v acc -> acc + v) sm 0 ~lo:(Some 0)
                ~hi:(Some 100))
    done
  in
  let stats = Machine.run m (Array.init 4 (fun c -> body c)) in
  Alcotest.(check int) "all inserts" (64 + 100) (SimTxSorted.size sm);
  Alcotest.(check int) "no memory-level violations" 0
    stats.Machine.total_violations;
  Alcotest.(check int) "range observed consistently" (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9)
    !range_sum

let test_sorted_wrapper_endpoint_conflict_on_tcc () =
  let m = Machine.create ~n_cpus:2 () in
  let sm = SimTxSorted.create () in
  ignore (SimTxSorted.put sm 100 1);
  let attempts = ref 0 in
  let reader () =
    Tcc.atomic (fun () ->
        incr attempts;
        ignore (SimTxSorted.first_key sm);
        if !attempts = 1 then
          for _ = 1 to 60 do
            Ops.work 10
          done)
  in
  let writer () =
    Ops.work 120;
    Tcc.atomic (fun () -> ignore (SimTxSorted.put sm 1 0))
  in
  ignore (Machine.run m [| writer; reader |]);
  Alcotest.(check int) "new minimum aborts firstKey reader" 2 !attempts

let test_queue_wrapper_on_tcc () =
  let m = Machine.create ~n_cpus:3 () in
  let q = SimTxQueue.create () in
  for i = 1 to 60 do
    SimTxQueue.put q i
  done;
  let taken = Atomic.make 0 in
  let body _cpu () =
    let continue = ref true in
    while !continue do
      match Tcc.atomic (fun () -> SimTxQueue.take q) with
      | Some _ -> Atomic.incr taken
      | None -> continue := false
    done
  in
  let stats = Machine.run m (Array.init 3 (fun c -> body c)) in
  Alcotest.(check int) "all items taken exactly once" 60 (Atomic.get taken);
  Alcotest.(check int) "takes never violate" 0 stats.Machine.total_violations

let suites =
  [
    ( "sim.deeper",
      [
        Alcotest.test_case "bus contention" `Quick test_bus_contention_costs;
        Alcotest.test_case "cache eviction" `Quick
          test_cache_eviction_dirty_writeback;
        Alcotest.test_case "token serialises commits" `Quick
          test_token_serialises_commits;
        Alcotest.test_case "closed-nested partial rollback" `Quick
          test_closed_nested_partial_rollback_in_sim;
        Alcotest.test_case "retry_now" `Quick test_tcc_retry_now;
      ] );
    ( "sim.txcoll-more",
      [
        Alcotest.test_case "sorted wrapper" `Quick test_sorted_wrapper_on_tcc;
        Alcotest.test_case "sorted endpoint conflict" `Quick
          test_sorted_wrapper_endpoint_conflict_on_tcc;
        Alcotest.test_case "queue wrapper" `Quick test_queue_wrapper_on_tcc;
      ] );
  ]
