(* Tests for the CMP simulator: timing model, MESI, spinlocks, TCC
   transactions, nesting, handlers, and the TM_OPS instance. *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc
module Acc = Sim_ds.Acc

let run ?cfg ~n_cpus bodies =
  let m = Machine.create ?cfg ~n_cpus () in
  let stats = Machine.run m (Array.of_list bodies) in
  (m, stats)

(* ---------------- machine basics ---------------- *)

let test_load_store_roundtrip () =
  let seen = ref 0 in
  let _, stats =
    run ~n_cpus:1
      [
        (fun () ->
          let a = Ops.alloc 4 in
          Ops.store a 42;
          Ops.store (a + 1) 7;
          seen := Ops.load a + Ops.load (a + 1));
      ]
  in
  Alcotest.(check int) "values" 49 !seen;
  Alcotest.(check bool) "time advanced" true (stats.Machine.cycles > 0)

let test_work_timing () =
  let _, stats = run ~n_cpus:1 [ (fun () -> Ops.work 1000) ] in
  Alcotest.(check int) "work cycles" 1000 stats.Machine.cycles

let test_determinism () =
  let body () =
    let a = Ops.alloc 8 in
    for i = 0 to 63 do
      Ops.store (a + (i mod 8)) i;
      ignore (Ops.load (a + (i mod 8)))
    done
  in
  let _, s1 = run ~n_cpus:2 [ body; body ] in
  let _, s2 = run ~n_cpus:2 [ body; body ] in
  Alcotest.(check int) "same cycles" s1.Machine.cycles s2.Machine.cycles

let test_cache_locality () =
  (* Repeated access to one line must be much cheaper than striding. *)
  let tight () =
    let a = Ops.alloc 1 in
    for _ = 1 to 200 do
      ignore (Ops.load a)
    done
  in
  let strided () =
    let a = Ops.alloc (200 * 64) in
    for i = 0 to 199 do
      ignore (Ops.load (a + (i * 64)))
    done
  in
  let _, hot = run ~n_cpus:1 [ tight ] in
  let _, cold = run ~n_cpus:1 [ strided ] in
  Alcotest.(check bool) "misses cost more" true
    (cold.Machine.cycles > 5 * hot.Machine.cycles)

let test_mesi_pingpong_costs () =
  (* Two CPUs writing the same line must be slower than writing private
     lines, because of invalidations and bus traffic. *)
  let shared_word = ref 0 in
  let m = Machine.create ~n_cpus:2 () in
  shared_word := Machine.alloc_words m 1;
  let pingpong () =
    for i = 1 to 200 do
      Ops.store !shared_word i
    done
  in
  let shared_stats = Machine.run m [| pingpong; pingpong |] in
  let m2 = Machine.create ~n_cpus:2 () in
  let a1 = Machine.alloc_words m2 1 and a2 = Machine.alloc_words m2 1 in
  let private_ a () =
    for i = 1 to 200 do
      Ops.store a i
    done
  in
  let private_stats = Machine.run m2 [| private_ a1; private_ a2 |] in
  Alcotest.(check bool) "ping-pong slower" true
    (shared_stats.Machine.cycles > private_stats.Machine.cycles)

(* ---------------- spinlock (Java baseline) ---------------- *)

let test_spinlock_mutual_exclusion () =
  let m = Machine.create ~n_cpus:4 () in
  let a = Acc.host m in
  let lock = Sim_ds.Spinlock.create a () in
  let counter = Machine.alloc_words m 1 in
  let body () =
    for _ = 1 to 100 do
      Sim_ds.Spinlock.with_lock lock (fun () ->
          Ops.store counter (Ops.load counter + 1))
    done
  in
  ignore (Machine.run m (Array.make 4 body));
  Alcotest.(check int) "all increments" 400 (Machine.mem_read m counter)

(* ---------------- TCC transactions ---------------- *)

let test_tcc_atomic_counter () =
  let m = Machine.create ~n_cpus:4 () in
  let counter = Machine.alloc_words m 1 in
  let body () =
    for _ = 1 to 100 do
      Tcc.atomic (fun () ->
          Ops.work 20;
          Ops.store counter (Ops.load counter + 1))
    done
  in
  let stats = Machine.run m (Array.make 4 body) in
  Alcotest.(check int) "atomic increments" 400 (Machine.mem_read m counter);
  Alcotest.(check bool) "hot counter causes violations" true
    (stats.Machine.total_violations > 0)

let test_tcc_disjoint_no_violations () =
  let m = Machine.create ~n_cpus:4 () in
  let arr = Machine.alloc_words m (4 * 64) in
  let body cpu () =
    let mine = arr + (cpu * 64) in
    for i = 1 to 100 do
      Tcc.atomic (fun () -> Ops.store mine i)
    done
  in
  let stats = Machine.run m (Array.init 4 (fun c -> body c)) in
  Alcotest.(check int) "no violations on disjoint lines" 0
    stats.Machine.total_violations;
  Alcotest.(check int) "all committed" 400 stats.Machine.total_commits

let test_tcc_rollback_semantics () =
  (* A violated transaction must not leave partial writes: two CPUs each
     atomically transfer between two shared cells; the sum is invariant. *)
  let m = Machine.create ~n_cpus:2 () in
  let a = Machine.alloc_words m 1 and b = Machine.alloc_words m 1 in
  Machine.mem_write m a 1000;
  Machine.mem_write m b 1000;
  let body () =
    for i = 1 to 150 do
      Tcc.atomic (fun () ->
          let x = Ops.load a and y = Ops.load b in
          let amt = (i mod 5) + 1 in
          Ops.store a (x - amt);
          Ops.store b (y + amt))
    done
  in
  ignore (Machine.run m [| body; body |]);
  Alcotest.(check int) "sum invariant" 2000
    (Machine.mem_read m a + Machine.mem_read m b)

let test_tcc_open_nested_survives_abort () =
  let m = Machine.create ~n_cpus:1 () in
  let shared = Machine.alloc_words m 1 in
  let body () =
    try
      Tcc.atomic (fun () ->
          Tcc.open_nested (fun () -> Ops.store shared 42);
          Tcc.self_abort ())
    with Tcc.Aborted -> ()
  in
  ignore (Machine.run m [| body |]);
  Alcotest.(check int) "open write survived parent abort" 42
    (Machine.mem_read m shared)

let test_tcc_handlers () =
  let m = Machine.create ~n_cpus:1 () in
  let commits = ref 0 and aborts = ref 0 in
  let body () =
    Tcc.atomic (fun () -> Tcc.on_commit (fun () -> incr commits));
    try
      Tcc.atomic (fun () ->
          Tcc.on_commit (fun () -> incr commits);
          Tcc.on_abort (fun () -> incr aborts);
          Tcc.self_abort ())
    with Tcc.Aborted -> ()
  in
  ignore (Machine.run m [| body |]);
  Alcotest.(check int) "commit handler ran once" 1 !commits;
  Alcotest.(check int) "abort handler ran once" 1 !aborts

let test_tcc_open_handler_migrates () =
  let m = Machine.create ~n_cpus:1 () in
  let commits = ref 0 in
  let body () =
    Tcc.atomic (fun () ->
        Tcc.open_nested (fun () -> Tcc.on_commit (fun () -> incr commits));
        Alcotest.(check int) "not yet" 0 !commits)
  in
  ignore (Machine.run m [| body |]);
  Alcotest.(check int) "ran at parent commit" 1 !commits

let test_tcc_remote_abort () =
  (* CPU 1 parks in a transaction; CPU 0 remote-aborts it through the TM_OPS
     interface; the victim retries. *)
  let m = Machine.create ~n_cpus:2 () in
  let attempts = ref 0 in
  let victim_handle = ref None in
  let victim () =
    Tcc.atomic (fun () ->
        incr attempts;
        if !attempts = 1 then begin
          victim_handle := Some (Tcc.current ());
          (* Idle long enough for cpu 0 to deliver the abort. *)
          for _ = 1 to 50 do
            Ops.work 10
          done
        end)
  in
  let aborter () =
    let rec wait n =
      if n > 10_000 then failwith "victim never registered";
      match !victim_handle with
      | None ->
          Ops.work 5;
          wait (n + 1)
      | Some h -> Alcotest.(check bool) "abort delivered" true (Tcc.remote_abort h)
    in
    wait 0
  in
  ignore (Machine.run m [| aborter; victim |]);
  Alcotest.(check int) "victim retried" 2 !attempts

(* Semantic lock tables key membership by [txn_id], so it must agree with
   [same_txn] on every handle a run can produce — also with more than 64
   CPUs. *)
let test_tcc_txn_id_injective () =
  let n_cpus = 65 in
  let m = Machine.create ~n_cpus () in
  let handles = ref [] in
  let record () = handles := Tcc.current () :: !handles in
  let body () =
    record ();
    for _ = 1 to 2 do
      Tcc.atomic record
    done
  in
  ignore (Machine.run m (Array.make n_cpus body));
  let hs = Array.of_list !handles in
  Alcotest.(check int) "handles" (3 * n_cpus) (Array.length hs);
  let module T = Tcc.Tm_ops in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if T.same_txn a b <> (T.txn_id a = T.txn_id b) then
            Alcotest.failf "cpu %d epoch %d and cpu %d epoch %d: id %d vs %d"
              a.Tcc.cpu a.Tcc.epoch b.Tcc.cpu b.Tcc.epoch (T.txn_id a)
              (T.txn_id b))
        hs)
    hs

(* ---------------- critical sections ---------------- *)

let test_critical_atomic_and_costed () =
  let m = Machine.create ~n_cpus:2 () in
  let hits = ref 0 in
  let region = Tcc.Tm_ops.new_region () in
  let body () =
    for _ = 1 to 100 do
      Tcc.Tm_ops.critical region (fun () -> incr hits)
    done
  in
  let stats = Machine.run m [| body; body |] in
  Alcotest.(check int) "all critical sections ran" 200 !hits;
  Alcotest.(check bool) "criticals cost cycles" true
    (stats.Machine.cycles >= 100 * Sim.Config.default.Sim.Config.critical_base)

let suites =
  [
    ( "sim.machine",
      [
        Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
        Alcotest.test_case "work timing" `Quick test_work_timing;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "cache locality" `Quick test_cache_locality;
        Alcotest.test_case "mesi ping-pong" `Quick test_mesi_pingpong_costs;
      ] );
    ( "sim.spinlock",
      [ Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion ]
    );
    ( "sim.tcc",
      [
        Alcotest.test_case "atomic counter" `Quick test_tcc_atomic_counter;
        Alcotest.test_case "disjoint no violations" `Quick
          test_tcc_disjoint_no_violations;
        Alcotest.test_case "rollback leaves no partial writes" `Quick
          test_tcc_rollback_semantics;
        Alcotest.test_case "open nested survives abort" `Quick
          test_tcc_open_nested_survives_abort;
        Alcotest.test_case "txn_id injective above 64 cpus" `Quick
          test_tcc_txn_id_injective;
        Alcotest.test_case "handlers" `Quick test_tcc_handlers;
        Alcotest.test_case "open handler migrates" `Quick
          test_tcc_open_handler_migrates;
        Alcotest.test_case "remote abort" `Quick test_tcc_remote_abort;
        Alcotest.test_case "critical sections" `Quick
          test_critical_atomic_and_costed;
      ] );
  ]
