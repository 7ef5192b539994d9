(* Unit and property tests for the host software TM (lib/stm). *)

module Tvar = Tcc_stm.Tvar
module Stm = Tcc_stm.Stm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Single-threaded semantics                                           *)

let test_read_write () =
  let v = Tvar.make 1 in
  let r = Stm.atomic (fun () -> Tvar.set v 2; Tvar.get v) in
  check "read own write" 2 r;
  check "committed" 2 (Tvar.get v)

let test_rollback_on_exception () =
  let v = Tvar.make 1 in
  (try Stm.atomic (fun () -> Tvar.set v 99; failwith "boom")
   with Failure _ -> ());
  check "exception rolls back" 1 (Tvar.get v)

let test_self_abort () =
  let v = Tvar.make 1 in
  (try Stm.atomic (fun () -> Tvar.set v 99; Stm.self_abort ())
   with Stm.Aborted -> ());
  check "self abort rolls back" 1 (Tvar.get v)

let test_nontx_access () =
  let v = Tvar.make 10 in
  Tvar.set v 20;
  check "non-transactional set/get" 20 (Tvar.get v)

let test_modify () =
  let v = Tvar.make 3 in
  Stm.atomic (fun () -> Tvar.modify v (fun x -> x * 7));
  check "modify" 21 (Tvar.get v)

let test_nested_commit () =
  let v = Tvar.make 0 in
  Stm.atomic (fun () ->
      Tvar.set v 1;
      Stm.closed_nested (fun () -> Tvar.set v (Tvar.get v + 10));
      Tvar.set v (Tvar.get v + 100));
  check "nested merge" 111 (Tvar.get v)

let test_nested_exception_aborts_all () =
  let v = Tvar.make 0 in
  (try
     Stm.atomic (fun () ->
         Tvar.set v 1;
         Stm.closed_nested (fun () -> Tvar.set v 2; failwith "inner"))
   with Failure _ -> ());
  check "inner exception aborts whole txn" 0 (Tvar.get v)

let test_open_nested_commits_early () =
  let shared = Tvar.make 0 in
  let local = Tvar.make 0 in
  (try
     Stm.atomic (fun () ->
         Tvar.set local 5;
         Stm.open_nested (fun () -> Tvar.set shared 42);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  check "open-nested write survives parent abort" 42 (Tvar.get shared);
  check "parent write rolled back" 0 (Tvar.get local)

let test_open_nested_reads_no_dependency () =
  (* A value read only inside an open-nested transaction must not create a
     parent read dependency: mutate it concurrently-in-spirit by a
     non-transactional write between the open read and the parent commit. *)
  let probe = Tvar.make 0 in
  let out = Tvar.make 0 in
  let seen = ref (-1) in
  Stm.atomic (fun () ->
      seen := Stm.open_nested (fun () -> Tvar.get probe);
      Tvar.set probe 1 |> ignore;
      Tvar.set out 7);
  check "parent committed" 7 (Tvar.get out);
  check "open read observed initial value" 0 !seen

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)

let test_commit_handler_runs_on_commit () =
  let hit = ref 0 in
  Stm.atomic (fun () -> Stm.on_commit (fun () -> incr hit));
  check "commit handler ran once" 1 !hit

let test_commit_handler_discarded_on_abort () =
  let hit = ref 0 in
  (try Stm.atomic (fun () -> Stm.on_commit (fun () -> incr hit); Stm.self_abort ())
   with Stm.Aborted -> ());
  check "commit handler discarded" 0 !hit

let test_abort_handler_runs_on_abort () =
  let hit = ref 0 in
  (try Stm.atomic (fun () -> Stm.on_abort (fun () -> incr hit); Stm.self_abort ())
   with Stm.Aborted -> ());
  check "abort handler ran once" 1 !hit

let test_abort_handler_discarded_on_commit () =
  let hit = ref 0 in
  Stm.atomic (fun () -> Stm.on_abort (fun () -> incr hit));
  check "abort handler discarded on commit" 0 !hit

let test_handlers_in_aborted_child_discarded () =
  let commit_hits = ref 0 in
  (* A handler registered in a closed child that never commits (the child
     body raises) must be discarded even though the parent commits. *)
  Stm.atomic (fun () ->
      (try
         Stm.closed_nested (fun () ->
             Stm.on_commit (fun () -> incr commit_hits);
             failwith "child dies")
       with Failure _ -> ()));
  check "handler from dead child discarded" 0 !commit_hits

let test_handlers_in_committed_child_survive () =
  let commit_hits = ref 0 in
  Stm.atomic (fun () ->
      Stm.closed_nested (fun () -> Stm.on_commit (fun () -> incr commit_hits)));
  check "handler from committed child runs" 1 !commit_hits

let test_open_nested_handler_migrates () =
  let commit_hits = ref 0 in
  let abort_hits = ref 0 in
  Stm.atomic (fun () ->
      Stm.open_nested (fun () ->
          Stm.on_commit (fun () -> incr commit_hits);
          Stm.on_abort (fun () -> incr abort_hits)));
  check "migrated commit handler ran at parent commit" 1 !commit_hits;
  check "migrated abort handler discarded" 0 !abort_hits;
  (try
     Stm.atomic (fun () ->
         Stm.open_nested (fun () -> Stm.on_abort (fun () -> incr abort_hits));
         Stm.self_abort ())
   with Stm.Aborted -> ());
  check "migrated abort handler ran at parent abort" 1 !abort_hits

let test_abort_handlers_reverse_order () =
  let order = ref [] in
  (try
     Stm.atomic (fun () ->
         Stm.on_abort (fun () -> order := 1 :: !order);
         Stm.on_abort (fun () -> order := 2 :: !order);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check (list int)) "newest compensation first" [ 1; 2 ] !order

let test_commit_handlers_registration_order () =
  let order = ref [] in
  Stm.atomic (fun () ->
      Stm.on_commit (fun () -> order := 1 :: !order);
      Stm.on_commit (fun () -> order := 2 :: !order));
  Alcotest.(check (list int)) "registration order" [ 2; 1 ] !order

let test_on_commit_outside_txn_runs_now () =
  let hit = ref 0 in
  Stm.on_commit (fun () -> incr hit);
  check "auto-commit handler" 1 !hit

(* ------------------------------------------------------------------ *)
(* Remote abort                                                        *)

let test_remote_abort_of_committed_fails () =
  let h = Stm.current () in
  check_bool "auto-commit handle cannot be aborted" false (Stm.remote_abort h)

let test_remote_abort_retries_victim () =
  (* The victim publishes its handle, then spins until aborted; the abort is
     delivered from the same thread before the victim's commit. *)
  let tries = ref 0 in
  let v = Tvar.make 0 in
  Stm.atomic (fun () ->
      incr tries;
      Tvar.set v !tries;
      if !tries = 1 then begin
        let me = Stm.current () in
        check_bool "first abort delivered" true (Stm.remote_abort me);
        (* Commit will observe the Aborted status and retry. *)
      end);
  check "victim retried once" 2 !tries;
  check "second attempt committed" 2 (Tvar.get v)

(* ------------------------------------------------------------------ *)
(* Parallel (multi-domain) atomicity                                   *)

let test_parallel_counter () =
  let n_domains = 4 and iters = 500 in
  let v = Tvar.make 0 in
  let body () =
    for _ = 1 to iters do
      Stm.atomic (fun () -> Tvar.set v (Tvar.get v + 1))
    done
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join ds;
  check "atomic increments" (n_domains * iters) (Tvar.get v)

let test_parallel_invariant_transfer () =
  (* Transfers between two accounts preserve the total: classic atomicity
     check that fails under non-serializable interleavings. *)
  let a = Tvar.make 1000 and b = Tvar.make 1000 in
  let body () =
    for i = 1 to 300 do
      Stm.atomic (fun () ->
          let x = Tvar.get a and y = Tvar.get b in
          let amt = (i mod 7) + 1 in
          Tvar.set a (x - amt);
          Tvar.set b (y + amt))
    done
  in
  let observed_bad = Atomic.make false in
  let observer () =
    for _ = 1 to 2000 do
      let total = Stm.atomic (fun () -> Tvar.get a + Tvar.get b) in
      if total <> 2000 then Atomic.set observed_bad true
    done
  in
  let ds = [ Domain.spawn body; Domain.spawn body; Domain.spawn observer ] in
  List.iter Domain.join ds;
  check_bool "no torn snapshot" false (Atomic.get observed_bad);
  check "total preserved" 2000 (Tvar.get a + Tvar.get b)

let test_parallel_open_nested_counter () =
  (* Open-nested, abort-compensated increments: parents conflict heavily on
     [hot] and retry, re-executing the open-nested increment — but each
     aborted parent runs the migrated compensation, so the counter ends
     exactly equal to the number of committed parents. *)
  let c = Tvar.make 0 in
  let hot = Tvar.make 0 in
  let body () =
    for _ = 1 to 200 do
      Stm.atomic (fun () ->
          Stm.open_nested (fun () ->
              Tvar.set c (Tvar.get c + 1);
              Stm.on_abort (fun () ->
                  Stm.atomic (fun () -> Tvar.set c (Tvar.get c - 1))));
          Tvar.set hot (Tvar.get hot + 1))
    done
  in
  let ds = [ Domain.spawn body; Domain.spawn body ] in
  List.iter Domain.join ds;
  check "parent commits" 400 (Tvar.get hot);
  check "compensated counter exact" 400 (Tvar.get c)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let prop_serial_sum =
  QCheck.Test.make ~name:"random transactional updates keep model in sync"
    ~count:50
    QCheck.(list (pair small_nat small_int))
    (fun ops ->
      let n = 8 in
      let tvars = Array.init n (fun _ -> Tvar.make 0) in
      let model = Array.make n 0 in
      List.iter
        (fun (i, delta) ->
          let i = i mod n in
          Stm.atomic (fun () -> Tvar.set tvars.(i) (Tvar.get tvars.(i) + delta));
          model.(i) <- model.(i) + delta)
        ops;
      Array.for_all2 (fun tv m -> Tvar.get tv = m) tvars model)

let prop_abort_never_leaks =
  QCheck.Test.make ~name:"aborted transactions leak no writes" ~count:50
    QCheck.(list small_int)
    (fun writes ->
      let v = Tvar.make 0 in
      List.iter
        (fun w ->
          try Stm.atomic (fun () -> Tvar.set v w; Stm.self_abort ())
          with Stm.Aborted -> ())
        writes;
      Tvar.get v = 0)

(* Bit-for-bit guard for the tvar protocol: a fixed single-domain
   transaction program must produce exactly these counters.  Any drift
   here means the commit path changed. *)
let test_lazy_stats_pinned () =
  Stm.reset_stats ();
  let v = Tvar.make 0 and w = Tvar.make 0 in
  for i = 1 to 3 do
    Stm.atomic (fun () ->
        Tvar.set v i;
        Tvar.set w (Tvar.get v + i))
  done;
  for _ = 1 to 2 do
    ignore (Stm.atomic (fun () -> Tvar.get v + Tvar.get w))
  done;
  let s = Stm.global_stats () in
  check "commits" 5 s.commits;
  check "read-only fast-path commits" 2 s.read_only_commits;
  check "clock bumps (one per mutating commit)" 3 s.clock_bumps;
  check "conflict aborts" 0 s.conflict_aborts;
  check "remote aborts" 0 s.remote_aborts;
  check "handler failures" 0 s.handler_failures;
  check "final value" 6 (Tvar.get w)

let suites =
  [
    ( "stm.basic",
      [
        Alcotest.test_case "read-write" `Quick test_read_write;
        Alcotest.test_case "rollback on exception" `Quick test_rollback_on_exception;
        Alcotest.test_case "self abort" `Quick test_self_abort;
        Alcotest.test_case "non-transactional access" `Quick test_nontx_access;
        Alcotest.test_case "modify" `Quick test_modify;
        Alcotest.test_case "lazy_rv_wb stats pinned" `Quick
          test_lazy_stats_pinned;
      ] );
    ( "stm.nesting",
      [
        Alcotest.test_case "closed nested commit" `Quick test_nested_commit;
        Alcotest.test_case "nested exception aborts all" `Quick
          test_nested_exception_aborts_all;
        Alcotest.test_case "open nested commits early" `Quick
          test_open_nested_commits_early;
        Alcotest.test_case "open nested reads drop dependencies" `Quick
          test_open_nested_reads_no_dependency;
      ] );
    ( "stm.handlers",
      [
        Alcotest.test_case "commit handler on commit" `Quick
          test_commit_handler_runs_on_commit;
        Alcotest.test_case "commit handler discarded on abort" `Quick
          test_commit_handler_discarded_on_abort;
        Alcotest.test_case "abort handler on abort" `Quick
          test_abort_handler_runs_on_abort;
        Alcotest.test_case "abort handler discarded on commit" `Quick
          test_abort_handler_discarded_on_commit;
        Alcotest.test_case "handlers in dead child discarded" `Quick
          test_handlers_in_aborted_child_discarded;
        Alcotest.test_case "handlers in committed child survive" `Quick
          test_handlers_in_committed_child_survive;
        Alcotest.test_case "open-nested handlers migrate" `Quick
          test_open_nested_handler_migrates;
        Alcotest.test_case "abort handlers newest-first" `Quick
          test_abort_handlers_reverse_order;
        Alcotest.test_case "commit handlers registration order" `Quick
          test_commit_handlers_registration_order;
        Alcotest.test_case "on_commit outside txn" `Quick
          test_on_commit_outside_txn_runs_now;
      ] );
    ( "stm.remote-abort",
      [
        Alcotest.test_case "cannot abort committed" `Quick
          test_remote_abort_of_committed_fails;
        Alcotest.test_case "victim retries" `Quick test_remote_abort_retries_victim;
      ] );
    ( "stm.parallel",
      [
        Alcotest.test_case "counter" `Quick test_parallel_counter;
        Alcotest.test_case "invariant transfer" `Quick
          test_parallel_invariant_transfer;
        Alcotest.test_case "open-nested counter" `Quick
          test_parallel_open_nested_counter;
      ] );
    ( "stm.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_serial_sum; prop_abort_never_leaks ]
    );
  ]
