(* Tests for the reduced-isolation TransactionalQueue. *)

module Stm = Tcc_stm.Stm
module Q = Txcoll.Host.Queue

let conflict_scenario ~reader ~writer =
  let phase = Atomic.make 0 in
  let signal n = if Atomic.get phase < n then Atomic.set phase n in
  let await n =
    while Atomic.get phase < n do
      Domain.cpu_relax ()
    done
  in
  let attempts = ref 0 in
  let d1 =
    Domain.spawn (fun () ->
        Stm.atomic (fun () ->
            incr attempts;
            reader ();
            signal 1;
            if !attempts = 1 then await 2))
  in
  let d2 =
    Domain.spawn (fun () ->
        await 1;
        Stm.atomic writer;
        signal 2)
  in
  Domain.join d1;
  Domain.join d2;
  !attempts

let test_put_deferred_to_commit () =
  let q = Q.create () in
  Stm.atomic (fun () ->
      Q.put q 1;
      Alcotest.(check int) "not yet visible" 0 (Q.committed_length q));
  Alcotest.(check int) "visible after commit" 1 (Q.committed_length q)

let test_put_discarded_on_abort () =
  let q = Q.create () in
  (try
     Stm.atomic (fun () ->
         Q.put q 1;
         Q.put q 2;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "speculative work never leaks" 0 (Q.committed_length q)

let test_take_immediate_reduced_isolation () =
  let q = Q.create () in
  Q.put q 1;
  Q.put q 2;
  Stm.atomic (fun () ->
      Alcotest.(check (option int)) "took head" (Some 1) (Q.poll q);
      (* Reduced isolation: the element is already gone from the committed
         queue even though we have not committed. *)
      Alcotest.(check int) "removed immediately" 1 (Q.committed_length q));
  Alcotest.(check int) "consumed for good after commit" 1 (Q.committed_length q)

let test_abort_returns_taken_items_in_order () =
  let q = Q.create () in
  List.iter (Q.put q) [ 1; 2; 3; 4 ];
  (try
     Stm.atomic (fun () ->
         Alcotest.(check (option int)) "t1" (Some 1) (Q.poll q);
         Alcotest.(check (option int)) "t2" (Some 2) (Q.poll q);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  let drained = List.init 4 (fun _ -> Option.get (Q.poll q)) in
  Alcotest.(check (list int)) "original order restored" [ 1; 2; 3; 4 ] drained

let test_poll_own_additions () =
  let q = Q.create () in
  Stm.atomic (fun () ->
      Q.put q 10;
      Q.put q 11;
      Alcotest.(check (option int)) "sees own deferred add" (Some 10) (Q.poll q);
      Alcotest.(check (option int)) "fifo within buffer" (Some 11) (Q.poll q);
      Alcotest.(check (option int)) "then empty" None (Q.poll q))

let test_peek_does_not_consume () =
  let q = Q.create () in
  Q.put q 5;
  Stm.atomic (fun () ->
      Alcotest.(check (option int)) "peek" (Some 5) (Q.peek q);
      Alcotest.(check int) "still there" 1 (Q.committed_length q);
      Alcotest.(check bool) "non-null peek takes no empty lock" false
        (Q.holds_empty_lock q))

let test_empty_observation_locks () =
  let q = Q.create () in
  Stm.atomic (fun () ->
      Alcotest.(check (option int)) "empty poll" None (Q.poll q);
      Alcotest.(check bool) "null poll takes empty lock" true
        (Q.holds_empty_lock q))

let test_conflict_empty_poll_vs_put () =
  let q = Q.create () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (Q.poll q))
      ~writer:(fun () -> Q.put q 1)
  in
  Alcotest.(check int) "put invalidates observed emptiness" 2 n

let test_no_conflict_take_vs_take () =
  let q = Q.create () in
  List.iter (Q.put q) [ 1; 2; 3; 4 ];
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (Q.poll q))
      ~writer:(fun () -> ignore (Q.poll q))
  in
  Alcotest.(check int) "takes never conflict (Table 7)" 1 n

let test_no_conflict_put_vs_nonempty_poll () =
  let q = Q.create () in
  List.iter (Q.put q) [ 1; 2 ];
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (Q.poll q))
      ~writer:(fun () -> Q.put q 9)
  in
  Alcotest.(check int) "successful poll commutes with put" 1 n

let test_parallel_work_conservation () =
  (* Producers and consumers with random aborts: every produced element is
     either consumed exactly once or still in the queue. *)
  let q = Q.create () in
  let produced = 200 in
  let consumed = Atomic.make 0 in
  let producer () =
    for i = 1 to produced / 2 do
      Stm.atomic (fun () -> Q.put q i)
    done
  in
  let consumer () =
    let stop = ref false in
    let attempts = ref 0 in
    while (not !stop) && !attempts < 10_000 do
      incr attempts;
      let got =
        try
          Stm.atomic (fun () ->
              match Q.poll q with
              | Some _ as v ->
                  (* Occasionally abort to exercise compensation. *)
                  if !attempts mod 7 = 0 then Stm.self_abort () else v
              | None -> None)
        with Stm.Aborted -> None
      in
      match got with
      | Some _ -> ignore (Atomic.fetch_and_add consumed 1)
      | None -> if Atomic.get consumed >= produced then stop := true
    done
  in
  let ds =
    [
      Domain.spawn producer;
      Domain.spawn producer;
      Domain.spawn consumer;
    ]
  in
  List.iter Domain.join ds;
  (* Drain the remainder single-threaded. *)
  let rec drain n = match Q.poll q with Some _ -> drain (n + 1) | None -> n in
  let leftover = drain 0 in
  Alcotest.(check int) "work conserved" produced (Atomic.get consumed + leftover)

(* Two takers abort in the order they took, on two domains: each taken
   element goes back to its own place, so the queue reads as it did
   before either took (pushing each back on the front would leave
   [2; 1; 3]). *)
let test_interleaved_aborts_restore_order () =
  let q = Q.create () in
  List.iter (Q.put q) [ 1; 2; 3 ];
  let phase = Atomic.make 0 in
  let await n =
    while Atomic.get phase < n do
      Domain.cpu_relax ()
    done
  in
  (* Take one element once phase [start] is reached, move to [took], wait
     for [abort_at], abort, then move to [aborted]. *)
  let taker ~start ~took ~abort_at ~aborted =
    Domain.spawn (fun () ->
        await start;
        let got = ref None in
        (try
           Stm.atomic (fun () ->
               got := Q.poll q;
               Atomic.set phase took;
               await abort_at;
               Stm.self_abort ())
         with Stm.Aborted -> ());
        Atomic.set phase aborted;
        !got)
  in
  let t1 = taker ~start:0 ~took:1 ~abort_at:2 ~aborted:3 in
  let t2 = taker ~start:1 ~took:2 ~abort_at:3 ~aborted:4 in
  Alcotest.(check (option int)) "T1 took the head" (Some 1) (Domain.join t1);
  Alcotest.(check (option int)) "T2 took the next" (Some 2) (Domain.join t2);
  let drained = List.init 3 (fun _ -> Option.get (Q.poll q)) in
  Alcotest.(check (list int)) "original order restored" [ 1; 2; 3 ] drained;
  Alcotest.(check (option int)) "nothing else" None (Q.poll q)

(* Queue order is commit order: T1 puts first but commits after T2, so
   T2's element comes out first, as in the only serial order (T2; T1)
   that matches what a reader between the two commits saw. *)
let test_put_order_is_commit_order () =
  let q = Q.create () in
  let phase = Atomic.make 0 in
  let await n =
    while Atomic.get phase < n do
      Domain.cpu_relax ()
    done
  in
  let t1 =
    Domain.spawn (fun () ->
        Stm.atomic (fun () ->
            Q.put q "a";
            if Atomic.get phase = 0 then Atomic.set phase 1;
            await 2))
  in
  await 1;
  Stm.atomic (fun () -> Q.put q "b");
  let seen = Stm.atomic (fun () -> Q.peek q) in
  Atomic.set phase 2;
  Domain.join t1;
  Alcotest.(check (option string)) "between the commits" (Some "b") seen;
  let drained = List.init 2 (fun _ -> Option.get (Q.poll q)) in
  Alcotest.(check (list string)) "commit order" [ "b"; "a" ] drained;
  Alcotest.(check (option string)) "nothing else" None (Q.poll q)

let suites =
  [
    ( "txqueue.single",
      [
        Alcotest.test_case "put deferred" `Quick test_put_deferred_to_commit;
        Alcotest.test_case "put discarded on abort" `Quick
          test_put_discarded_on_abort;
        Alcotest.test_case "take is immediate" `Quick
          test_take_immediate_reduced_isolation;
        Alcotest.test_case "abort restores order" `Quick
          test_abort_returns_taken_items_in_order;
        Alcotest.test_case "poll own additions" `Quick test_poll_own_additions;
        Alcotest.test_case "peek" `Quick test_peek_does_not_consume;
        Alcotest.test_case "empty observation locks" `Quick
          test_empty_observation_locks;
      ] );
    ( "txqueue.conflicts",
      [
        Alcotest.test_case "empty poll vs put" `Quick
          test_conflict_empty_poll_vs_put;
        Alcotest.test_case "take vs take" `Quick test_no_conflict_take_vs_take;
        Alcotest.test_case "non-empty poll vs put" `Quick
          test_no_conflict_put_vs_nonempty_poll;
      ] );
    ( "txqueue.parallel",
      [
        Alcotest.test_case "work conservation with aborts" `Quick
          test_parallel_work_conservation;
        Alcotest.test_case "interleaved aborts restore order" `Quick
          test_interleaved_aborts_restore_order;
        Alcotest.test_case "put order is commit order" `Quick
          test_put_order_is_commit_order;
      ] );
  ]
