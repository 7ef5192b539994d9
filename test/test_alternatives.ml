(* Tests for the §5.1 alternative implementation strategy of the hash
   map: the undo-logging map.  (The pessimistic write policies are the
   sorted map's; test_txcoll_sorted.ml covers them.) *)

module Stm = Tcc_stm.Stm
module UM = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed)

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

(* ---------------- undo-logging map ---------------- *)

let test_undo_basic_semantics () =
  let m = UM.create () in
  ignore (UM.put m 1 "a");
  Stm.atomic (fun () ->
      Alcotest.(check (option string)) "put returns old" (Some "a")
        (UM.put m 1 "b");
      Alcotest.(check (option string)) "read own write" (Some "b")
        (UM.find m 1);
      ignore (UM.put m 2 "c");
      Alcotest.(check int) "size live" 2 (UM.size m));
  Alcotest.(check (option string)) "committed" (Some "b") (UM.find m 1);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)

let test_undo_abort_compensates () =
  let m = UM.create () in
  ignore (UM.put m 1 "keep");
  ignore (UM.put m 2 "also");
  (try
     Stm.atomic (fun () ->
         ignore (UM.put m 1 "dirty");
         ignore (UM.remove m 2);
         ignore (UM.put m 3 "new");
         ignore (UM.put m 3 "newer");
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check (option string)) "overwrite undone" (Some "keep") (UM.find m 1);
  Alcotest.(check (option string)) "remove undone" (Some "also") (UM.find m 2);
  Alcotest.(check (option string)) "insert undone" None (UM.find m 3);
  Alcotest.(check int) "size restored" 2 (UM.size m);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)

let test_undo_writer_aborts_reader () =
  let m = UM.create () in
  ignore (UM.put m 1 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (UM.find m 1))
      ~writer:(fun () -> ignore (UM.put m 1 "w"))
  in
  Alcotest.(check int) "eager writer aborts reader at op time" 2 n

let test_undo_parallel_correct () =
  let m = UM.create () in
  (* Every ninth insert forces one transparent retry (first attempt only),
     exercising the undo path under parallelism. *)
  let worker base () =
    for i = 0 to 99 do
      let first = ref true in
      Stm.atomic (fun () ->
          ignore (UM.put m (base + i) i);
          if i mod 9 = 0 && !first then begin
            first := false;
            Stm.retry_now () |> ignore
          end)
    done
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 1000) ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "all inserts survive" 200 (UM.size m);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)

let test_undo_write_write_waits () =
  (* Two transactions writing the same key serialize without losing either
     update's effect; the final value is from the later-committed one. *)
  for _ = 1 to 10 do
    let m = UM.create () in
    ignore (UM.put m 7 "init");
    let body tag () =
      Stm.atomic (fun () -> ignore (UM.put m 7 tag))
    in
    let d1 = Domain.spawn (body "one") and d2 = Domain.spawn (body "two") in
    Domain.join d1;
    Domain.join d2;
    let v = UM.find m 7 in
    Alcotest.(check bool) "one of the writers" true
      (v = Some "one" || v = Some "two");
    Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)
  done

let test_undo_write_write_no_lost_update () =
  (* Regression companion to the Semlock.lock_key_write_at displacement fix:
     with a single writer slot, a second registered writer silently
     deregistered the first, so the first's write-write conflict could be
     lost.  Two transactions doing read-modify-write increments of one key
     must serialise with no lost update: every registered writer stays
     visible to the blocked-check and to the committer's conflict_key. *)
  let m = UM.create () in
  ignore (UM.put m 0 0);
  let n = 200 in
  let worker () =
    for _ = 1 to n do
      Stm.atomic (fun () ->
          let v = Option.value (UM.find m 0) ~default:0 in
          ignore (UM.put m 0 (v + 1)))
    done
  in
  let ds = [ Domain.spawn worker; Domain.spawn worker ] in
  List.iter Domain.join ds;
  Alcotest.(check (option int)) "no lost increments" (Some (2 * n)) (UM.find m 0);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)

let prop_undo_model =
  QCheck.Test.make ~name:"undo map equals model after mixed commits/aborts"
    ~count:60
    QCheck.(list (triple small_nat small_int bool))
    (fun ops ->
      let m = UM.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v, abort) ->
          let k = k mod 16 in
          try
            Stm.atomic (fun () ->
                ignore (UM.put m k v);
                if abort then Stm.self_abort ());
            Hashtbl.replace model k v
          with Stm.Aborted -> ())
        ops;
      UM.size m = Hashtbl.length model
      && Hashtbl.fold (fun k v ok -> ok && UM.find m k = Some v) model true
      && UM.outstanding_locks m = 0)

let test_undo_model_property () = QCheck.Test.check_exn prop_undo_model

let suites =
  [
    ( "alt.undo",
      [
        Alcotest.test_case "basic semantics" `Quick test_undo_basic_semantics;
        Alcotest.test_case "abort compensates" `Quick test_undo_abort_compensates;
        Alcotest.test_case "writer aborts reader" `Quick
          test_undo_writer_aborts_reader;
        Alcotest.test_case "parallel with retries" `Quick
          test_undo_parallel_correct;
        Alcotest.test_case "write-write serializes" `Quick
          test_undo_write_write_waits;
        Alcotest.test_case "write-write no lost update" `Quick
          test_undo_write_write_no_lost_update;
        Alcotest.test_case "model property" `Quick test_undo_model_property;
      ] );
  ]
