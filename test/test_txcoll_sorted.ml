(* Tests for TransactionalSortedMap over the host STM. *)

module Stm = Tcc_stm.Stm
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

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

let seeded () =
  let m = SM.create () in
  List.iter (fun k -> ignore (SM.put m k (string_of_int k))) [ 10; 20; 30; 40; 50 ];
  m

(* ---------------- single-transaction semantics ---------------- *)

let test_ordered_iteration_merges_buffer () =
  let m = seeded () in
  Stm.atomic (fun () ->
      ignore (SM.put m 25 "25");
      ignore (SM.remove m 40);
      ignore (SM.put m 10 "ten");
      Alcotest.(check (list (pair int string)))
        "merged in order"
        [ (10, "ten"); (20, "20"); (25, "25"); (30, "30"); (50, "50") ]
        (SM.to_list m));
  Alcotest.(check (list (pair int string)))
    "committed in order"
    [ (10, "ten"); (20, "20"); (25, "25"); (30, "30"); (50, "50") ]
    (SM.to_list m)

let binding = Alcotest.(option (pair int string))

let test_first_last_with_buffer () =
  let m = seeded () in
  Stm.atomic (fun () ->
      ignore (SM.put m 5 "new min");
      ignore (SM.remove m 50);
      Alcotest.(check (option int)) "buffered min" (Some 5) (SM.first_key m);
      Alcotest.(check (option int)) "max after buffered remove" (Some 40)
        (SM.last_key m);
      Alcotest.check binding "buffered min binding" (Some (5, "new min"))
        (SM.first_binding m);
      Alcotest.check binding "max binding after buffered remove"
        (Some (40, "40")) (SM.last_binding m));
  Alcotest.(check (option int)) "committed min" (Some 5) (SM.first_key m);
  Alcotest.check binding "committed min binding" (Some (5, "new min"))
    (SM.first_binding m);
  Alcotest.check binding "committed max binding" (Some (40, "40"))
    (SM.last_binding m)

let test_range_fold () =
  let m = seeded () in
  Stm.atomic (fun () ->
      ignore (SM.put m 25 "25");
      let keys =
        List.rev
          (SM.fold_range (fun k _ acc -> k :: acc) m [] ~lo:(Some 20)
             ~hi:(Some 40))
      in
      Alcotest.(check (list int)) "half-open merged range" [ 20; 25; 30 ] keys)

let test_views () =
  let m = seeded () in
  let v = SM.sub_map m ~lo:20 ~hi:45 in
  Alcotest.(check (list int)) "subMap keys" [ 20; 30; 40 ]
    (List.map fst (SM.View.to_list v));
  Alcotest.(check (option int)) "view first" (Some 20) (SM.View.first_key v);
  Alcotest.(check (option int)) "view last" (Some 40) (SM.View.last_key v);
  Alcotest.check binding "view first binding" (Some (20, "20"))
    (SM.View.first_binding v);
  Alcotest.check binding "view last binding" (Some (40, "40"))
    (SM.View.last_binding v);
  Stm.atomic (fun () ->
      ignore (SM.put m 20 "twenty");
      ignore (SM.put m 40 "forty");
      Alcotest.check binding "buffered view first binding"
        (Some (20, "twenty")) (SM.View.first_binding v);
      Alcotest.check binding "buffered view last binding"
        (Some (40, "forty")) (SM.View.last_binding v));
  let empty = SM.sub_map m ~lo:31 ~hi:39 in
  Alcotest.check binding "empty view first binding" None
    (SM.View.first_binding empty);
  Alcotest.check binding "empty view last binding" None
    (SM.View.last_binding empty);
  Alcotest.(check int) "view size" 3 (SM.View.size v);
  Alcotest.check_raises "put outside bounds rejected"
    (Invalid_argument "TransactionalSortedMap.View.put") (fun () ->
      ignore (SM.View.put v 50 "no"));
  let h = SM.head_map m ~hi:30 in
  Alcotest.(check (list int)) "headMap" [ 10; 20 ]
    (List.map fst (SM.View.to_list h));
  let t = SM.tail_map m ~lo:30 in
  Alcotest.(check (list int)) "tailMap" [ 30; 40; 50 ]
    (List.map fst (SM.View.to_list t))

let test_empty_map_endpoints () =
  let m = SM.create () in
  Stm.atomic (fun () ->
      Alcotest.(check (option int)) "first of empty" None (SM.first_key m);
      Alcotest.(check (option int)) "last of empty" None (SM.last_key m);
      Alcotest.check binding "first binding of empty" None (SM.first_binding m);
      Alcotest.check binding "last binding of empty" None (SM.last_binding m));
  Alcotest.check binding "committed first binding of empty" None
    (SM.first_binding m);
  Alcotest.check binding "committed last binding of empty" None
    (SM.last_binding m)

let test_abort_restores () =
  let m = seeded () in
  let before = SM.to_list m in
  (try
     Stm.atomic (fun () ->
         ignore (SM.put m 1 "x");
         ignore (SM.remove m 30);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check (list (pair int string))) "unchanged" before (SM.to_list m);
  Alcotest.(check int) "no stale locks" 0 (SM.outstanding_locks m)

(* ---------------- Table 5 lock footprints ---------------- *)

let test_lock_footprints () =
  let m = seeded () in
  Stm.atomic (fun () ->
      ignore (SM.first_key m);
      Alcotest.(check bool) "firstKey takes first lock" true (SM.holds_first_lock m);
      Alcotest.(check bool) "no last lock yet" false (SM.holds_last_lock m);
      ignore (SM.last_key m);
      Alcotest.(check bool) "lastKey takes last lock" true (SM.holds_last_lock m));
  Stm.atomic (fun () ->
      ignore (SM.fold_range (fun _ _ acc -> acc) m () ~lo:(Some 20) ~hi:(Some 40));
      Alcotest.(check bool) "range iteration takes range lock" true
        (SM.holds_range_lock m);
      Alcotest.(check bool) "bounded range takes no first lock" false
        (SM.holds_first_lock m));
  Stm.atomic (fun () ->
      ignore (SM.to_list m);
      Alcotest.(check bool) "full iteration takes first lock" true
        (SM.holds_first_lock m);
      Alcotest.(check bool) "full iteration takes last lock" true
        (SM.holds_last_lock m))

(* ---------------- semantic conflicts ---------------- *)

let test_range_conflict_inside () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        ignore (SM.fold_range (fun _ _ acc -> acc) m [] ~lo:(Some 20) ~hi:(Some 40)))
      ~writer:(fun () -> ignore (SM.put m 25 "inside iterated range"))
  in
  Alcotest.(check int) "insert inside range aborts iterator" 2 n

let test_range_no_conflict_outside () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        ignore (SM.fold_range (fun _ _ acc -> acc) m [] ~lo:(Some 20) ~hi:(Some 40)))
      ~writer:(fun () -> ignore (SM.put m 45 "outside range"))
  in
  Alcotest.(check int) "insert outside range commutes" 1 n

let test_first_key_conflict_new_min () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.first_key m))
      ~writer:(fun () -> ignore (SM.put m 1 "new minimum"))
  in
  Alcotest.(check int) "new minimum aborts firstKey reader" 2 n

let test_first_key_no_conflict_middle_insert () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.first_key m))
      ~writer:(fun () -> ignore (SM.put m 25 "middle"))
  in
  Alcotest.(check int) "middle insert commutes with firstKey" 1 n

let test_last_key_conflict_remove_max () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.last_key m))
      ~writer:(fun () -> ignore (SM.remove m 50))
  in
  Alcotest.(check int) "removing max aborts lastKey reader" 2 n

let test_remove_min_conflicts_first () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.first_key m))
      ~writer:(fun () -> ignore (SM.remove m 10))
  in
  Alcotest.(check int) "removing min aborts firstKey reader" 2 n

let test_view_first_conflict_prefix_insert () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        ignore (SM.View.first_key (SM.tail_map m ~lo:15)))
      ~writer:(fun () -> ignore (SM.put m 17 "between lo and found"))
  in
  (* tailMap(15).firstKey returned 20; inserting 17 invalidates it. *)
  Alcotest.(check int) "prefix insert aborts view firstKey" 2 n

let test_view_first_no_conflict_suffix_insert () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        ignore (SM.View.first_key (SM.tail_map m ~lo:15)))
      ~writer:(fun () -> ignore (SM.put m 35 "beyond found key"))
  in
  Alcotest.(check int) "suffix insert commutes with view firstKey" 1 n

(* ---------------- property tests ---------------- *)

module IntMap = Map.Make (Int)

type op = Put of int * int | Remove of int | Range of int * int

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | Put (k, v) -> Printf.sprintf "put(%d,%d)" k v
             | Remove k -> Printf.sprintf "rm(%d)" k
             | Range (a, b) -> Printf.sprintf "range(%d,%d)" a b)
           l))
    QCheck.Gen.(
      list_size (int_bound 80)
        (frequency
           [
             (4, map2 (fun k v -> Put (k mod 32, v)) small_nat small_int);
             (2, map (fun k -> Remove (k mod 32)) small_nat);
             (2, map2 (fun a b -> Range (a mod 32, b mod 32)) small_nat small_nat);
           ]))

module IntSM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

let prop_sorted_matches_model =
  QCheck.Test.make
    ~name:"sorted map in-transaction views match Stdlib.Map model" ~count:100
    arb_ops (fun ops ->
      let m = IntSM.create () in
      ignore (IntSM.put m 7 70);
      ignore (IntSM.put m 19 190);
      let model = ref (IntMap.of_list [ (7, 70); (19, 190) ]) in
      let ok = ref true in
      Stm.atomic (fun () ->
          List.iter
            (fun op ->
              match op with
              | Put (k, v) ->
                  ignore (IntSM.put m k v);
                  model := IntMap.add k v !model
              | Remove k ->
                  ignore (IntSM.remove m k);
                  model := IntMap.remove k !model
              | Range (a, b) ->
                  let lo = min a b and hi = max a b in
                  let got =
                    List.rev
                      (IntSM.fold_range
                         (fun k v acc -> (k, v) :: acc)
                         m [] ~lo:(Some lo) ~hi:(Some hi))
                  in
                  let expect =
                    IntMap.bindings
                      (IntMap.filter (fun k _ -> k >= lo && k < hi) !model)
                  in
                  if got <> expect then ok := false)
            ops;
          if IntSM.to_list m <> IntMap.bindings !model then ok := false;
          if IntSM.first_key m <> Option.map fst (IntMap.min_binding_opt !model)
          then ok := false;
          if IntSM.last_key m <> Option.map fst (IntMap.max_binding_opt !model)
          then ok := false);
      (* And the committed state agrees too. *)
      !ok
      && IntSM.to_list m = IntMap.bindings !model
      && IntSM.outstanding_locks m = 0)

let suites =
  [
    ( "txsorted.single",
      [
        Alcotest.test_case "ordered merge" `Quick
          test_ordered_iteration_merges_buffer;
        Alcotest.test_case "first/last with buffer" `Quick
          test_first_last_with_buffer;
        Alcotest.test_case "range fold" `Quick test_range_fold;
        Alcotest.test_case "views" `Quick test_views;
        Alcotest.test_case "empty endpoints" `Quick test_empty_map_endpoints;
        Alcotest.test_case "abort restores" `Quick test_abort_restores;
      ] );
    ( "txsorted.locks",
      [ Alcotest.test_case "Table 5 footprints" `Quick test_lock_footprints ] );
    ( "txsorted.conflicts",
      [
        Alcotest.test_case "insert inside range" `Quick test_range_conflict_inside;
        Alcotest.test_case "insert outside range" `Quick
          test_range_no_conflict_outside;
        Alcotest.test_case "new min vs firstKey" `Quick
          test_first_key_conflict_new_min;
        Alcotest.test_case "middle insert vs firstKey" `Quick
          test_first_key_no_conflict_middle_insert;
        Alcotest.test_case "remove max vs lastKey" `Quick
          test_last_key_conflict_remove_max;
        Alcotest.test_case "remove min vs firstKey" `Quick
          test_remove_min_conflicts_first;
        Alcotest.test_case "view firstKey prefix insert" `Quick
          test_view_first_conflict_prefix_insert;
        Alcotest.test_case "view firstKey suffix insert" `Quick
          test_view_first_no_conflict_suffix_insert;
      ] );
    ( "txsorted.properties",
      [ QCheck_alcotest.to_alcotest prop_sorted_matches_model ] );
  ]

(* ---------------- view endpoints: lastKey and isEmpty ---------------- *)

let test_view_last_conflict_suffix_insert () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.View.last_key (SM.head_map m ~hi:45)))
      ~writer:(fun () -> ignore (SM.put m 42 "between found and hi"))
  in
  (* headMap(45).lastKey returned 40; inserting 42 invalidates it. *)
  Alcotest.(check int) "suffix insert aborts view lastKey" 2 n

let test_view_last_no_conflict_prefix_insert () =
  let m = seeded () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (SM.View.last_key (SM.head_map m ~hi:45)))
      ~writer:(fun () -> ignore (SM.put m 35 "below found key"))
  in
  Alcotest.(check int) "prefix insert commutes with view lastKey" 1 n

let test_view_is_empty_conflict_insert () =
  let m = seeded () in
  let seen = ref [] in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        seen := SM.View.is_empty (SM.sub_map m ~lo:31 ~hi:39) :: !seen)
      ~writer:(fun () -> ignore (SM.put m 35 "into the empty view"))
  in
  Alcotest.(check int) "insert into empty view aborts isEmpty" 2 n;
  Alcotest.(check (list bool)) "empty, then not after the retry"
    [ true; false ] (List.rev !seen)

type view_op = Vput of int | Vremove of int | Vcheck of int * int

let arb_view_case =
  let key = QCheck.Gen.int_bound 31 in
  QCheck.make
    ~print:(fun (init, ops) ->
      Printf.sprintf "init=[%s] ops=[%s]"
        (String.concat ";" (List.map string_of_int init))
        (String.concat ";"
           (List.map
              (function
                | Vput k -> Printf.sprintf "put(%d)" k
                | Vremove k -> Printf.sprintf "rm(%d)" k
                | Vcheck (a, b) -> Printf.sprintf "check(%d,%d)" a b)
              ops)))
    QCheck.Gen.(
      pair
        (list_size (int_bound 24) key)
        (list_size (int_bound 40)
           (frequency
              [
                (3, map (fun k -> Vput k) key);
                (2, map (fun k -> Vremove k) key);
                ( 3,
                  map2
                    (fun a b -> Vcheck (a, b))
                    (int_range (-1) 34) (int_range (-1) 34) );
              ])))

(* Model test of view endpoints over maps whose views cross interval
   boundaries, in all three read modes: committed state outside any
   transaction and inside [Stm.snapshot], then the merged state inside a
   transaction whose buffer removes the committed maximum and applies
   random puts and removes, then the committed state again. *)

(* Views over [a, b] in every shape: sub, head and tail. *)
let views m a b =
  let lo = min a b and hi = max a b in
  [
    (IntSM.sub_map m ~lo ~hi, Some lo, Some hi);
    (IntSM.head_map m ~hi, None, Some hi);
    (IntSM.tail_map m ~lo, Some lo, None);
  ]

let agrees model m a b =
  List.for_all
    (fun (v, lo, hi) ->
      let inside =
        IntMap.filter
          (fun k _ ->
            (match lo with None -> true | Some b -> k >= b)
            && match hi with None -> true | Some b -> k < b)
          model
      in
      IntSM.View.first_key v = Option.map fst (IntMap.min_binding_opt inside)
      && IntSM.View.last_key v = Option.map fst (IntMap.max_binding_opt inside)
      && IntSM.View.first_binding v = IntMap.min_binding_opt inside
      && IntSM.View.last_binding v = IntMap.max_binding_opt inside
      && IntSM.View.is_empty v = IntMap.is_empty inside)
    (views m a b)

let checks ops =
  List.filter_map (function Vcheck (a, b) -> Some (a, b) | _ -> None) ops

(* Every check outside a transaction and inside one snapshot. *)
let committed_agree model m ops =
  let all () =
    List.for_all (fun (a, b) -> agrees model m a b) ((0, 32) :: checks ops)
  in
  all () && Stm.snapshot all

let prop_view_endpoints =
  QCheck.Test.make ~name:"view endpoints match model (AVL)" ~count:100
    arb_view_case (fun (init, ops) ->
      let m = IntSM.create ~splitters:[ 8; 16; 24 ] () in
      let model =
        List.fold_left
          (fun acc k ->
            ignore (IntSM.put m k k);
            IntMap.add k k acc)
          IntMap.empty init
      in
      let ok = committed_agree model m ops in
      let model, ok_in =
        Stm.atomic (fun () ->
            let model =
              match IntSM.last_key m with
              | None -> model
              | Some mx ->
                  ignore (IntSM.remove m mx);
                  IntMap.remove mx model
            in
            let ok_in = ref true in
            let model =
              List.fold_left
                (fun model op ->
                  match op with
                  | Vput k ->
                      ignore (IntSM.put m k k);
                      IntMap.add k k model
                  | Vremove k ->
                      ignore (IntSM.remove m k);
                      IntMap.remove k model
                  | Vcheck (a, b) ->
                      if not (agrees model m a b) then ok_in := false;
                      model)
                model ops
            in
            (model, !ok_in && agrees model m 0 32))
      in
      ok && ok_in
      && committed_agree model m ops
      && IntSM.outstanding_locks m = 0)

(* Allocation gate for [View.last_key] on a two-interval map whose view
   spans both intervals, in all three read modes: a fixed minor-words
   budget per call, and no growth with the map's size.  Rebuilding the
   merged range to read one endpoint costs tens of thousands of words per
   call at 10 000 keys. *)
let last_key_words ~n =
  let m = SM.create ~splitters:[ n / 2 ] () in
  for k = 0 to n - 1 do
    ignore (SM.put m k "v")
  done;
  let v = SM.sub_map m ~lo:0 ~hi:n in
  let per_call read =
    for _ = 1 to 50 do
      ignore (read ())
    done;
    let iters = 500 in
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (read ())
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let last () = SM.View.last_key v in
  [
    ("in a transaction", 2000., per_call (fun () -> Stm.atomic last));
    ("in a snapshot", 500., per_call (fun () -> Stm.snapshot last));
    ("outside a transaction", 500., per_call last);
  ]

let test_view_last_key_allocation () =
  let small = last_key_words ~n:1_000 and large = last_key_words ~n:10_000 in
  List.iter2
    (fun (mode, budget, s) (_, _, l) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words per call at 10k keys (<= %.0f)" mode l
           budget)
        true (l <= budget);
      Alcotest.(check bool)
        (Printf.sprintf "%s: 10k keys %.0f vs 1k keys %.0f words (<= 2x)" mode
           l s)
        true
        (l <= 2. *. s))
    small large

let suites =
  suites
  @ [
      ( "txsorted.view_endpoints",
        [
          Alcotest.test_case "view lastKey suffix insert" `Quick
            test_view_last_conflict_suffix_insert;
          Alcotest.test_case "view lastKey prefix insert" `Quick
            test_view_last_no_conflict_prefix_insert;
          Alcotest.test_case "insert into empty view vs isEmpty" `Quick
            test_view_is_empty_conflict_insert;
          QCheck_alcotest.to_alcotest prop_view_endpoints;
          Alcotest.test_case "view lastKey allocation" `Quick
            test_view_last_key_allocation;
        ] );
    ]

(* ---------------- key locks under the map's comparator ---------------- *)

(* Keys equal under the map's comparator are one key to the semantic
   locks too.  Under a case-insensitive order, T1 reads "A" and later
   writes "B" := A; T2 meanwhile reads "B" and commits "a" := B + 10.
   T2's write of "a" must abort T1's read of "A", so T1 re-runs and the
   outcome is the serial T2-then-T1 one, (A, B) = (110, 110).  Key locks
   keyed by structural hashing missed the conflict: T1 committed once and
   left (110, 1), which no serial order gives.  Run with one interval and
   with "A" and "B" in different intervals. *)
module Ci_string = struct
  type t = string

  let compare a b =
    String.compare (String.lowercase_ascii a) (String.lowercase_ascii b)
end

module CSM = Txcoll.Host.Sorted_map (Ci_string)

let test_key_locks_follow_comparator () =
  List.iter
    (fun splitters ->
      let m = CSM.create ~splitters () in
      ignore (CSM.put m "A" 1);
      ignore (CSM.put m "B" 100);
      let phase = Atomic.make 0 in
      let await n =
        while Atomic.get phase < n do
          Domain.cpu_relax ()
        done
      in
      let attempts = ref 0 in
      let t1 =
        Domain.spawn (fun () ->
            Stm.atomic (fun () ->
                incr attempts;
                let a = Option.get (CSM.find m "A") in
                if Atomic.get phase < 1 then Atomic.set phase 1;
                if !attempts = 1 then await 2;
                ignore (CSM.put m "B" a)))
      in
      let t2 =
        Domain.spawn (fun () ->
            await 1;
            Stm.atomic (fun () ->
                let b = Option.get (CSM.find m "B") in
                ignore (CSM.put m "a" (b + 10)));
            Atomic.set phase 2)
      in
      Domain.join t1;
      Domain.join t2;
      let label = Printf.sprintf "%d splitter(s)" (List.length splitters) in
      Alcotest.(check (pair int int))
        (label ^ ": serial outcome (T2 then T1)")
        (110, 110)
        (Option.get (CSM.find m "A"), Option.get (CSM.find m "B"));
      Alcotest.(check int) (label ^ ": T1 re-ran") 2 !attempts)
    [ []; [ "B" ] ]

let suites =
  suites
  @ [
      ( "txsorted.comparator",
        [
          Alcotest.test_case "key locks follow the comparator" `Quick
            test_key_locks_follow_comparator;
        ] );
    ]

(* ---------------- lock release on every commit path ---------------- *)

(* Three intervals: A = (-inf, 100), B = [100, 200), C = [200, +inf).  A
   write commit releases its locks inside its apply, with its whole
   region plan held; a read-only commit releases them on the fast path
   and an aborted attempt in its abort handler, each with no region held.
   Every path must leave the lock tables empty. *)
let three_intervals () =
  let m = SM.create ~splitters:[ 100; 200 ] () in
  List.iter (fun k -> ignore (SM.put m k (string_of_int k))) [ 5; 150; 250 ];
  m

(* A key lock in A, a range lock over B and the size lock, checked as
   held. *)
let read_three_facets m =
  ignore (SM.find m 5);
  ignore (SM.fold_range (fun _ _ acc -> acc) m () ~lo:(Some 110) ~hi:(Some 190));
  ignore (SM.size m);
  Alcotest.(check bool) "key lock in A held" true (SM.holds_key_lock m 5);
  Alcotest.(check bool) "range lock over B held" true (SM.holds_range_lock m);
  Alcotest.(check bool) "size lock held" true (SM.holds_size_lock m)

let check_released what m =
  Alcotest.(check int) (what ^ ": no outstanding locks") 0
    (SM.outstanding_locks m);
  Alcotest.(check int) (what ^ ": no range locks") 0
    (SM.outstanding_range_locks m);
  Stm.atomic (fun () ->
      Alcotest.(check bool) (what ^ ": no key lock") false
        (SM.holds_key_lock m 5);
      List.iter
        (fun (facet, holds) ->
          Alcotest.(check bool) (what ^ ": no " ^ facet ^ " lock") false
            (holds m))
        [
          ("size", SM.holds_size_lock);
          ("range", SM.holds_range_lock);
          ("first", SM.holds_first_lock);
          ("last", SM.holds_last_lock);
        ])

let test_release_paths () =
  let m = three_intervals () in
  Stm.atomic (fun () ->
      read_three_facets m;
      ignore (SM.put m 260 "c"));
  check_released "write commit" m;
  Alcotest.(check (option string)) "write applied" (Some "c") (SM.find m 260);
  Stm.atomic (fun () -> read_three_facets m);
  check_released "read-only commit" m;
  (try
     Stm.atomic (fun () ->
         read_three_facets m;
         ignore (SM.put m 270 "c");
         Stm.self_abort ())
   with Stm.Aborted -> ());
  check_released "aborted attempt" m;
  Alcotest.(check (option string)) "abort applied nothing" None (SM.find m 270)

(* A writer committing to A's key still remote-aborts a reader that holds
   the key lock and has not committed yet. *)
let test_release_paths_remote_abort () =
  let m = three_intervals () in
  let n =
    conflict_scenario
      ~reader:(fun () ->
        ignore (SM.find m 5);
        ignore
          (SM.fold_range (fun _ _ acc -> acc) m () ~lo:(Some 110) ~hi:(Some 190));
        ignore (SM.size m))
      ~writer:(fun () -> ignore (SM.put m 5 "a"))
  in
  Alcotest.(check int) "reader re-ran" 2 n;
  check_released "after both commits" m

let suites =
  suites
  @ [
      ( "txsorted.release",
        [
          Alcotest.test_case "every commit path releases" `Quick
            test_release_paths;
          Alcotest.test_case "write commit still remote-aborts readers" `Quick
            test_release_paths_remote_abort;
        ] );
    ]
