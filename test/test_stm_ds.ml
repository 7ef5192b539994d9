(* Tests for the tvar-based baseline data structures (lib/stm_ds). *)

module Stm = Tcc_stm.Stm
module H = Stm_ds.Stm_hashmap
module A = Stm_ds.Stm_avlmap
module C = Stm_ds.Stm_counter
module U = Stm_ds.Stm_uidgen

let test_hashmap_basic () =
  let h = H.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    H.add h i (2 * i)
  done;
  Alcotest.(check int) "size" 100 (H.size h);
  Alcotest.(check (option int)) "find" (Some 84) (H.find h 42);
  H.remove h 42;
  Alcotest.(check (option int)) "removed" None (H.find h 42);
  Alcotest.(check int) "size after remove" 99 (H.size h)

let test_hashmap_txn_composes () =
  let h = H.create () in
  (try
     Stm.atomic (fun () ->
         H.add h "x" 1;
         H.add h "y" 2;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "aborted adds invisible" 0 (H.size h);
  Stm.atomic (fun () ->
      H.add h "x" 1;
      H.add h "y" 2);
  Alcotest.(check int) "committed adds visible" 2 (H.size h)

let test_hashmap_parallel_disjoint () =
  (* Disjoint keys, but the shared size tvar forces retries; the result must
     still be correct (the baseline is slow, not wrong). *)
  let h = H.create () in
  let worker base () =
    for i = 0 to 99 do
      Stm.atomic (fun () -> H.add h (base + i) i)
    done
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 1000) ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "all inserts survive contention" 200 (H.size h)

let test_avl_sorted_ops () =
  let m = A.create ~compare:Int.compare () in
  List.iter (fun k -> A.add m k (k * 10)) [ 8; 3; 11; 1; 5; 9; 14 ];
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (A.min_binding m);
  Alcotest.(check (option (pair int int)))
    "max" (Some (14, 140)) (A.max_binding m);
  let keys = List.map fst (A.to_list m) in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 8; 9; 11; 14 ] keys;
  A.remove m 8;
  A.remove m 1;
  A.check_balanced m;
  Alcotest.(check int) "size" 5 (A.size m);
  let range = ref [] in
  A.iter_range (fun k _ -> range := k :: !range) m ~lo:(Some 5) ~hi:(Some 12);
  Alcotest.(check (list int)) "range" [ 5; 9; 11 ] (List.rev !range)

type op = Add of int * int | Remove of int

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | Add (k, v) -> Printf.sprintf "+%d=%d" k v
             | Remove k -> Printf.sprintf "-%d" k)
           l))
    QCheck.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (3, map2 (fun k v -> Add (k mod 24, v)) small_nat small_int);
             (2, map (fun k -> Remove (k mod 24)) small_nat);
           ]))

let prop_avl_model =
  QCheck.Test.make ~name:"stm avl agrees with model, stays balanced" ~count:100
    arb_ops (fun ops ->
      let m = A.create ~compare:Int.compare () in
      let model = Hashtbl.create 16 in
      List.iter
        (function
          | Add (k, v) ->
              A.add m k v;
              Hashtbl.replace model k v
          | Remove k ->
              A.remove m k;
              Hashtbl.remove model k)
        ops;
      A.check_balanced m;
      A.size m = Hashtbl.length model
      && Hashtbl.fold (fun k v ok -> ok && A.find m k = Some v) model true)

let prop_hashmap_model =
  QCheck.Test.make ~name:"stm hashmap agrees with model" ~count:100 arb_ops
    (fun ops ->
      let m = H.create ~initial_capacity:2 () in
      let model = Hashtbl.create 16 in
      List.iter
        (function
          | Add (k, v) ->
              H.add m k v;
              Hashtbl.replace model k v
          | Remove k ->
              H.remove m k;
              Hashtbl.remove model k)
        ops;
      H.size m = Hashtbl.length model
      && Hashtbl.fold (fun k v ok -> ok && H.find m k = Some v) model true)

let test_counter_open_nested_compensation () =
  let c = C.create () in
  (try
     Stm.atomic (fun () ->
         C.incr_open c;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "compensated on abort" 0 (C.get c);
  Stm.atomic (fun () -> C.incr_open c);
  Alcotest.(check int) "committed" 1 (C.get c)

let test_uid_unique_despite_aborts () =
  let g = U.create () in
  let ids = ref [] in
  for i = 1 to 20 do
    try
      Stm.atomic (fun () ->
          let id = U.next g in
          if i mod 3 = 0 then Stm.self_abort ();
          ids := id :: !ids)
    with Stm.Aborted -> ()
  done;
  let sorted = List.sort_uniq Int.compare !ids in
  Alcotest.(check int) "all unique" (List.length !ids) (List.length sorted);
  (* Aborted parents consumed ids: gaps exist, monotonic allocation. *)
  Alcotest.(check bool) "gaps from aborted parents" true (U.peek g > List.length !ids + 1)

let test_uid_parallel_unique () =
  let g = U.create () in
  let results = Array.make 2 [] in
  let worker slot () =
    let acc = ref [] in
    for _ = 1 to 200 do
      acc := Stm.atomic (fun () -> U.next g) :: !acc
    done;
    results.(slot) <- !acc
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 1) ] in
  List.iter Domain.join ds;
  let all = results.(0) @ results.(1) in
  Alcotest.(check int) "parallel uniqueness" 400
    (List.length (List.sort_uniq Int.compare all))

let suites =
  [
    ( "stm_ds.hashmap",
      [
        Alcotest.test_case "basic" `Quick test_hashmap_basic;
        Alcotest.test_case "transactional composition" `Quick
          test_hashmap_txn_composes;
        Alcotest.test_case "parallel disjoint keys" `Quick
          test_hashmap_parallel_disjoint;
        QCheck_alcotest.to_alcotest prop_hashmap_model;
      ] );
    ( "stm_ds.avlmap",
      [
        Alcotest.test_case "sorted ops" `Quick test_avl_sorted_ops;
        QCheck_alcotest.to_alcotest prop_avl_model;
      ] );
    ( "stm_ds.counters",
      [
        Alcotest.test_case "open-nested compensation" `Quick
          test_counter_open_nested_compensation;
        Alcotest.test_case "uid unique despite aborts" `Quick
          test_uid_unique_despite_aborts;
        Alcotest.test_case "uid parallel uniqueness" `Quick
          test_uid_parallel_unique;
      ] );
  ]
