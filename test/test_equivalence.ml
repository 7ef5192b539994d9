(* Equivalence properties:
   - cursor drains equal fold-based enumerations within one transaction;
   - the redo map and the undo-logging map (the map's spec with lazy and
     with eager conflict detection) are observationally equal, for random
     transactional programs with aborts;
   - the sorted map (committed state in AVL shadows) is observationally
     equal to a [Stdlib.Map] that receives only the committed
     transactions. *)

module Stm = Tcc_stm.Stm
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module UM = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed)

type op = Put of int * int | Remove of int | Abort_txn

let arb_prog =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | Put (k, v) -> Printf.sprintf "+%d=%d" k v
             | Remove k -> Printf.sprintf "-%d" k
             | Abort_txn -> "abort")
           (List.concat l)))
    QCheck.Gen.(
      list_size (int_bound 12)
        (list_size (int_bound 8)
           (frequency
              [
                (5, map2 (fun k v -> Put (k mod 20, v)) small_nat small_int);
                (3, map (fun k -> Remove (k mod 20)) small_nat);
                (1, return Abort_txn);
              ])))

let run_prog ~put ~remove prog =
  List.iter
    (fun txn_ops ->
      try
        Stm.atomic (fun () ->
            List.iter
              (function
                | Put (k, v) -> put k v
                | Remove k -> remove k
                | Abort_txn -> Stm.self_abort ())
              txn_ops)
      with Stm.Aborted -> ())
    prog

let prop_cursor_equals_fold_map =
  QCheck.Test.make ~name:"map cursor drain equals fold" ~count:80 arb_prog
    (fun prog ->
      let m = IM.create () in
      run_prog ~put:(fun k v -> ignore (IM.put m k v))
        ~remove:(fun k -> ignore (IM.remove m k))
        prog;
      Stm.atomic (fun () ->
          ignore (IM.put m 999 0);
          let by_fold =
            List.sort compare (IM.fold (fun k v acc -> (k, v) :: acc) m [])
          in
          let c = IM.cursor m in
          let rec drain acc =
            match IM.next c with Some kv -> drain (kv :: acc) | None -> acc
          in
          List.sort compare (drain []) = by_fold))

let prop_cursor_equals_fold_sorted =
  QCheck.Test.make ~name:"sorted cursor drain equals ordered fold" ~count:80
    arb_prog (fun prog ->
      let m = SM.create () in
      run_prog ~put:(fun k v -> ignore (SM.put m k v))
        ~remove:(fun k -> ignore (SM.remove m k))
        prog;
      Stm.atomic (fun () ->
          ignore (SM.put m 15 1);
          ignore (SM.remove m 3);
          let by_fold = List.rev (SM.fold (fun k v acc -> (k, v) :: acc) m []) in
          let c = SM.cursor m in
          let rec drain acc =
            match SM.cursor_next c with
            | Some kv -> drain (kv :: acc)
            | None -> List.rev acc
          in
          drain [] = by_fold))

let prop_redo_undo_equivalent =
  QCheck.Test.make ~name:"redo and undo maps observationally equal" ~count:80
    arb_prog (fun prog ->
      let a = IM.create () in
      let b = UM.create () in
      (* Every put and remove returns the prior binding it observed. *)
      let seen_a = ref [] and seen_b = ref [] in
      let see seen r = seen := r :: !seen in
      run_prog
        ~put:(fun k v -> see seen_a (IM.put a k v))
        ~remove:(fun k -> see seen_a (IM.remove a k))
        prog;
      run_prog
        ~put:(fun k v -> see seen_b (UM.put b k v))
        ~remove:(fun k -> see seen_b (UM.remove b k))
        prog;
      !seen_a = !seen_b
      && IM.size a = UM.size b
      && List.sort compare (IM.to_list a) = List.sort compare (UM.to_list b))

module IMap = Map.Make (Int)

let prop_sorted_equals_stdlib_map =
  QCheck.Test.make ~name:"avl and Stdlib.Map observationally equal" ~count:80
    arb_prog (fun prog ->
      let a = SM.create () in
      run_prog ~put:(fun k v -> ignore (SM.put a k v))
        ~remove:(fun k -> ignore (SM.remove a k))
        prog;
      (* The reference applies a transaction's operations only when it
         commits, that is, when it does not abort itself. *)
      let b =
        List.fold_left
          (fun b txn_ops ->
            if List.mem Abort_txn txn_ops then b
            else
              List.fold_left
                (fun b -> function
                  | Put (k, v) -> IMap.add k v b
                  | Remove k -> IMap.remove k b
                  | Abort_txn -> b)
                b txn_ops)
          IMap.empty prog
      in
      let range =
        IMap.fold
          (fun k _ acc -> if k >= 4 && k < 15 then k :: acc else acc)
          b []
      in
      SM.to_list a = IMap.bindings b
      && SM.first_key a = Option.map fst (IMap.min_binding_opt b)
      && SM.last_key a = Option.map fst (IMap.max_binding_opt b)
      && SM.fold_range (fun k _ acc -> k :: acc) a [] ~lo:(Some 4) ~hi:(Some 15)
         = range)

let suites =
  [
    ( "equivalence",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_cursor_equals_fold_map;
          prop_cursor_equals_fold_sorted;
          prop_redo_undo_equivalent;
          prop_sorted_equals_stdlib_map;
        ] );
  ]
