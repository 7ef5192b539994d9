(* Model-based tests for the plain host data structures (lib/coll). *)

module H = Coll.Chain_hashmap
module O = Coll.Ordmap
module Q = Coll.Fifo_deque

(* ------------------------------------------------------------------ *)
(* Chain_hashmap                                                       *)

let test_hashmap_basic () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  H.add h "a" 1;
  H.add h "b" 2;
  H.add h "a" 3;
  Alcotest.(check int) "size counts keys once" 2 (H.size h);
  Alcotest.(check (option int)) "replaced" (Some 3) (H.find h "a");
  H.remove h "a";
  Alcotest.(check (option int)) "removed" None (H.find h "a");
  H.remove h "a";
  Alcotest.(check int) "idempotent remove" 1 (H.size h)

let test_hashmap_resize () =
  let h = H.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    H.add h i (i * i)
  done;
  Alcotest.(check int) "size after growth" 1000 (H.size h);
  for i = 0 to 999 do
    assert (H.find h i = Some (i * i))
  done

type map_op = Add of int * int | Remove of int | Clear

let gen_map_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k mod 32, v)) small_nat small_int);
        (3, map (fun k -> Remove (k mod 32)) small_nat);
        (1, return Clear);
      ])

let arb_map_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add (k, v) -> Printf.sprintf "add(%d,%d)" k v
             | Remove k -> Printf.sprintf "rm(%d)" k
             | Clear -> "clear")
           ops))
    QCheck.Gen.(list_size (int_bound 200) gen_map_op)

let model_agrees apply_sut find_sut size_sut ops =
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      (match op with
      | Add (k, v) -> Hashtbl.replace model k v
      | Remove k -> Hashtbl.remove model k
      | Clear -> Hashtbl.reset model);
      apply_sut op)
    ops;
  Hashtbl.fold (fun k v ok -> ok && find_sut k = Some v) model true
  && size_sut () = Hashtbl.length model

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap agrees with model" ~count:200 arb_map_ops
    (fun ops ->
      let h = H.create ~initial_capacity:2 () in
      let apply = function
        | Add (k, v) -> H.add h k v
        | Remove k -> H.remove h k
        | Clear -> H.clear h
      in
      model_agrees apply (H.find h) (fun () -> H.size h) ops)

(* ------------------------------------------------------------------ *)
(* Ordmap                                                              *)

let test_ordmap_basic () =
  let m = O.create ~compare:Int.compare () in
  List.iter (fun k -> O.add m k (string_of_int k)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "size" 5 (O.size m);
  Alcotest.(check (option (pair int string)))
    "min" (Some (1, "1")) (O.min_binding m);
  Alcotest.(check (option (pair int string)))
    "max" (Some (9, "9")) (O.max_binding m);
  Alcotest.(check (list (pair int string)))
    "sorted iteration"
    [ (1, "1"); (3, "3"); (5, "5"); (7, "7"); (9, "9") ]
    (O.to_list m);
  O.remove m 5;
  Alcotest.(check (option string)) "removed root-ish" None (O.find m 5);
  O.check_balanced m

let test_ordmap_range () =
  let m = O.create ~compare:Int.compare () in
  for i = 0 to 20 do
    O.add m i i
  done;
  let collect lo hi =
    let acc = ref [] in
    O.iter_range (fun k _ -> acc := k :: !acc) m ~lo ~hi;
    List.rev !acc
  in
  Alcotest.(check (list int)) "half-open range" [ 5; 6; 7; 8; 9 ]
    (collect (Some 5) (Some 10));
  Alcotest.(check (list int)) "head range" [ 0; 1; 2 ] (collect None (Some 3));
  Alcotest.(check (list int)) "tail range" [ 18; 19; 20 ] (collect (Some 18) None)

let test_ordmap_reverse_comparator () =
  let m = O.create ~compare:(fun a b -> Int.compare b a) () in
  List.iter (fun k -> O.add m k ()) [ 1; 2; 3 ];
  Alcotest.(check (option (pair int unit)))
    "min under reverse order" (Some (3, ())) (O.min_binding m)

let prop_ordmap_model =
  QCheck.Test.make ~name:"ordmap agrees with model and stays balanced"
    ~count:200 arb_map_ops (fun ops ->
      let m = O.create ~compare:Int.compare () in
      let apply = function
        | Add (k, v) -> O.add m k v
        | Remove k -> O.remove m k
        | Clear -> O.clear m
      in
      let ok = model_agrees apply (O.find m) (fun () -> O.size m) ops in
      O.check_balanced m;
      let sorted = O.to_list m in
      ok
      && sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) sorted)

(* ------------------------------------------------------------------ *)
(* Reverse range iteration (Ordmap, Pmap, Skiplist)                    *)

(* Keys to insert, [lo], [hi] and how many bindings the reverse walk may
   visit before [f] raises.  Bounds reach past the key space at both ends,
   and [lo >= hi] (empty or inverted) comes up often. *)
let arb_rev_case =
  let bound = QCheck.Gen.(opt ~ratio:0.75 (int_range (-2) 34)) in
  QCheck.make
    ~print:(fun (keys, lo, hi, stop) ->
      let b = function None -> "-" | Some k -> string_of_int k in
      Printf.sprintf "keys=[%s] lo=%s hi=%s stop=%d"
        (String.concat ";" (List.map string_of_int keys))
        (b lo) (b hi) stop)
    QCheck.Gen.(
      quad (list_size (int_bound 40) (int_bound 31)) bound bound (int_bound 12))

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* [iter_range] visits [expect]; [iter_range_rev] visits exactly its
   [List.rev]; raising from [f] after [stop] visits leaves that prefix of
   the reverse walk. *)
let rev_mirrors_fwd ~iter_range ~iter_range_rev ~lo ~hi ~stop expect =
  let collect ?(stop = max_int) iter =
    let acc = ref [] in
    (try
       iter (fun k v ->
           if List.length !acc = stop then raise Exit;
           acc := (k, v) :: !acc)
     with Exit -> ());
    List.rev !acc
  in
  let fwd = collect (fun f -> iter_range f ~lo ~hi) in
  fwd = expect
  && collect (fun f -> iter_range_rev f ~lo ~hi) = List.rev expect
  && collect ~stop (fun f -> iter_range_rev f ~lo ~hi)
     = take stop (List.rev expect)

let prop_iter_range_rev =
  QCheck.Test.make
    ~name:"iter_range_rev mirrors iter_range (ordmap, pmap, skiplist)"
    ~count:300 arb_rev_case (fun (keys, lo, hi, stop) ->
      let o = O.create ~compare:Int.compare () in
      let s = Coll.Skiplist.create ~compare:Int.compare () in
      List.iter
        (fun k ->
          O.add o k (k * 10);
          Coll.Skiplist.add s k (k * 10))
        keys;
      let p =
        Coll.Pmap.of_seq ~compare:Int.compare
          (List.to_seq (List.map (fun k -> (k, k * 10)) keys))
      in
      let expect =
        List.sort_uniq Int.compare keys
        |> List.filter (fun k ->
               (match lo with None -> true | Some b -> k >= b)
               && match hi with None -> true | Some b -> k < b)
        |> List.map (fun k -> (k, k * 10))
      in
      rev_mirrors_fwd ~lo ~hi ~stop expect
        ~iter_range:(fun f -> O.iter_range f o)
        ~iter_range_rev:(fun f -> O.iter_range_rev f o)
      && rev_mirrors_fwd ~lo ~hi ~stop expect
           ~iter_range:(fun f -> Coll.Pmap.iter_range f p)
           ~iter_range_rev:(fun f -> Coll.Pmap.iter_range_rev f p)
      && rev_mirrors_fwd ~lo ~hi ~stop expect
           ~iter_range:(fun f -> Coll.Skiplist.iter_range f s)
           ~iter_range_rev:(fun f -> Coll.Skiplist.iter_range_rev f s)
      && Coll.Skiplist.max_binding s = O.max_binding o)

(* ------------------------------------------------------------------ *)
(* Fifo_deque                                                          *)

let test_deque_fifo () =
  let q = Q.create ~initial_capacity:2 () in
  for i = 1 to 100 do
    Q.enqueue q i
  done;
  let out = List.init 100 (fun _ -> Option.get (Q.dequeue q)) in
  Alcotest.(check (list int)) "fifo order" (List.init 100 (fun i -> i + 1)) out;
  Alcotest.(check (option int)) "drained" None (Q.dequeue q)

let test_deque_push_front () =
  let q = Q.create () in
  Q.enqueue q 2;
  Q.enqueue q 3;
  Q.push_front q 1;
  Alcotest.(check (list int)) "front insert" [ 1; 2; 3 ] (Q.to_list q);
  Alcotest.(check (option int)) "peek" (Some 1) (Q.peek q)

let prop_deque_model =
  QCheck.Test.make ~name:"deque agrees with two-list model" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let q = Q.create ~initial_capacity:1 () in
      let model = ref ([] : int list) in
      List.for_all
        (fun (enq, v) ->
          if enq then begin
            Q.enqueue q v;
            model := !model @ [ v ];
            true
          end
          else
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                  model := rest;
                  Some x
            in
            Q.dequeue q = expect)
        ops
      && Q.to_list q = !model)

(* Two publications at one stamp (one commit publishing a chain twice,
   as two open-nested transactions' handlers do at their outer commit):
   the second builds on the first and must be what readers at that stamp
   and later see. *)
let test_vchain_same_stamp () =
  let c = Coll.Vchain.make 0 "v0" in
  ignore (Coll.Vchain.publish c ~min_epoch:0 5 "first");
  ignore (Coll.Vchain.publish c ~min_epoch:0 5 "first+second");
  Alcotest.(check string) "latest" "first+second" (Coll.Vchain.latest c);
  Alcotest.(check string) "read at the stamp" "first+second"
    (Coll.Vchain.read_at c 5);
  Alcotest.(check string) "older reader" "v0" (Coll.Vchain.read_at c 4);
  Alcotest.(check int) "one version per stamp" 2 (Coll.Vchain.length c)

let suites =
  [
    ( "coll.vchain",
      [ Alcotest.test_case "same-stamp publication" `Quick test_vchain_same_stamp ]
    );
    ( "coll.hashmap",
      [
        Alcotest.test_case "basic" `Quick test_hashmap_basic;
        Alcotest.test_case "resize" `Quick test_hashmap_resize;
        QCheck_alcotest.to_alcotest prop_hashmap_model;
      ] );
    ( "coll.ordmap",
      [
        Alcotest.test_case "basic" `Quick test_ordmap_basic;
        Alcotest.test_case "range iteration" `Quick test_ordmap_range;
        Alcotest.test_case "reverse comparator" `Quick
          test_ordmap_reverse_comparator;
        QCheck_alcotest.to_alcotest prop_ordmap_model;
      ] );
    ("coll.range_rev", [ QCheck_alcotest.to_alcotest prop_iter_range_rev ]);
    ( "coll.deque",
      [
        Alcotest.test_case "fifo" `Quick test_deque_fifo;
        Alcotest.test_case "push front" `Quick test_deque_push_front;
        QCheck_alcotest.to_alcotest prop_deque_model;
      ] );
  ]
