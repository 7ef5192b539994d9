(* Transaction-local state owned by the TM ([Tm_ops.txn_local]): dropped
   collections are freed, and collection locals follow open nesting. *)

module Stm = Tcc_stm.Stm
module H = Txcoll.Host
module Map = H.Map (H.Int_hashed)
module Sorted_map = H.Sorted_map (H.Int_ordered)
module Set = H.Set (H.Int_hashed)
module Sorted_set = H.Sorted_set (H.Int_ordered)
module Queue = H.Queue
module Counter = H.Counter
module Bag = H.Bag (H.Int_hashed)
module Pq = H.Priority_queue (H.Int_ordered)
module Map_undo = H.Map_undo (H.Int_hashed)

(* ---------------- dropped collections are freed ---------------- *)

let instances = 1_000
let bound_words = 16_000

let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).live_words

(* [use i] creates one instance, touches it in a committed transaction
   and drops it.  Two batches of [instances] each: whatever a dropped
   instance leaves reachable grows the heap between the two
   measurements. *)
let retained_per_batch use =
  let batch () =
    for i = 1 to instances do
      use i
    done
  in
  batch ();
  let after_first = live_words () in
  batch ();
  live_words () - after_first

let classes =
  let txn f = Stm.atomic (fun () -> ignore (f ())) in
  [
    ("Map", fun i -> let m = Map.create () in txn (fun () -> Map.put m i i));
    ( "Sorted_map",
      fun i ->
        let m = Sorted_map.create () in
        txn (fun () -> Sorted_map.put m i i) );
    ("Set", fun i -> let s = Set.create () in txn (fun () -> Set.add s i));
    ( "Sorted_set",
      fun i ->
        let s = Sorted_set.create () in
        txn (fun () -> Sorted_set.add s i) );
    ("Queue", fun i -> let q = Queue.create () in txn (fun () -> Queue.put q i));
    ("Counter", fun _ -> let c = Counter.create () in txn (fun () -> Counter.incr c));
    ("Bag", fun i -> let b = Bag.create () in txn (fun () -> Bag.add b i));
    ("Priority_queue", fun i -> let p = Pq.create () in txn (fun () -> Pq.insert p i));
    ( "Map_undo",
      fun i -> let m = Map_undo.create () in txn (fun () -> Map_undo.put m i i) );
    ( "Places (eager)",
      fun i ->
        let p = Places.create ~place_count:2 ~key_space:64 () in
        txn (fun () -> Places.put p (i mod 64) i) );
  ]

let test_dropped_freed (name, use) () =
  let grown = retained_per_batch use in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d instances grew the live heap by %d words (<= %d)"
       name instances grown bound_words)
    true (grown <= bound_words)

(* ---------------- collections inside open nesting ---------------- *)

(* Writes made inside [Stm.open_nested] are buffered by the open
   transaction; its handlers migrate to the outer transaction, so the
   writes apply when the outer one commits and are dropped — with every
   semantic lock released — when it aborts. *)
type colls = {
  m : int Map.t;
  sm : int Sorted_map.t;
  q : int Queue.t;
  s : Set.t;
}

let fresh () =
  {
    m = Map.create ();
    sm = Sorted_map.create ();
    q = Queue.create ();
    s = Set.create ();
  }

let write c k =
  ignore (Map.put c.m k k);
  ignore (Sorted_map.put c.sm k k);
  Queue.put c.q k;
  ignore (Set.add c.s k)

let locks c =
  Map.outstanding_locks c.m
  + Sorted_map.outstanding_locks c.sm
  + Queue.outstanding_locks c.q
  + Set.outstanding_locks c.s

let check_applied c keys =
  Alcotest.(check (list int)) "map" keys (List.sort compare (Map.keys c.m));
  Alcotest.(check (list int))
    "sorted map" keys
    (List.map fst (Sorted_map.to_list c.sm));
  Alcotest.(check int) "queue" (List.length keys) (Queue.committed_length c.q);
  Alcotest.(check (list int)) "set" keys (List.sort compare (Set.to_list c.s));
  Alcotest.(check int) "locks released" 0 (locks c)

let test_open_nested_commit () =
  let c = fresh () in
  Stm.atomic (fun () -> Stm.open_nested (fun () -> write c 1));
  check_applied c [ 1 ]

let test_open_nested_abort () =
  let c = fresh () in
  (try
     Stm.atomic (fun () ->
         Stm.open_nested (fun () -> write c 1);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  check_applied c []

(* Two open transactions in one outer transaction: the second must not
   take over the first one's handle or its buffered writes. *)
let test_two_open_nested () =
  let c = fresh () in
  Stm.atomic (fun () ->
      Stm.open_nested (fun () -> write c 1);
      Stm.open_nested (fun () -> write c 2));
  check_applied c [ 1; 2 ];
  let d = fresh () in
  (try
     Stm.atomic (fun () ->
         Stm.open_nested (fun () -> write d 1);
         Stm.open_nested (fun () -> write d 2);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  check_applied d []

let suites =
  [
    ( "txn_local.leak",
      List.map
        (fun ((name, _) as c) ->
          Alcotest.test_case ("dropped " ^ name ^ " freed") `Quick
            (test_dropped_freed c))
        classes );
    ( "txn_local.open_nested",
      [
        Alcotest.test_case "outer commit applies" `Quick test_open_nested_commit;
        Alcotest.test_case "outer abort drops" `Quick test_open_nested_abort;
        Alcotest.test_case "two open transactions" `Quick test_two_open_nested;
      ] );
  ]
