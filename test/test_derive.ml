(* Tests for the spec-derived collection classes ({!Txcoll.Derive}):
   unit coverage for Counter/Bag/PriorityQueue, the counter's
   zero-conflict guarantee, and each class's exhaustive commit-order check
   through the real STM: every (row, write) pair of operations on every
   small state, the row parked in its transaction while the write commits
   from another domain, must equal the serial run in commit order. *)

module Stm = Tcc_stm.Stm
module DSet = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module Bag = Txcoll.Host.Bag (Txcoll.Host.Int_hashed)
module Pq = Txcoll.Host.Priority_queue (Txcoll.Host.Int_ordered)
module Counter = Txcoll.Host.Counter
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

(* ---------------- unit: counter ---------------- *)

let test_counter_basics () =
  let c = Counter.create ~shards:4 () in
  Alcotest.(check int) "fresh" 0 (Counter.get c);
  Counter.incr c;
  Counter.add c 5;
  Counter.decr c;
  Alcotest.(check int) "nontxn sum" 5 (Counter.get c);
  Stm.atomic (fun () ->
      Counter.add c 10;
      Alcotest.(check int) "own delta visible in txn" 15 (Counter.get c));
  Alcotest.(check int) "committed" 15 (Counter.get c);
  (try
     Stm.atomic (fun () ->
         Counter.add c 100;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "abort discards delta" 15 (Counter.get c);
  Alcotest.(check int) "no leaked locks" 0 (Counter.outstanding_locks c)

let test_counter_zero_conflicts () =
  (* The headline guarantee: commutative increments never conflict with
     each other.  4 domains hammering the same counter must finish with
     zero aborts of any kind and zero commit-region waits. *)
  Stm.reset_stats ();
  let c = Counter.create () in
  let n = 2_000 in
  let before = Stm.global_stats () in
  let waits0 = Stm.commit_region_waits () in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to n do
              Stm.atomic (fun () -> Counter.incr c)
            done))
  in
  List.iter Domain.join doms;
  let after = Stm.global_stats () in
  Alcotest.(check int) "sum exact" (4 * n) (Counter.get c);
  Alcotest.(check int) "zero conflict aborts" 0
    (after.conflict_aborts - before.conflict_aborts);
  Alcotest.(check int) "zero remote aborts" 0
    (after.remote_aborts - before.remote_aborts);
  Alcotest.(check int) "zero region waits" 0
    (Stm.commit_region_waits () - waits0);
  Alcotest.(check int) "no leaked locks" 0 (Counter.outstanding_locks c)

(* ---------------- unit: bag ---------------- *)

let test_bag_basics () =
  let b = Bag.create () in
  Bag.add b 1;
  Bag.add b 1;
  Bag.add_n b 2 3;
  Alcotest.(check int) "count 1" 2 (Bag.count b 1);
  Alcotest.(check int) "count 2" 3 (Bag.count b 2);
  Alcotest.(check int) "total size" 5 (Bag.size b);
  Alcotest.(check bool) "remove present" true (Bag.remove_one b 1);
  Alcotest.(check int) "count after remove" 1 (Bag.count b 1);
  Alcotest.(check bool) "remove to zero" true (Bag.remove_one b 1);
  Alcotest.(check bool) "remove absent" false (Bag.remove_one b 1);
  Alcotest.(check int) "total size after" 3 (Bag.size b);
  Stm.atomic (fun () ->
      Bag.add b 9;
      Alcotest.(check int) "own add visible" 1 (Bag.count b 9);
      Alcotest.(check bool) "txn remove_one" true (Bag.remove_one b 9);
      Alcotest.(check int) "back to zero" 0 (Bag.count b 9));
  Alcotest.(check bool) "9 never committed" false (Bag.mem b 9);
  (try
     Stm.atomic (fun () ->
         Bag.add_n b 5 7;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "abort discards" 0 (Bag.count b 5);
  Alcotest.(check int) "no leaked locks" 0 (Bag.outstanding_locks b)

(* ---------------- unit: priority queue ---------------- *)

let test_pq_basics () =
  let q = Pq.create () in
  Alcotest.(check (option int)) "empty peek" None (Pq.peek_min q);
  List.iter (Pq.insert q) [ 5; 1; 9; 1 ];
  Alcotest.(check (option int)) "min" (Some 1) (Pq.peek_min q);
  Alcotest.(check int) "multiplicity" 2 (Pq.count q 1);
  Alcotest.(check (option int)) "poll" (Some 1) (Pq.poll_min q);
  Alcotest.(check (option int)) "second copy" (Some 1) (Pq.poll_min q);
  Alcotest.(check (option int)) "next prio" (Some 5) (Pq.poll_min q);
  Stm.atomic (fun () ->
      Pq.insert q 0;
      Alcotest.(check (option int)) "buffered min wins" (Some 0) (Pq.peek_min q);
      Alcotest.(check (option int)) "txn poll" (Some 0) (Pq.poll_min q);
      Alcotest.(check (option int)) "committed min behind it" (Some 9)
        (Pq.peek_min q));
  Alcotest.(check (option int)) "after commit" (Some 9) (Pq.poll_min q);
  Alcotest.(check bool) "drained" true (Pq.is_empty q);
  (try
     Stm.atomic (fun () ->
         Pq.insert q 3;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check bool) "abort discards insert" true (Pq.is_empty q);
  Alcotest.(check int) "no leaked locks" 0 (Pq.outstanding_locks q)

(* ---------------- unit: snapshot reads ---------------- *)

(* Every derived class serves its reads inside [Stm.snapshot] from its
   version chains.  A reader pinned before a writer on another domain
   commits (one transaction over all four classes, then two
   non-transactional writes) sees the prefix at its pin before and after
   that commit, and the writer's state once it pins again. *)
let test_snapshot_reads_pinned_prefix () =
  let s = DSet.create () and b = Bag.create () and q = Pq.create () in
  let c = Counter.create ~shards:4 () in
  Stm.atomic (fun () ->
      List.iter (fun k -> ignore (DSet.add s k)) [ 1; 2; 3 ];
      Bag.add_n b 7 2;
      Counter.add c 5;
      List.iter (Pq.insert q) [ 4; 9 ]);
  let ints l = String.concat "," (List.map string_of_int l) in
  let pairs l = ints (List.concat_map (fun (k, m) -> [ k; m ]) l) in
  let observe () =
    Printf.sprintf
      "set=[%s] size=%d empty=%b mem4=%b | bag=[%s] count7=%d size=%d | \
       counter=%d | pq=[%s] min=%s size=%d count4=%d"
      (ints (List.sort compare (DSet.to_list s)))
      (DSet.size s) (DSet.is_empty s) (DSet.mem s 4)
      (pairs (List.sort compare (Bag.to_list b)))
      (Bag.count b 7) (Bag.size b) (Counter.get c)
      (pairs (List.sort compare (Pq.to_list q)))
      (match Pq.peek_min q with None -> "-" | Some p -> string_of_int p)
      (Pq.size q) (Pq.count q 4)
  in
  let pinned =
    "set=[1,2,3] size=3 empty=false mem4=false | bag=[7,2] count7=2 size=2 \
     | counter=5 | pq=[4,1,9,1] min=4 size=2 count4=1"
  in
  let writer () =
    Stm.atomic (fun () ->
        ignore (DSet.remove s 1);
        ignore (DSet.add s 4);
        Bag.add b 7;
        Bag.add b 8;
        Counter.add c 10;
        ignore (Pq.poll_min q);
        Pq.insert q 2);
    ignore (DSet.add s 5);
    Counter.incr c
  in
  Stm.snapshot (fun () ->
      Alcotest.(check string) "pinned prefix" pinned (observe ());
      Domain.join (Domain.spawn writer);
      Alcotest.(check string) "still the pinned prefix" pinned (observe ()));
  let committed =
    "set=[2,3,4,5] size=4 empty=false mem4=true | bag=[7,3,8,1] count7=3 \
     size=4 | counter=16 | pq=[2,1,9,1] min=2 size=2 count4=0"
  in
  Alcotest.(check string) "later pin sees the commit" committed
    (Stm.snapshot observe);
  Alcotest.(check string) "committed state agrees" committed (observe ())

(* One copy of committed state: a quiescent derived map holds its
   committed bindings once, in the newest shadow of each stripe (with no
   snapshot pinned a chain keeps at most the version before, which shares
   all but one path with it).  Heap words reachable per key at 4 096
   committed int keys: hash map 20.7 and sorted map 12.1 when every
   stripe also kept a mutable shard beside its shadows, 10.7 and 6.1 with
   the shadows alone as AVL trees, 7.1 and 2.3 with B+-tree shadows (a
   hash map's key costs its 4-word bucket cons plus its slots in leaves
   about 70% full; a sorted map filled in key order packs its leaves).
   The bounds sit about 15% above the B+-tree figures. *)
let test_one_copy_of_committed_state () =
  let n = 4096 in
  let m = Map.create () and sm = Sorted.create () in
  for k = 0 to n - 1 do
    Stm.atomic (fun () ->
        ignore (Map.put m k k);
        ignore (Sorted.put sm k k))
  done;
  let per_key x = float (Obj.reachable_words (Obj.repr x)) /. float n in
  let check what words bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words per key (<= %.1f)" what words bound)
      true (words <= bound)
  in
  check "hash map" (per_key m) 8.1;
  check "sorted map" (per_key sm) 2.6

(* ---------------- commit-order check ---------------- *)

(* One class's exhaustive commit-order run ({!Harness.Commit_order}):
   every (row, write) pair on every small state equals the serial run in
   commit order, whether the pair commutes on its state or not, and a
   write whose keys the row did not observe never aborts it. *)
let spec_tests label name =
  let open Harness.Commit_order in
  let cases os = List.map (fun o -> o.case) os in
  let violations commuting () =
    let os = report name in
    Alcotest.(check (list string))
      "commit-order violations" []
      (cases (List.filter (fun o -> o.commutes = commuting) (violations os)));
    Alcotest.(check bool)
      "such pairs exist" true
      (List.exists (fun o -> o.commutes = commuting) os)
  in
  [
    Alcotest.test_case (label ^ ": commutative pairs are order-equivalent")
      `Quick (violations true);
    Alcotest.test_case
      (label ^ ": non-commutative pairs serialise in commit order")
      `Quick (violations false);
    Alcotest.test_case (label ^ ": unobserved writes never abort") `Quick
      (fun () ->
        Alcotest.(check (list string))
          "aborted" [] (cases (floor_aborts (report name))));
  ]

(* ---------------- derived chaos soak ---------------- *)

let test_derived_soak () =
  List.iter
    (fun seed ->
      let r =
        Harness.Chaos.run_derived_soak
          (Harness.Chaos.default_soak ~domains:2 ~ops_per_domain:400
             ~key_space:32 ~seed 0.05)
      in
      if not r.Harness.Chaos.ok then
        Alcotest.failf "derived soak seed=%d: %s" seed
          (String.concat "; " r.Harness.Chaos.errors);
      Alcotest.(check bool)
        (Printf.sprintf "work committed (seed=%d)" seed)
        true
        (r.Harness.Chaos.committed > 0))
    [ 1; 2; 3 ]

let suites =
  [
    ( "derive.units",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "counter zero conflicts" `Quick
          test_counter_zero_conflicts;
        Alcotest.test_case "bag basics" `Quick test_bag_basics;
        Alcotest.test_case "pq basics" `Quick test_pq_basics;
        Alcotest.test_case "snapshot reads pinned prefix" `Quick
          test_snapshot_reads_pinned_prefix;
        Alcotest.test_case "one copy of committed state" `Quick
          test_one_copy_of_committed_state;
      ] );
    ("derive.spec.set", spec_tests "derived set" "set");
    ("derive.spec.bag", spec_tests "derived bag" "bag");
    ("derive.spec.pq", spec_tests "derived pq" "priority queue");
    ("derive.spec.counter", spec_tests "derived counter" "counter");
    ("derive.spec.sorted", spec_tests "derived sorted map" "sorted map");
    ("derive.spec.map", spec_tests "derived map" "map");
    ("derive.spec.undo", spec_tests "derived undo map" "undo map");
    ("derive.spec.queue", spec_tests "derived queue" "queue");
    ( "derive.chaos",
      [ Alcotest.test_case "derived soak" `Quick test_derived_soak ] );
  ]
