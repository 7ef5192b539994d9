(* Tests for data structures in simulated memory (lib/sim_ds). *)

module Machine = Sim.Machine
module Ops = Sim.Ops
module Tcc = Sim.Tcc
module Acc = Sim_ds.Acc
module H = Sim_ds.Sim_hashmap
module A = Sim_ds.Sim_avlmap
module Q = Sim_ds.Sim_queue

(* ---------------- host-accessor model tests ---------------- *)

let test_hashmap_model () =
  let m = Machine.create ~n_cpus:1 () in
  let a = Acc.host m in
  let h = H.create a ~buckets:8 in
  let model = Hashtbl.create 16 in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 2000 do
    let k = 1 + Random.State.int rng 64 in
    if Random.State.bool rng then begin
      let v = Random.State.int rng 10_000 in
      H.put a h k v;
      Hashtbl.replace model k v
    end
    else begin
      H.remove a h k;
      Hashtbl.remove model k
    end
  done;
  Alcotest.(check int) "size" (Hashtbl.length model) (H.size a h);
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "lookup" (Some v) (H.find a h k))
    model

let test_avl_model () =
  let m = Machine.create ~n_cpus:1 () in
  let a = Acc.host m in
  let t = A.create a () in
  let model = Hashtbl.create 16 in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let k = 1 + Random.State.int rng 96 in
    if Random.State.int rng 3 < 2 then begin
      let v = Random.State.int rng 10_000 in
      A.put a t k v;
      Hashtbl.replace model k v
    end
    else begin
      A.remove a t k;
      Hashtbl.remove model k
    end
  done;
  A.check_balanced a t;
  Alcotest.(check int) "size" (Hashtbl.length model) (A.size a t);
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "lookup" (Some v) (A.find a t k))
    model;
  (* In-order iteration really is sorted. *)
  let keys = ref [] in
  A.iter a t (fun k _ -> keys := k :: !keys);
  let keys = List.rev !keys in
  Alcotest.(check (list int)) "sorted" (List.sort Int.compare keys) keys

let test_avl_range () =
  let m = Machine.create ~n_cpus:1 () in
  let a = Acc.host m in
  let t = A.create a () in
  for k = 1 to 50 do
    A.put a t k (k * 10)
  done;
  let got = ref [] in
  A.iter_range a t ~lo:10 ~hi:15 (fun k _ -> got := k :: !got);
  Alcotest.(check (list int)) "range" [ 10; 11; 12; 13; 14 ] (List.rev !got);
  Alcotest.(check (option int)) "min" (Some 1) (A.min_key a t);
  Alcotest.(check (option int)) "max" (Some 50) (A.max_key a t)

let test_queue_model () =
  let m = Machine.create ~n_cpus:1 () in
  let a = Acc.host m in
  let q = Q.create a () in
  for i = 1 to 100 do
    Q.enqueue a q i
  done;
  Q.push_front a q 0;
  Alcotest.(check int) "length" 101 (Q.length a q);
  Alcotest.(check (option int)) "front" (Some 0) (Q.peek a q);
  let drained = List.init 101 (fun _ -> Option.get (Q.dequeue a q)) in
  Alcotest.(check (list int)) "fifo" (List.init 101 Fun.id) drained;
  Alcotest.(check (option int)) "empty" None (Q.dequeue a q)

(* ---------------- in-simulation behaviour ---------------- *)

let test_hashmap_size_word_causes_violations () =
  (* The paper's central observation: transactions inserting DISJOINT keys
     into a plain hash map still violate, because of the shared size word
     (and bucket collisions). *)
  let m = Machine.create ~n_cpus:4 () in
  let a = Acc.host m in
  let h = H.create a ~buckets:256 in
  let body cpu () =
    let s = Acc.sim in
    for i = 0 to 49 do
      Tcc.atomic (fun () ->
          Ops.work 50;
          H.put s h ((cpu * 1000) + i) i)
    done
  in
  let stats = Machine.run m (Array.init 4 (fun c -> body c)) in
  Alcotest.(check int) "all inserts applied" 200 (H.size a h);
  Alcotest.(check bool) "disjoint inserts still violate" true
    (stats.Machine.total_violations > 0)

let test_avl_rotations_cause_violations () =
  let m = Machine.create ~n_cpus:4 () in
  let a = Acc.host m in
  let t = A.create a () in
  (* Pre-populate so lookups traverse a real tree. *)
  for k = 0 to 127 do
    A.put a t (k * 8) k
  done;
  let body cpu () =
    let s = Acc.sim in
    for i = 0 to 39 do
      Tcc.atomic (fun () ->
          Ops.work 50;
          A.put s t ((cpu * 977) + (i * 13) + 1) i)
    done
  in
  let stats = Machine.run m (Array.init 4 (fun c -> body c)) in
  A.check_balanced a t;
  Alcotest.(check bool) "rotations violate disjoint inserts" true
    (stats.Machine.total_violations > 0)

let test_structures_correct_under_contention () =
  (* Whatever the violation count, committed state must equal the model. *)
  let m = Machine.create ~n_cpus:3 () in
  let a = Acc.host m in
  let h = H.create a ~buckets:32 in
  let body cpu () =
    let s = Acc.sim in
    for i = 0 to 29 do
      Tcc.atomic (fun () -> H.put s h ((cpu * 100) + i) (cpu + i))
    done
  in
  ignore (Machine.run m (Array.init 3 (fun c -> body c)));
  Alcotest.(check int) "size exact" 90 (H.size a h);
  for cpu = 0 to 2 do
    for i = 0 to 29 do
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" ((cpu * 100) + i))
        (Some (cpu + i))
        (H.find a h ((cpu * 100) + i))
    done
  done

(* TransactionalMap over the simulated TCC machine: the same functor body
   as the host instantiation, demonstrating TM-independence. *)
module SimTxMap =
  Txcoll.Transactional_map.Make (Sim.Tcc.Tm_ops)
    (Txcoll.Underlying.Hashed_map_ops (Txcoll.Host.Int_hashed))

let test_txcoll_over_tcc () =
  let m = Machine.create ~n_cpus:4 () in
  let tm = SimTxMap.create () in
  let body cpu () =
    for i = 0 to 49 do
      Tcc.atomic (fun () ->
          Ops.work 50;
          ignore (SimTxMap.put tm ((cpu * 1000) + i) i))
    done
  in
  let stats = Machine.run m (Array.init 4 (fun c -> body c)) in
  Alcotest.(check int) "all inserts committed" 200 (SimTxMap.size tm);
  Alcotest.(check int) "no memory-level violations" 0
    stats.Machine.total_violations;
  Alcotest.(check int) "no stale locks" 0 (SimTxMap.outstanding_locks tm)

let test_txcoll_over_tcc_semantic_conflict () =
  (* Two simulated CPUs: one reads key 1 and idles, the other writes key 1
     and commits; the reader must be aborted and retried. *)
  let m = Machine.create ~n_cpus:2 () in
  let tm = SimTxMap.create () in
  let attempts = ref 0 in
  let reader () =
    Tcc.atomic (fun () ->
        incr attempts;
        ignore (SimTxMap.find tm 1);
        if !attempts = 1 then
          for _ = 1 to 100 do
            Ops.work 10
          done)
  in
  let writer () =
    Ops.work 50;
    Tcc.atomic (fun () -> ignore (SimTxMap.put tm 1 99))
  in
  ignore (Machine.run m [| writer; reader |]);
  Alcotest.(check int) "reader aborted once" 2 !attempts;
  Alcotest.(check (option int)) "write committed" (Some 99)
    (SimTxMap.find tm 1)

(* Open nesting on the TCC machine matches the host STM: an open attempt
   that aborts — retried after a violation, or raising — releases the
   semantic locks its collection operations took and drops its buffered
   writes. *)
let test_txcoll_over_tcc_open_abort () =
  let m = Machine.create ~n_cpus:2 () in
  let tm = SimTxMap.create () in
  let w = Machine.alloc_words m 1 in
  let attempts = ref 0 in
  let opener () =
    Tcc.atomic (fun () ->
        Tcc.open_nested (fun () ->
            incr attempts;
            ignore (Ops.load w);
            ignore (SimTxMap.put tm 1 !attempts);
            if !attempts = 1 then
              for _ = 1 to 100 do
                Ops.work 10
              done));
    Tcc.atomic (fun () ->
        try
          Tcc.open_nested (fun () ->
              ignore (SimTxMap.put tm 2 2);
              failwith "open body failed")
        with Failure _ -> ())
  in
  let writer () =
    Ops.work 50;
    Tcc.atomic (fun () -> Ops.store w 1)
  in
  ignore (Machine.run m [| opener; writer |]);
  Alcotest.(check int) "open attempt retried" 2 !attempts;
  Alcotest.(check int) "locks released" 0 (SimTxMap.outstanding_locks tm);
  Alcotest.(check (option int)) "retry's write applied" (Some 2)
    (SimTxMap.find tm 1);
  Alcotest.(check (option int)) "raising attempt's write dropped" None
    (SimTxMap.find tm 2)

let suites =
  [
    ( "sim_ds.host",
      [
        Alcotest.test_case "hashmap model" `Quick test_hashmap_model;
        Alcotest.test_case "avl model" `Quick test_avl_model;
        Alcotest.test_case "avl range" `Quick test_avl_range;
        Alcotest.test_case "queue model" `Quick test_queue_model;
      ] );
    ( "sim_ds.tcc",
      [
        Alcotest.test_case "size word violations" `Quick
          test_hashmap_size_word_causes_violations;
        Alcotest.test_case "rotation violations" `Quick
          test_avl_rotations_cause_violations;
        Alcotest.test_case "correct under contention" `Quick
          test_structures_correct_under_contention;
      ] );
    ( "sim_ds.txcoll",
      [
        Alcotest.test_case "transactional map eliminates violations" `Quick
          test_txcoll_over_tcc;
        Alcotest.test_case "semantic conflict on tcc" `Quick
          test_txcoll_over_tcc_semantic_conflict;
        Alcotest.test_case "aborted open attempt on tcc" `Quick
          test_txcoll_over_tcc_open_abort;
      ] );
  ]
