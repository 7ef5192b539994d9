(* Tests for the spec-derived collection classes ({!Txcoll.Derive}):
   unit coverage for Counter/Bag/PriorityQueue, the counter's
   zero-conflict guarantee, and QCheck spec-soundness properties run
   against the *real* STM:

   - every pair of operations the sequential model declares commutative
     is order-equivalent through concurrent two-transaction programs
     (same results, same final state, regardless of scheduling);
   - every non-commutative pair is forced to conflict (the observer is
     remote-aborted or waits: its transaction needs >= 2 attempts when a
     conflicting write commits mid-flight). *)

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

(* ---------------- QCheck spec soundness ---------------- *)

(* A collection case packages the derived implementation with its
   sequential model.  Results are encoded as strings so the driver can
   compare them generically; [dump] is the canonical committed state. *)
module type CASE = sig
  val name : string

  type op

  val show_op : op -> string
  val gen_op : op QCheck.Gen.t
  val gen_setup : op list QCheck.Gen.t

  type model

  val model_create : unit -> model
  val model_apply : model -> op -> string
  val model_dump : model -> string

  type t

  val create : unit -> t
  val apply : t -> op -> string
  val dump : t -> string
  val observes : op -> bool
end

module Soundness (C : CASE) = struct
  (* Run [a; b] and [b; a] through the model from the same setup. *)
  let model_orders setup a b =
    let run first second =
      let m = C.model_create () in
      List.iter (fun o -> ignore (C.model_apply m o)) setup;
      let r1 = C.model_apply m first in
      let r2 = C.model_apply m second in
      (r1, r2, C.model_dump m)
    in
    let ra1, rb1, s1 = run a b in
    let rb2, ra2, s2 = run b a in
    ((ra1, rb1, s1), (ra2, rb2, s2))

  let commutative setup a b =
    let (ra1, rb1, s1), (ra2, rb2, s2) = model_orders setup a b in
    ra1 = ra2 && rb1 = rb2 && s1 = s2

  let build setup =
    let t = C.create () in
    List.iter (fun o -> ignore (C.apply t o)) setup;
    t

  (* Commutative pair: run the two ops as concurrent single-op
     transactions; results and final state must equal the (unique)
     sequential outcome. *)
  let check_commutative setup a b =
    let (ra, rb, s), _ = model_orders setup a b in
    let t = build setup in
    let got_a = ref "" and got_b = ref "" in
    let d1 =
      Domain.spawn (fun () -> Stm.atomic (fun () -> got_a := C.apply t a))
    in
    let d2 =
      Domain.spawn (fun () -> Stm.atomic (fun () -> got_b := C.apply t b))
    in
    Domain.join d1;
    Domain.join d2;
    if !got_a <> ra then
      QCheck.Test.fail_reportf "%s: %s returned %s, model says %s" C.name
        (C.show_op a) !got_a ra;
    if !got_b <> rb then
      QCheck.Test.fail_reportf "%s: %s returned %s, model says %s" C.name
        (C.show_op b) !got_b rb;
    let dumped = C.dump t in
    if dumped <> s then
      QCheck.Test.fail_reportf "%s: state %s, model says %s" C.name dumped s;
    true

  (* Non-commutative pair: the observer transaction performs its op,
     parks mid-flight while the other op commits, then tries to commit.
     The derived conflict sets must force it to a second attempt. *)
  let check_conflicting setup a b =
    (* Pick the op whose observation the other changes as the in-flight
       observer; the other (necessarily a writer) commits against it. *)
    let observer, writer =
      let (ra1, rb1, _), (ra2, rb2, _) = model_orders setup a b in
      if ra1 <> ra2 then (a, b)
      else if rb1 <> rb2 then (b, a)
      else if C.observes a then (a, b)
      else (b, a)
    in
    let t = build setup in
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
              ignore (C.apply t observer);
              signal 1;
              if !attempts = 1 then await 2))
    in
    let d2 =
      Domain.spawn (fun () ->
          await 1;
          Stm.atomic (fun () -> ignore (C.apply t writer));
          signal 2)
    in
    Domain.join d1;
    Domain.join d2;
    if !attempts < 2 then
      QCheck.Test.fail_reportf
        "%s: non-commutative pair (%s observer, %s writer) committed without \
         conflict"
        C.name (C.show_op observer) (C.show_op writer);
    true

  let print_case (setup, (a, b)) =
    Printf.sprintf "%s setup=[%s] a=%s b=%s" C.name
      (String.concat "; " (List.map C.show_op setup))
      (C.show_op a) (C.show_op b)

  let arb =
    QCheck.make ~print:print_case
      QCheck.Gen.(triple C.gen_setup C.gen_op C.gen_op |> map (fun (s, a, b) -> (s, (a, b))))

  let tests =
    [
      QCheck.Test.make
        ~name:(C.name ^ ": commutative pairs are order-equivalent")
        ~count:40 arb
        (fun (setup, (a, b)) ->
          QCheck.assume (commutative setup a b);
          check_commutative setup a b);
      QCheck.Test.make
        ~name:(C.name ^ ": non-commutative pairs forced to conflict")
        ~count:40 arb
        (fun (setup, (a, b)) ->
          QCheck.assume (not (commutative setup a b));
          check_conflicting setup a b);
    ]
end

(* ---- set case ---- *)

module Set_case = struct
  let name = "derived set"

  type op = Add of int | Remove of int | Mem of int | Size | Is_empty

  let show_op = function
    | Add k -> Printf.sprintf "add %d" k
    | Remove k -> Printf.sprintf "remove %d" k
    | Mem k -> Printf.sprintf "mem %d" k
    | Size -> "size"
    | Is_empty -> "is_empty"

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> Add k) (int_bound 3));
          (3, map (fun k -> Remove k) (int_bound 3));
          (2, map (fun k -> Mem k) (int_bound 3));
          (1, return Size);
          (1, return Is_empty);
        ])

  let gen_setup =
    QCheck.Gen.(
      list_size (int_bound 4)
        (map2 (fun k b -> if b then Add k else Remove k) (int_bound 3) bool))

  type model = (int, unit) Hashtbl.t

  let model_create () = Hashtbl.create 8

  let model_apply m = function
    | Add k ->
        let fresh = not (Hashtbl.mem m k) in
        Hashtbl.replace m k ();
        string_of_bool fresh
    | Remove k ->
        let present = Hashtbl.mem m k in
        Hashtbl.remove m k;
        string_of_bool present
    | Mem k -> string_of_bool (Hashtbl.mem m k)
    | Size -> string_of_int (Hashtbl.length m)
    | Is_empty -> string_of_bool (Hashtbl.length m = 0)

  let model_dump m =
    Hashtbl.fold (fun k () acc -> k :: acc) m []
    |> List.sort compare |> List.map string_of_int |> String.concat ","

  type t = DSet.t

  let create () = DSet.create ()

  let apply t = function
    | Add k -> string_of_bool (DSet.add t k)
    | Remove k -> string_of_bool (DSet.remove t k)
    | Mem k -> string_of_bool (DSet.mem t k)
    | Size -> string_of_int (DSet.size t)
    | Is_empty -> string_of_bool (DSet.is_empty t)

  let dump t =
    DSet.to_list t |> List.sort compare |> List.map string_of_int
    |> String.concat ","

  let observes _ = true
end

(* ---- bag case ---- *)

module Bag_case = struct
  let name = "derived bag"

  type op = Badd of int | Badd_n of int * int | Bremove of int | Bcount of int | Bsize

  let show_op = function
    | Badd k -> Printf.sprintf "add %d" k
    | Badd_n (k, n) -> Printf.sprintf "add_n %d %d" k n
    | Bremove k -> Printf.sprintf "remove_one %d" k
    | Bcount k -> Printf.sprintf "count %d" k
    | Bsize -> "size"

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> Badd k) (int_bound 3));
          (2, map2 (fun k n -> Badd_n (k, n + 1)) (int_bound 3) (int_bound 2));
          (3, map (fun k -> Bremove k) (int_bound 3));
          (2, map (fun k -> Bcount k) (int_bound 3));
          (1, return Bsize);
        ])

  let gen_setup =
    QCheck.Gen.(
      list_size (int_bound 4)
        (map2 (fun k n -> Badd_n (k, n + 1)) (int_bound 3) (int_bound 2)))

  type model = (int, int) Hashtbl.t

  let model_create () = Hashtbl.create 8
  let mcount m k = Option.value (Hashtbl.find_opt m k) ~default:0

  let model_apply m = function
    | Badd k ->
        Hashtbl.replace m k (mcount m k + 1);
        "()"
    | Badd_n (k, n) ->
        if n > 0 then Hashtbl.replace m k (mcount m k + n);
        "()"
    | Bremove k ->
        let c = mcount m k in
        if c > 1 then Hashtbl.replace m k (c - 1)
        else if c = 1 then Hashtbl.remove m k;
        string_of_bool (c > 0)
    | Bcount k -> string_of_int (mcount m k)
    | Bsize -> string_of_int (Hashtbl.fold (fun _ c acc -> acc + c) m 0)

  let model_dump m =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) m []
    |> List.sort compare
    |> List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c)
    |> String.concat ","

  type t = Bag.t

  let create () = Bag.create ()

  let apply t = function
    | Badd k ->
        Bag.add t k;
        "()"
    | Badd_n (k, n) ->
        Bag.add_n t k n;
        "()"
    | Bremove k -> string_of_bool (Bag.remove_one t k)
    | Bcount k -> string_of_int (Bag.count t k)
    | Bsize -> string_of_int (Bag.size t)

  let dump t =
    Bag.to_list t |> List.sort compare
    |> List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c)
    |> String.concat ","

  let observes = function
    | Badd _ | Badd_n _ -> false
    | Bremove _ | Bcount _ | Bsize -> true
end

(* ---- priority-queue case ---- *)

module Pq_case = struct
  let name = "derived pq"

  type op = Insert of int | Peek | Poll | Pcount of int

  let show_op = function
    | Insert p -> Printf.sprintf "insert %d" p
    | Peek -> "peek_min"
    | Poll -> "poll_min"
    | Pcount p -> Printf.sprintf "count %d" p

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun p -> Insert p) (int_bound 4));
          (2, return Peek);
          (3, return Poll);
          (1, map (fun p -> Pcount p) (int_bound 4));
        ])

  let gen_setup =
    QCheck.Gen.(list_size (int_bound 4) (map (fun p -> Insert p) (int_bound 4)))

  type model = (int, int) Hashtbl.t

  let model_create () = Hashtbl.create 8
  let mcount m k = Option.value (Hashtbl.find_opt m k) ~default:0

  let mmin m =
    Hashtbl.fold
      (fun k _ best ->
        match best with Some b when b <= k -> best | _ -> Some k)
      m None

  let model_apply m = function
    | Insert p ->
        Hashtbl.replace m p (mcount m p + 1);
        "()"
    | Peek -> (
        match mmin m with None -> "none" | Some p -> string_of_int p)
    | Poll -> (
        match mmin m with
        | None -> "none"
        | Some p ->
            let c = mcount m p in
            if c > 1 then Hashtbl.replace m p (c - 1) else Hashtbl.remove m p;
            string_of_int p)
    | Pcount p -> string_of_int (mcount m p)

  let model_dump m =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) m []
    |> List.sort compare
    |> List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c)
    |> String.concat ","

  type t = Pq.t

  let create () = Pq.create ()

  let apply t = function
    | Insert p ->
        Pq.insert t p;
        "()"
    | Peek -> (
        match Pq.peek_min t with None -> "none" | Some p -> string_of_int p)
    | Poll -> (
        match Pq.poll_min t with None -> "none" | Some p -> string_of_int p)
    | Pcount p -> string_of_int (Pq.count t p)

  let dump t =
    Pq.to_list t |> List.sort compare
    |> List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c)
    |> String.concat ","

  let observes = function
    | Insert _ -> false
    | Peek | Poll | Pcount _ -> true
end

(* ---- counter case ---- *)

module Counter_case = struct
  let name = "derived counter"

  type op = Cadd of int | Cget

  let show_op = function
    | Cadd d -> Printf.sprintf "add %d" d
    | Cget -> "get"

  let gen_op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun d -> Cadd (d + 1)) (int_bound 3)); (2, return Cget) ])

  let gen_setup =
    QCheck.Gen.(list_size (int_bound 3) (map (fun d -> Cadd (d + 1)) (int_bound 3)))

  type model = int ref

  let model_create () = ref 0

  let model_apply m = function
    | Cadd d ->
        m := !m + d;
        "()"
    | Cget -> string_of_int !m

  let model_dump m = string_of_int !m

  type t = Counter.t

  let create () = Counter.create ~shards:4 ()

  let apply t = function
    | Cadd d ->
        Counter.add t d;
        "()"
    | Cget -> string_of_int (Counter.get t)

  let dump t = string_of_int (Counter.get t)
  let observes = function Cadd _ -> false | Cget -> true
end

(* ---- sorted-map case: the range, first and last facets ---- *)

module Sorted_case = struct
  let name = "derived sorted map"

  type op =
    | Sput of int * int
    | Sremove of int
    | Sget of int
    | Srange of int * int (* fold over [lo, hi) *)
    | Sfirst
    | Slast
    | Sview_first of int (* tailMap(lo).firstKey *)
    | Sview_last of int (* headMap(hi).lastKey *)

  let show_op = function
    | Sput (k, v) -> Printf.sprintf "put %d %d" k v
    | Sremove k -> Printf.sprintf "remove %d" k
    | Sget k -> Printf.sprintf "get %d" k
    | Srange (lo, hi) -> Printf.sprintf "range [%d,%d)" lo hi
    | Sfirst -> "first_key"
    | Slast -> "last_key"
    | Sview_first lo -> Printf.sprintf "tail_map %d first_key" lo
    | Sview_last hi -> Printf.sprintf "head_map %d last_key" hi

  let key = QCheck.Gen.int_bound 5

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> Sput (k, v)) key (int_bound 1));
          (3, map (fun k -> Sremove k) key);
          (1, map (fun k -> Sget k) key);
          (2, map2 (fun a b -> Srange (min a b, max a b + 1)) key key);
          (1, return Sfirst);
          (1, return Slast);
          (1, map (fun k -> Sview_first k) key);
          (1, map (fun k -> Sview_last k) key);
        ])

  let gen_setup =
    QCheck.Gen.(
      list_size (int_bound 4) (map2 (fun k v -> Sput (k, v)) key (int_bound 1)))

  type model = (int, int) Hashtbl.t

  let model_create () = Hashtbl.create 8
  let opt = function None -> "none" | Some x -> string_of_int x

  let model_sorted m =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

  let show_bindings l =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)

  let model_keys m keep = List.filter keep (List.map fst (model_sorted m))
  let first_of = function [] -> None | k :: _ -> Some k
  let last_of l = first_of (List.rev l)

  let model_apply m = function
    | Sput (k, v) ->
        let old = Hashtbl.find_opt m k in
        Hashtbl.replace m k v;
        opt old
    | Sremove k ->
        let old = Hashtbl.find_opt m k in
        Hashtbl.remove m k;
        opt old
    | Sget k -> opt (Hashtbl.find_opt m k)
    | Srange (lo, hi) ->
        show_bindings
          (List.filter (fun (k, _) -> k >= lo && k < hi) (model_sorted m))
    | Sfirst -> opt (first_of (model_keys m (fun _ -> true)))
    | Slast -> opt (last_of (model_keys m (fun _ -> true)))
    | Sview_first lo -> opt (first_of (model_keys m (fun k -> k >= lo)))
    | Sview_last hi -> opt (last_of (model_keys m (fun k -> k < hi)))

  let model_dump m = show_bindings (model_sorted m)

  type t = int Sorted.t

  (* Three intervals, so ranges and endpoints cross interval stripes. *)
  let create () = Sorted.create ~splitters:[ 2; 4 ] ()

  let apply t = function
    | Sput (k, v) -> opt (Sorted.put t k v)
    | Sremove k -> opt (Sorted.remove t k)
    | Sget k -> opt (Sorted.find t k)
    | Srange (lo, hi) ->
        show_bindings
          (List.rev
             (Sorted.fold_range
                (fun k v acc -> (k, v) :: acc)
                t [] ~lo:(Some lo) ~hi:(Some hi)))
    | Sfirst -> opt (Sorted.first_key t)
    | Slast -> opt (Sorted.last_key t)
    | Sview_first lo -> opt (Sorted.View.first_key (Sorted.tail_map t ~lo))
    | Sview_last hi -> opt (Sorted.View.last_key (Sorted.head_map t ~hi))

  let dump t = show_bindings (Sorted.to_list t)
  let observes _ = true
end

module Set_sound = Soundness (Set_case)
module Bag_sound = Soundness (Bag_case)
module Pq_sound = Soundness (Pq_case)
module Counter_sound = Soundness (Counter_case)
module Sorted_sound = Soundness (Sorted_case)

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

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

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
    ("derive.spec.set", qsuite Set_sound.tests);
    ("derive.spec.bag", qsuite Bag_sound.tests);
    ("derive.spec.pq", qsuite Pq_sound.tests);
    ("derive.spec.counter", qsuite Counter_sound.tests);
    ("derive.spec.sorted", qsuite Sorted_sound.tests);
    ( "derive.chaos",
      [ Alcotest.test_case "derived soak" `Quick test_derived_soak ] );
  ]
