(* The paper's conflict tables (1/2, 4/5 and 7/8) measured on the shipped
   classes.  Every derived class runs every (row, write) pair of its
   operations on every small state: the row runs in a transaction that
   parks after its operation, a second domain commits the write, and then
   the row commits.  The run must equal the serial run in commit order,
   results and final state alike:
   - the write ran once: the row committed after it, so write-then-row
     (a row that committed on its first attempt missed no conflict, a
     retried one re-ran on the write's state);
   - the write re-ran and the row did not: the write waited for the parked
     row ([Derive.Eager]'s one pending writer per key), so row-then-write;
   - anything else is a violation.
   A non-commuting pair need not abort: a blind row (a bag's [add k]
   racing [remove_one k] on count 0) is serialised after the write.

   One model state ([Commute_spec.state]) and one [Commute_spec.commutes_by]
   serve every class; the map classes reuse [Commute_spec]'s operations.
   The same runs give the exact permissiveness table (pairs that commute
   on their state yet aborted) and check its floor: a write whose keys the
   row did not observe never aborts it.  A row observes key [k] on [s]
   when rebinding [k] alone changes its result; a write's footprint is
   every key it rebinds on some state. *)

module Stm = Tcc_stm.Stm
module CS = Commute_spec
module IntMap = CS.IntMap

type 't op = {
  name : string;
  model : CS.state -> CS.state * CS.result;
  real : 't -> CS.result;
}

type 't cls = {
  keys : int list;
  values : int list;  (** a state binds each key to nothing or one of these *)
  create : CS.state -> 't;  (** a fresh instance holding the state *)
  dump : 't -> CS.state;  (** its committed state *)
  rows : 't op list;
  writes : 't op list;
}

type outcome = {
  case : string;
  row_op : string;  (** the row's operation, arguments dropped *)
  commutes : bool;  (** the pair commutes on its state *)
  serial : bool;  (** the run equals the serial run in commit order *)
  aborted : bool;  (** the row or the write needed a second attempt *)
  unobserved : bool;  (** the row observed none of the write's keys *)
}

let count k s = Option.value ~default:0 (IntMap.find_opt k s)

(* Multiplicity [k] moved by [d]; a zero count is no binding. *)
let bump k d s =
  let n = count k s + d in
  if n = 0 then IntMap.remove k s else IntMap.add k n s

let observes cls op s k =
  let r = snd (op.model s) in
  List.exists
    (fun b ->
      let s' =
        match b with None -> IntMap.remove k s | Some v -> IntMap.add k v s
      in
      snd (op.model s') <> r)
    (None :: List.map Option.some cls.values)

let footprint states w =
  List.concat_map
    (fun s ->
      let s' = fst (w.model s) in
      IntMap.fold
        (fun k _ acc -> if count k s = count k s' then acc else k :: acc)
        (IntMap.union (fun _ a _ -> Some a) s s')
        [])
    states
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* The race                                                            *)

(* Spin until [ready ()]; past a few thousand spins, sleep between polls
   so that a waiter sharing a core with the domain it waits for lets it
   run. *)
let await ready =
  let spins = ref 0 in
  while not (ready ()) do
    incr spins;
    if !spins < 4096 then Domain.cpu_relax () else Unix.sleepf 1e-5
  done

type job = Idle | Run of (unit -> unit) | Stop

(* The helper domain: run each writer handed over through [job]. *)
let rec serve job =
  await (fun () -> Atomic.get job != Idle);
  match Atomic.exchange job Idle with
  | Run w ->
      w ();
      serve job
  | Idle -> serve job
  | Stop -> ()

(* Run [row] parked in a transaction while the helper commits [write];
   the row leaves its park once the write committed, or once the write
   re-ran (it waits on the row).  Returns both attempt counts and both
   results ([Error] if the write raised). *)
let race job t row write =
  let r_att = ref 0 and r_res = ref CS.RUnit in
  let w_att = Atomic.make 0 and w_done = Atomic.make false in
  let w_res = ref (Ok CS.RUnit) in
  let run_write () =
    (w_res :=
       try Ok (Stm.atomic (fun () -> Atomic.incr w_att; write.real t))
       with e -> Error (Printexc.to_string e));
    Atomic.set w_done true
  in
  Stm.atomic (fun () ->
      incr r_att;
      r_res := row.real t;
      if !r_att = 1 then begin
        Atomic.set job (Run run_write);
        await (fun () -> Atomic.get w_done || Atomic.get w_att >= 2)
      end);
  await (fun () -> Atomic.get w_done);
  (!r_att, Atomic.get w_att, !r_res, !w_res)

(* The operation a row belongs to: its name up to its arguments. *)
let op_of name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

let show_state s =
  IntMap.bindings s
  |> List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v)
  |> String.concat "," |> Printf.sprintf "{%s}"

(* Race [row] against [write] on state [s] and check the run. *)
let check cls job ~footprint s row write =
  let t = cls.create s in
  let r_att, w_att, r_res, w_res = race job t row write in
  let serial first second =
    let s1, r1 = first.model s in
    let s2, r2 = second.model s1 in
    (s2, r1, r2)
  in
  let expected =
    if w_att = 1 then
      let s', rw, rr = serial write row in
      Some (s', rr, rw)
    else if r_att = 1 then Some (serial row write)
    else None
  in
  {
    case =
      Printf.sprintf "%s vs %s on %s: row %d attempt(s), write %d" row.name
        write.name (show_state s) r_att w_att;
    row_op = op_of row.name;
    commutes = CS.commutes_by (fun s o -> o.model s) s row write;
    serial =
      (match expected with
      | Some (s', rr, rw) ->
          IntMap.equal Int.equal s' (cls.dump t) && rr = r_res && Ok rw = w_res
      | None -> false);
    aborted = r_att > 1 || w_att > 1;
    unobserved = List.for_all (fun k -> not (observes cls row s k)) footprint;
  }

(* Every case of [cls].  One helper domain serves the whole run: spawning
   a domain per case would cost more than the case. *)
let run cls =
  let states = CS.states_over ~keys:cls.keys ~values:cls.values in
  let job = Atomic.make Idle in
  let helper = Domain.spawn (fun () -> serve job) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set job Stop;
      Domain.join helper)
    (fun () ->
      List.concat_map
        (fun w ->
          let footprint = footprint states w in
          List.concat_map
            (fun r -> List.map (fun s -> check cls job ~footprint s r w) states)
            cls.rows)
        cls.writes)

let violations = List.filter (fun o -> not o.serial)

(* The floor: aborts of writes the row did not observe. *)
let floor_aborts = List.filter (fun o -> o.aborted && o.unobserved)

(* ------------------------------------------------------------------ *)
(* The classes                                                         *)

module Int_hashed = Txcoll.Host.Int_hashed
module M = Txcoll.Host.Map (Int_hashed)
module U = Txcoll.Host.Map_undo (Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module DSet = Txcoll.Host.Set (Int_hashed)
module Bag = Txcoll.Host.Bag (Int_hashed)
module Pq = Txcoll.Host.Priority_queue (Txcoll.Host.Int_ordered)
module Counter = Txcoll.Host.Counter
module Q = Txcoll.Host.Queue

let fmt = Printf.sprintf
let op name model real = { name; model; real }
let read name f real = op name (fun s -> (s, f s)) real

let blind name f real =
  op name (fun s -> (f s, CS.RUnit)) (fun t -> real t; CS.RUnit)

let of_list l = List.fold_left (fun s (k, v) -> IntMap.add k v s) IntMap.empty l
let total s = IntMap.fold (fun _ n acc -> acc + n) s 0
let min_key s = Option.map fst (IntMap.min_binding_opt s)

let take_min s =
  match min_key s with
  | None -> (s, CS.ROpt None)
  | Some k -> (bump k (-1) s, CS.ROpt (Some k))

(* Size counts multiplicities; a set's are all 1. *)
let size_op size =
  read "size" (fun s -> RInt (total s)) (fun t -> RInt (size t))

let is_empty_op is_empty =
  read "isEmpty"
    (fun s -> RBool (IntMap.is_empty s))
    (fun t -> RBool (is_empty t))

(* The map classes: [Commute_spec]'s operations and states. *)
module Map_class (M : sig
  type 'v t

  val find : 'v t -> int -> 'v option
  val mem : 'v t -> int -> bool
  val put : 'v t -> int -> 'v -> 'v option
  val remove : 'v t -> int -> 'v option
  val size : 'v t -> int
  val is_empty : 'v t -> bool
  val to_list : 'v t -> (int * 'v) list
end) =
struct
  let cls ?(ordered = fun _ _ -> assert false) ~rows create =
    let real m : CS.op -> CS.result = function
      | Get k -> ROpt (M.find m k)
      | ContainsKey k -> RBool (M.mem m k)
      | Size -> RInt (M.size m)
      | IsEmpty -> RBool (M.is_empty m)
      | Iterate -> RList (List.sort compare (M.to_list m))
      | Put (k, v) -> ROpt (M.put m k v)
      | Remove k -> ROpt (M.remove m k)
      | (FirstKey | LastKey | SubMapIter _) as o -> ordered m o
    in
    let op o = op (CS.name o) (fun s -> CS.apply s o) (fun m -> real m o) in
    {
      keys = CS.keys;
      values = CS.values;
      create =
        (fun s ->
          let m = create () in
          IntMap.iter (fun k v -> ignore (M.put m k v)) s;
          m);
      dump = (fun m -> of_list (M.to_list m));
      rows = List.map op rows;
      writes = List.map op CS.write_ops;
    }
end

let hashed_rows =
  List.filter
    (function CS.FirstKey | LastKey | SubMapIter _ -> false | _ -> true)
    CS.row_ops

let map =
  let module C = Map_class (M) in
  C.cls ~rows:hashed_rows (fun () -> M.create ())

let undo_map =
  let module C = Map_class (U) in
  C.cls ~rows:hashed_rows U.create

(* Three intervals, one key each, so ranges and endpoints cross them; the
   view endpoints are rows beyond [Commute_spec]'s. *)
let sorted_map =
  let module C = Map_class (SM) in
  let range m lo hi =
    SM.fold_range (fun k v l -> (k, v) :: l) m [] ~lo:(Some lo) ~hi:(Some hi)
  in
  let cls =
    C.cls ~rows:CS.row_ops
      ~ordered:(fun m -> function
        | FirstKey -> ROpt (SM.first_key m)
        | LastKey -> ROpt (SM.last_key m)
        | SubMapIter (lo, hi) -> RList (List.rev (range m lo hi))
        | _ -> assert false)
      (fun () -> SM.create ~splitters:[ 1; 2 ] ())
  in
  let key = Option.map fst in
  let views k =
    [
      read (fmt "tailMap(%d).firstKey" k)
        (fun s -> ROpt (key (IntMap.find_first_opt (fun k' -> k' >= k) s)))
        (fun m -> ROpt (SM.View.first_key (SM.tail_map m ~lo:k)));
      read (fmt "headMap(%d).lastKey" k)
        (fun s -> ROpt (key (IntMap.find_last_opt (fun k' -> k' < k) s)))
        (fun m -> ROpt (SM.View.last_key (SM.head_map m ~hi:k)));
    ]
  in
  { cls with rows = cls.rows @ List.concat_map views [ 1; 2 ] }

(* A set binds each member to 1. *)
let set =
  let add k =
    op (fmt "add(%d)" k)
      (fun s -> (IntMap.add k 1 s, CS.RBool (not (IntMap.mem k s))))
      (fun t -> RBool (DSet.add t k))
  and remove k =
    op (fmt "remove(%d)" k)
      (fun s -> (IntMap.remove k s, CS.RBool (IntMap.mem k s)))
      (fun t -> RBool (DSet.remove t k))
  and mem k =
    read (fmt "contains(%d)" k)
      (fun s -> RBool (IntMap.mem k s))
      (fun t -> RBool (DSet.mem t k))
  in
  let members t = List.map (fun k -> (k, 1)) (DSet.to_list t) in
  {
    keys = CS.keys;
    values = [ 1 ];
    create =
      (fun s ->
        let t = DSet.create () in
        IntMap.iter (fun k _ -> ignore (DSet.add t k)) s;
        t);
    dump = (fun t -> of_list (members t));
    rows =
      List.concat_map (fun k -> [ mem k; add k; remove k ]) CS.keys
      @ [
          size_op DSet.size;
          is_empty_op DSet.is_empty;
          read "iterator"
            (fun s -> RList (IntMap.bindings s))
            (fun t -> RList (List.sort compare (members t)));
        ];
    writes = List.concat_map (fun k -> [ add k; remove k ]) CS.keys;
  }

(* A bag binds each element to its multiplicity. *)
let bag =
  let writes k =
    [
      blind (fmt "add(%d)" k) (bump k 1) (fun t -> Bag.add t k);
      blind (fmt "add_n(%d,2)" k) (bump k 2) (fun t -> Bag.add_n t k 2);
      op (fmt "remove_one(%d)" k)
        (fun s -> (bump k (-min 1 (count k s)) s, CS.RBool (IntMap.mem k s)))
        (fun t -> RBool (Bag.remove_one t k));
    ]
  in
  let reads k =
    [
      read (fmt "count(%d)" k) (fun s -> RInt (count k s)) (fun t ->
          RInt (Bag.count t k));
      read (fmt "mem(%d)" k) (fun s -> RBool (IntMap.mem k s)) (fun t ->
          RBool (Bag.mem t k));
    ]
  in
  {
    keys = CS.keys;
    values = [ 1; 2 ];
    create =
      (fun s ->
        let t = Bag.create () in
        IntMap.iter (Bag.add_n t) s;
        t);
    dump = (fun t -> of_list (Bag.to_list t));
    rows =
      List.concat_map (fun k -> reads k @ writes k) CS.keys
      @ [ size_op Bag.size; is_empty_op Bag.is_empty ];
    writes = List.concat_map writes CS.keys;
  }

(* A priority queue binds each priority to its multiplicity. *)
let priority_queue =
  let insert p = blind (fmt "insert(%d)" p) (bump p 1) (fun t -> Pq.insert t p)
  and poll = op "poll_min" take_min (fun t -> ROpt (Pq.poll_min t)) in
  let count_op p =
    read (fmt "count(%d)" p) (fun s -> RInt (count p s)) (fun t ->
        RInt (Pq.count t p))
  in
  {
    keys = CS.keys;
    values = [ 1; 2 ];
    create =
      (fun s ->
        let t = Pq.create () in
        IntMap.iter (fun p n -> for _ = 1 to n do Pq.insert t p done) s;
        t);
    dump = (fun t -> of_list (Pq.to_list t));
    rows =
      List.concat_map (fun p -> [ count_op p; insert p ]) CS.keys
      @ [
          read "peek_min"
            (fun s -> ROpt (min_key s))
            (fun t -> ROpt (Pq.peek_min t));
          poll;
          size_op Pq.size;
          is_empty_op Pq.is_empty;
        ];
    writes = List.map insert CS.keys @ [ poll ];
  }

(* One key, the sum. *)
let counter =
  let add d = blind (fmt "add(%d)" d) (bump 0 d) (fun t -> Counter.add t d) in
  {
    keys = [ 0 ];
    values = [ 1; 2 ];
    create =
      (fun s ->
        let t = Counter.create ~shards:4 () in
        Counter.add t (count 0 s);
        t);
    dump = (fun t -> bump 0 (Counter.get t) IntMap.empty);
    rows =
      [
        read "get" (fun s -> RInt (count 0 s)) (fun t -> RInt (Counter.get t));
        add 1;
      ];
    writes = [ add 1; add (-1) ];
  }

(* The queue as a multiset of its elements (§3.3), filled in ascending
   order, so its head is the least element; every put adds the greatest
   key, so that stays true.  Its writes are puts only, the columns of
   Table 7: a take is a reduced-isolation write, outside commit-order
   serialisability by design. *)
let queue =
  let put = blind "put(2)" (bump 2 1) (fun t -> Q.put t 2) in
  let rec drain t s =
    match Q.poll t with None -> s | Some k -> drain t (bump k 1 s)
  in
  {
    keys = CS.keys;
    values = [ 1 ];
    create =
      (fun s ->
        let t = Q.create () in
        IntMap.iter (fun k _ -> Q.put t k) s;
        t);
    dump = (fun t -> drain t IntMap.empty);
    rows =
      [
        read "peek" (fun s -> ROpt (min_key s)) (fun t -> ROpt (Q.peek t));
        op "poll" take_min (fun t -> ROpt (Q.poll t));
        put;
      ];
    writes = [ put ];
  }

(* One measurement per class, run on first use. *)
let reports =
  [
    ("map", lazy (run map));
    ("sorted map", lazy (run sorted_map));
    ("undo map", lazy (run undo_map));
    ("set", lazy (run set));
    ("bag", lazy (run bag));
    ("priority queue", lazy (run priority_queue));
    ("counter", lazy (run counter));
    ("queue", lazy (run queue));
  ]

let report name = Lazy.force (List.assoc name reports)
let measure () = List.map (fun (name, r) -> (name, Lazy.force r)) reports

(* Per class and row operation: cases, non-commuting pairs, aborts, and
   aborts of commuting pairs (spurious). *)
let render ppf reports =
  Fmt.pf ppf
    "@.Tables 1/2, 4/5 and 7/8 measured: every (row, write) pair on every \
     small state,@.the row parked in its transaction while the write \
     commits from another domain@.";
  let line name op os =
    let n p = List.length (List.filter p os) in
    Fmt.pf ppf "%-15s %-18s %7d %9d %7d %8d" name op (List.length os)
      (n (fun o -> not o.commutes))
      (n (fun o -> o.aborted))
      (n (fun o -> o.aborted && o.commutes))
  in
  Fmt.pf ppf "%-15s %-18s %7s %9s %7s %8s@." "class" "row op" "cases"
    "conflicts" "aborts" "spurious";
  List.iter
    (fun (name, os) ->
      List.iter
        (fun op ->
          line name op (List.filter (fun o -> o.row_op = op) os);
          Fmt.pf ppf "@.")
        (List.sort_uniq compare (List.map (fun o -> o.row_op) os));
      line name "(all)" os;
      Fmt.pf ppf "   violations %d, unobserved-write aborts %d@."
        (List.length (violations os))
        (List.length (floor_aborts os));
      List.iter
        (fun o -> Fmt.pf ppf "  violation: %s@." o.case)
        (violations os))
    reports
