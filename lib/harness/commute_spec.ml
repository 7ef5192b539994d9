(* The paper's semantic operational analysis of the Map, SortedMap and
   Channel interfaces, executable: the sequential model and brute-force
   commutativity that {!Commit_order} also uses as its oracle.

   - Tables 1 and 4: under which conditions do Map / SortedMap operations
     conflict (fail to commute)?
   - Table 7: the same for the Channel (queue) interface.

   For every ordered pair (row op, write op) and every small map state we
   check commutativity by brute force (equal final states and equal return
   values in both execution orders) and verify that our transcription of
   the paper's conflict condition matches it exactly.  Whether the shipped
   classes' semantic locks catch every conflict (Tables 2, 5 and 8) is
   measured on the classes themselves by {!Commit_order}.

   Where brute force refines Table 1 (the paper's [get]-vs-[put] condition
   omits overwriting an existing key with a different value), we encode the
   refined condition; the locks of Table 2 cover it, so the implementation
   is unaffected.  EXPERIMENTS.md records the discrepancy. *)

module IntMap = Map.Make (Int)

type state = int IntMap.t

(* ------------------------------------------------------------------ *)
(* Map operations                                                      *)

type op =
  | Get of int
  | ContainsKey of int
  | Size
  | IsEmpty
  | Iterate (* full entrySet enumeration *)
  | FirstKey
  | LastKey
  | SubMapIter of int * int (* lo <= k < hi *)
  | Put of int * int
  | Remove of int

type result =
  | RUnit
  | RInt of int
  | RBool of bool
  | ROpt of int option
  | RList of (int * int) list

let is_write = function Put _ | Remove _ -> true | _ -> false

let name = function
  | Get k -> Printf.sprintf "get(%d)" k
  | ContainsKey k -> Printf.sprintf "containsKey(%d)" k
  | Size -> "size"
  | IsEmpty -> "isEmpty"
  | Iterate -> "entrySet.iterator"
  | FirstKey -> "firstKey"
  | LastKey -> "lastKey"
  | SubMapIter (lo, hi) -> Printf.sprintf "subMap(%d,%d).iterator" lo hi
  | Put (k, v) -> Printf.sprintf "put(%d,%d)" k v
  | Remove k -> Printf.sprintf "remove(%d)" k

let apply (s : state) (o : op) : state * result =
  match o with
  | Get k -> (s, ROpt (IntMap.find_opt k s))
  | ContainsKey k -> (s, RBool (IntMap.mem k s))
  | Size -> (s, RInt (IntMap.cardinal s))
  | IsEmpty -> (s, RBool (IntMap.is_empty s))
  | Iterate -> (s, RList (IntMap.bindings s))
  | FirstKey -> (s, ROpt (Option.map fst (IntMap.min_binding_opt s)))
  | LastKey -> (s, ROpt (Option.map fst (IntMap.max_binding_opt s)))
  | SubMapIter (lo, hi) ->
      (s, RList (IntMap.bindings (IntMap.filter (fun k _ -> k >= lo && k < hi) s)))
  | Put (k, v) -> (IntMap.add k v s, ROpt (IntMap.find_opt k s))
  | Remove k -> (IntMap.remove k s, ROpt (IntMap.find_opt k s))

(* Two operations commute on [s] iff both execution orders produce the same
   final state and the same per-operation results; [apply] is the
   operations' sequential model. *)
let commutes_by apply s a b =
  let s1, ra1 = apply s a in
  let s1, rb1 = apply s1 b in
  let s2, rb2 = apply s b in
  let s2, ra2 = apply s2 a in
  IntMap.equal Int.equal s1 s2 && ra1 = ra2 && rb1 = rb2

let commutes = commutes_by apply

(* ------------------------------------------------------------------ *)
(* The paper's conflict conditions (Tables 1 and 4), with the refinements
   brute force demands.                                                *)

(* Whether write [w] moves the first and the last key of [s]. *)
let endpoint_changes s = function
  | Put (k, _) ->
      let adds = not (IntMap.mem k s) in
      let first =
        adds
        && (match IntMap.min_binding_opt s with
           | None -> true
           | Some (mn, _) -> k < mn)
      in
      let last =
        adds
        && (match IntMap.max_binding_opt s with
           | None -> true
           | Some (mx, _) -> k > mx)
      in
      (first, last)
  | Remove k ->
      let removes = IntMap.mem k s in
      let first =
        removes
        && match IntMap.min_binding_opt s with Some (mn, _) -> k = mn | None -> false
      in
      let last =
        removes
        && match IntMap.max_binding_opt s with Some (mx, _) -> k = mx | None -> false
      in
      (first, last)
  | _ -> (false, false)

let size_changes s = function
  | Put (k, _) -> not (IntMap.mem k s)
  | Remove k -> IntMap.mem k s
  | _ -> false

let key_of_write = function Put (k, _) -> Some k | Remove k -> Some k | _ -> None

(* [expected_conflict s r w]: the transcribed Table 1/4 condition for row
   operation [r] against write operation [w] on state [s].  Write rows have
   their own conditions (Table 1's lower half), since value-returning writes
   read their key and physically update the state. *)
let expected_conflict s r w =
  let wk = Option.get (key_of_write w) in
  let sizes = size_changes s w in
  let first_chg, last_chg = endpoint_changes s w in
  let observable_change () =
    (* The write observably changes the map. *)
    match w with
    | Put (k, v) -> IntMap.find_opt k s <> Some v
    | Remove k -> IntMap.mem k s
    | _ -> false
  in
  match r with
  | ContainsKey k -> wk = k && sizes (* presence flips iff size changes *)
  | Get k -> wk = k && observable_change ()
  | Size -> sizes
  | IsEmpty ->
      let s', _ = apply s w in
      IntMap.is_empty s <> IntMap.is_empty s'
  | Iterate -> observable_change ()
  | FirstKey -> first_chg
  | LastKey -> last_chg
  | SubMapIter (lo, hi) -> wk >= lo && wk < hi && observable_change ()
  | Put (k, v1) -> (
      k = wk
      &&
      match w with
      | Put (_, v2) -> not (v1 = v2 && IntMap.find_opt k s = Some v1)
      | Remove _ -> true
      | _ -> false)
  | Remove k -> (
      k = wk
      &&
      match w with
      | Put _ -> true
      | Remove _ -> IntMap.mem k s
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

let keys = [ 0; 1; 2 ]
let values = [ 10; 20 ]

(* Every state binding each of [keys] to nothing or to one of [values]. *)
let states_over ~keys ~values =
  List.fold_left
    (fun acc k ->
      List.concat_map
        (fun s -> s :: List.map (fun v -> IntMap.add k v s) values)
        acc)
    [ IntMap.empty ] keys

let all_states = states_over ~keys ~values

let read_ops =
  List.concat
    [
      List.map (fun k -> Get k) keys;
      List.map (fun k -> ContainsKey k) keys;
      [ Size; IsEmpty; Iterate; FirstKey; LastKey ];
      [ SubMapIter (0, 2); SubMapIter (1, 3); SubMapIter (0, 3) ];
    ]

(* Rows of Table 1's lower half: writes also appear as rows, since
   value-returning writes read their key. *)
let row_ops =
  read_ops
  @ List.concat
      [
        List.concat_map (fun k -> List.map (fun v -> Put (k, v)) values) keys;
        List.map (fun k -> Remove k) keys;
      ]

let write_ops =
  List.concat
    [
      List.concat_map (fun k -> List.map (fun v -> Put (k, v)) values) keys;
      List.map (fun k -> Remove k) keys;
    ]

type verdict = {
  pair : string;
  cases : int;
  conflicts : int;
  condition_exact : bool; (* expected_conflict == not commutes, everywhere *)
}

let check_pair r w =
  let cases = ref 0 and conflicts = ref 0 and exact = ref true in
  List.iter
    (fun s ->
      incr cases;
      let c = not (commutes s r w) in
      if c then incr conflicts;
      if expected_conflict s r w <> c then exact := false)
    all_states;
  {
    pair = Printf.sprintf "%s vs %s" (name r) (name w);
    cases = !cases;
    conflicts = !conflicts;
    condition_exact = !exact;
  }

let check_all () =
  List.concat_map (fun r -> List.map (fun w -> check_pair r w) write_ops) row_ops

(* Read-only operations always commute (paper: read ops are omitted from the
   columns of Table 1). *)
let reads_commute () =
  List.for_all
    (fun a ->
      List.for_all
        (fun b -> List.for_all (fun s -> commutes s a b) all_states)
        read_ops)
    (List.filter (fun o -> not (is_write o)) read_ops)

(* ------------------------------------------------------------------ *)
(* Channel (queue) operations: Tables 7 and 8                          *)

type qop = QPut of int | QPoll | QPeek

let qname = function
  | QPut v -> Printf.sprintf "put(%d)" v
  | QPoll -> "poll"
  | QPeek -> "peek"

(* The paper's queue drops strict FIFO ordering from the abstract semantics
   (§3.3), so the state is a multiset and element identity is not
   observable: we compare outcomes by final multiset and by the null-ness
   pattern of results.  Takes establish their ordering physically (reduced
   isolation removes the element immediately), so take-vs-take needs no
   semantic conflict; the one remaining conflict is observed emptiness
   invalidated by a committing put (Tables 7/8). *)
let qapply q = function
  | QPut v -> (List.sort Int.compare (v :: q), `NonNull)
  | QPoll -> (
      match q with [] -> ([], `Null) | _ :: rest -> (rest, `NonNull))
  | QPeek -> (q, if q = [] then `Null else `NonNull)

let qcommutes q a b =
  let q1, ra1 = qapply q a in
  let q1, rb1 = qapply q1 b in
  let q2, rb2 = qapply q b in
  let q2, ra2 = qapply q2 a in
  List.length q1 = List.length q2 && ra1 = ra2 && rb1 = rb2

(* Table 7: peek/poll conflict with put iff they observed emptiness; put
   never conflicts with put. *)
let q_expected q a b =
  match (a, b) with QPeek, QPut _ | QPoll, QPut _ -> q = [] | _ -> false

let qstates = [ []; [ 1 ]; [ 1; 2 ] ]

let qcheck_all () =
  List.concat_map
    (fun a ->
      List.map
        (fun b ->
          let ok =
            List.for_all
              (fun q -> qcommutes q a b = not (q_expected q a b))
              qstates
          in
          (Printf.sprintf "%s vs %s" (qname a) (qname b), ok))
        [ QPut 3 ])
    [ QPeek; QPoll; QPut 9 ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render_map_table ppf () =
  let rows = check_all () in
  Fmt.pf ppf "Tables 1 and 4 — conflict conditions@.";
  Fmt.pf ppf "(%d states x %d read ops x %d write ops)@." (List.length all_states)
    (List.length read_ops) (List.length write_ops);
  Fmt.pf ppf "%-44s %8s %10s %6s@." "pair" "cases" "conflicts" "exact";
  List.iter
    (fun v ->
      Fmt.pf ppf "%-44s %8d %10d %6s@." v.pair v.cases v.conflicts
        (if v.condition_exact then "yes" else "NO"))
    rows;
  Fmt.pf ppf "summary: conditions exact everywhere: %b@."
    (List.for_all (fun v -> v.condition_exact) rows)
