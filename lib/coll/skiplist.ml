(* A skip-list sorted map with a runtime comparator — a second "existing
   implementation" for the SortedMap wrapper (the paper cites JDK 6's
   ConcurrentSkipListMap as the contemporary alternative to TreeMap).
   Levels come from a deterministic per-instance PRNG, so behaviour is
   reproducible.  Not thread-safe; the transactional wrapper serialises
   access. *)

let max_level = 16

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  forward : ('k, 'v) node option array;
}

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  head : ('k, 'v) node; (* sentinel; key is never examined *)
  mutable level : int;
  mutable size : int;
  rng : Random.State.t;
}

let create ~compare () =
  {
    compare;
    head =
      {
        key = Obj.magic 0;
        value = Obj.magic 0;
        forward = Array.make max_level None;
      };
    level = 1;
    size = 0;
    rng = Random.State.make [| 0x5C1B |];
  }

let size t = t.size

let random_level t =
  let rec go l =
    if l < max_level && Random.State.bool t.rng then go (l + 1) else l
  in
  go 1

(* Walk down from the top level; [update.(i)] is the rightmost node at level
   [i] whose key is < [key]. *)
let find_predecessors t key =
  let update = Array.make max_level t.head in
  let node = ref t.head in
  for i = t.level - 1 downto 0 do
    let rec advance () =
      match !node.forward.(i) with
      | Some n when t.compare n.key key < 0 ->
          node := n;
          advance ()
      | _ -> ()
    in
    advance ();
    update.(i) <- !node
  done;
  update

(* The same descent without recording the path: the rightmost node whose
   key is < [bound] ([None] = no bound), or the head sentinel when there is
   none.  O(log n) expected, allocation-free. *)
let last_before t bound =
  let before n =
    match bound with None -> true | Some b -> t.compare n.key b < 0
  in
  let rec descend node i =
    if i < 0 then node
    else
      match node.forward.(i) with
      | Some n when before n -> descend n i
      | _ -> descend node (i - 1)
  in
  descend t.head (t.level - 1)

let find t key =
  let update = find_predecessors t key in
  match update.(0).forward.(0) with
  | Some n when t.compare n.key key = 0 -> Some n.value
  | _ -> None

let add t key value =
  let update = find_predecessors t key in
  match update.(0).forward.(0) with
  | Some n when t.compare n.key key = 0 -> n.value <- value
  | _ ->
      let lvl = random_level t in
      if lvl > t.level then begin
        for i = t.level to lvl - 1 do
          update.(i) <- t.head
        done;
        t.level <- lvl
      end;
      let node = { key; value; forward = Array.make lvl None } in
      for i = 0 to lvl - 1 do
        node.forward.(i) <- update.(i).forward.(i);
        update.(i).forward.(i) <- Some node
      done;
      t.size <- t.size + 1

let remove t key =
  let update = find_predecessors t key in
  match update.(0).forward.(0) with
  | Some n when t.compare n.key key = 0 ->
      for i = 0 to Array.length n.forward - 1 do
        match update.(i).forward.(i) with
        | Some n' when n' == n -> update.(i).forward.(i) <- n.forward.(i)
        | _ -> ()
      done;
      while t.level > 1 && t.head.forward.(t.level - 1) = None do
        t.level <- t.level - 1
      done;
      t.size <- t.size - 1
  | _ -> ()

let min_binding t =
  Option.map (fun n -> (n.key, n.value)) t.head.forward.(0)

let max_binding t =
  let n = last_before t None in
  if n == t.head then None else Some (n.key, n.value)

let iter_range f t ~lo ~hi =
  let above k = match lo with None -> true | Some b -> t.compare k b >= 0 in
  let below k = match hi with None -> true | Some b -> t.compare k b < 0 in
  let start =
    match lo with
    | None -> t.head.forward.(0)
    | Some key -> (find_predecessors t key).(0).forward.(0)
  in
  let rec go = function
    | Some n when below n.key ->
        if above n.key then f n.key n.value;
        go n.forward.(0)
    | _ -> ()
  in
  go start

let iter f t = iter_range f t ~lo:None ~hi:None

(* The list is singly linked, so each reverse step is a fresh predecessor
   descent: O(log n) per visited binding and no materialised range. *)
let iter_range_rev f t ~lo ~hi =
  let above k = match lo with None -> true | Some b -> t.compare k b >= 0 in
  let rec go n =
    if n != t.head && above n.key then begin
      f n.key n.value;
      go (last_before t (Some n.key))
    end
  in
  go (last_before t hi)

let to_list t =
  let acc = ref [] in
  iter (fun k v -> acc := (k, v) :: !acc) t;
  List.rev !acc

(* Structural invariants, for property tests: every level is sorted and a
   sublist of the level below; size matches level 0. *)
let check_invariants t =
  for i = 0 to t.level - 1 do
    let rec sorted = function
      | Some n -> (
          match n.forward.(i) with
          | Some n' ->
              assert (t.compare n.key n'.key < 0);
              sorted (Some n')
          | None -> ())
      | None -> ()
    in
    sorted t.head.forward.(i)
  done;
  let rec count acc = function
    | Some n -> count (acc + 1) n.forward.(0)
    | None -> acc
  in
  assert (count 0 t.head.forward.(0) = t.size)
