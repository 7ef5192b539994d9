(* Persistent (immutable) ordered map with a runtime comparator — the
   value type of a semantic shard's version chain.  Every committed state
   of a shard is one immutable tree; publishing a new version shares all
   untouched nodes with its predecessor, so keeping K versions costs
   O(K * depth) copied arrays, not K copies of the shard.

   A B+-tree.  Leaves hold sorted key and value arrays; an inner node
   holds [n] children and the [n - 1] separators between them: child [i]
   holds the keys [k] with [seps.(i-1) <= k < seps.(i)].  Every binding
   lives in a leaf, so a range walk scans arrays and a write copies one
   array per level (two at the leaf for a new key).  The comparator
   travels inside the map so polymorphic instantiations (the collections
   are functors over a runtime key module) need no functor application
   here.

   Removal frees a node only once it is empty ("free-at-empty") and
   merges nothing: an emptied node leaves its parent, and a root with one
   child gives way to that child.  Depth grows only when a full root
   splits; under the insert/remove churn EXPERIMENTS.md measures it stays
   at the depth of the peak size. *)

type ('k, 'v) node =
  | Leaf of 'k array * 'v array
  | Inner of 'k array * ('k, 'v) node array

type ('k, 'v) t = {
  cmp : 'k -> 'k -> int;
  root : ('k, 'v) node;
  card : int;
}

(* Most keys per leaf and children per inner node.  32 against 16: fewer
   levels and leaves per range walk, and less heap per key, for a longer
   array copy per write (EXPERIMENTS.md, "Committed shadows as a
   B+-tree"). *)
let width = 32

let empty_node = Leaf ([||], [||])
let empty ~compare = { cmp = compare; root = empty_node; card = 0 }
let size m = m.card
let is_empty m = m.card = 0

(* Binary search of the sorted [a] for [k]: its index when present, else
   [-1 - i] where [i] is the index of the first element above [k]. *)
let search cmp a k =
  let lo = ref 0 and hi = ref (Array.length a) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp k (Array.unsafe_get a mid) in
    if c = 0 then begin
      found := mid;
      lo := !hi
    end
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  if !found >= 0 then !found else -1 - !lo

(* Elements of [a] below [k], and elements of [a] not above [k]: for an
   inner node's separators, the child whose interval holds [k]. *)
let count_below cmp a k =
  let r = search cmp a k in
  if r >= 0 then r else -1 - r

let count_upto cmp a k =
  let r = search cmp a k in
  if r >= 0 then r + 1 else -1 - r

let rec find_in cmp key = function
  | Leaf (keys, vals) ->
      let r = search cmp keys key in
      if r >= 0 then Some vals.(r) else None
  | Inner (seps, kids) -> find_in cmp key kids.(count_upto cmp seps key)

let find m key = find_in m.cmp key m.root
let mem m key = Option.is_some (find m key)

(* ---------------- path copies ---------------- *)

let set_at a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let remove_at a i =
  let b = Array.sub a 0 (Array.length a - 1) in
  Array.blit a (i + 1) b i (Array.length b - i);
  b

(* One [add]'s state: whether the size grew, and the right half and
   separator of a node that split, for its parent to take in. *)
type ('k, 'v) ins = {
  mutable grew : bool;
  mutable split : bool;
  mutable sep : 'k;
  mutable right : ('k, 'v) node;
}

let split_off s sep right =
  s.split <- true;
  s.sep <- sep;
  s.right <- right

(* [add_in] is top-level, so no closure is allocated per call.  A full
   node taking an entry past its last one stays full and hands a
   one-entry right sibling up: ascending keys pack nodes fully.  Any
   other overflow splits in half. *)
let rec add_in cmp s key value node =
  match node with
  | Leaf (keys, vals) ->
      let r = search cmp keys key in
      if r >= 0 then Leaf (keys, set_at vals r value)
      else begin
        s.grew <- true;
        let i = -1 - r and n = Array.length keys in
        if n < width then Leaf (insert_at keys i key, insert_at vals i value)
        else if i = n then begin
          split_off s key (Leaf ([| key |], [| value |]));
          node
        end
        else
          let keys = insert_at keys i key and vals = insert_at vals i value in
          let h = (n + 1) / 2 in
          split_off s keys.(h)
            (Leaf (Array.sub keys h (n + 1 - h), Array.sub vals h (n + 1 - h)));
          Leaf (Array.sub keys 0 h, Array.sub vals 0 h)
      end
  | Inner (seps, kids) ->
      let i = count_upto cmp seps key in
      let kids = set_at kids i (add_in cmp s key value kids.(i)) in
      if not s.split then Inner (seps, kids)
      else begin
        s.split <- false;
        let n = Array.length kids in
        if n < width then
          Inner (insert_at seps i s.sep, insert_at kids (i + 1) s.right)
        else if i = n - 1 then begin
          split_off s s.sep (Inner ([||], [| s.right |]));
          Inner (seps, kids)
        end
        else
          let seps = insert_at seps i s.sep
          and kids = insert_at kids (i + 1) s.right in
          let h = (n + 1) / 2 in
          split_off s seps.(h - 1)
            (Inner (Array.sub seps h (n - h), Array.sub kids h (n + 1 - h)));
          Inner (Array.sub seps 0 (h - 1), Array.sub kids 0 h)
      end

let add m key value =
  let s = { grew = false; split = false; sep = key; right = empty_node } in
  let root = add_in m.cmp s key value m.root in
  let root =
    if s.split then Inner ([| s.sep |], [| root; s.right |]) else root
  in
  { m with root; card = (if s.grew then m.card + 1 else m.card) }

(* Returns [node] itself when [key] is absent, and [empty_node] when the
   removal empties it. *)
let rec remove_in cmp key node =
  match node with
  | Leaf (keys, vals) ->
      let r = search cmp keys key in
      if r < 0 then node
      else if Array.length keys = 1 then empty_node
      else Leaf (remove_at keys r, remove_at vals r)
  | Inner (seps, kids) ->
      let i = count_upto cmp seps key in
      let kid = kids.(i) in
      let kid' = remove_in cmp key kid in
      if kid' == kid then node
      else if kid' != empty_node then Inner (seps, set_at kids i kid')
      else if Array.length kids = 1 then empty_node
      else Inner (remove_at seps (Int.max 0 (i - 1)), remove_at kids i)

let rec collapse = function
  | Inner (_, [| kid |]) -> collapse kid
  | node -> node

let remove m key =
  let root = remove_in m.cmp key m.root in
  if root == m.root then m
  else { m with root = collapse root; card = m.card - 1 }

(* ---------------- walks ---------------- *)

(* Only the empty root is an empty node, so the edges need no
   comparison. *)
let rec min_in = function
  | Leaf (keys, vals) ->
      if Array.length keys = 0 then None else Some (keys.(0), vals.(0))
  | Inner (_, kids) -> min_in kids.(0)

let rec max_in = function
  | Leaf (keys, vals) ->
      let n = Array.length keys in
      if n = 0 then None else Some (keys.(n - 1), vals.(n - 1))
  | Inner (_, kids) -> max_in kids.(Array.length kids - 1)

let min_binding m = min_in m.root
let max_binding m = max_in m.root

(* The entries a walk over [lo <= k < hi] visits in a node: leaf keys
   [from_key, upto_key], inner children [from_kid, upto_kid]. *)
let from_key cmp keys = function
  | None -> 0
  | Some b -> count_below cmp keys b

let upto_key cmp keys = function
  | None -> Array.length keys - 1
  | Some b -> count_below cmp keys b - 1

let from_kid cmp seps = function None -> 0 | Some b -> count_upto cmp seps b

let upto_kid cmp seps = function
  | None -> Array.length seps
  | Some b -> count_below cmp seps b

(* Range walks search each bound once per level: only the first and last
   child a walk enters get a bound, so the children between them, and the
   leaf entries between the bounds' positions, are visited with no
   further comparison. *)
let rec range_in f cmp lo hi = function
  | Leaf (keys, vals) ->
      for j = from_key cmp keys lo to upto_key cmp keys hi do
        f keys.(j) vals.(j)
      done
  | Inner (seps, kids) ->
      let a = from_kid cmp seps lo and z = upto_kid cmp seps hi in
      for j = a to z do
        range_in f cmp
          (if j = a then lo else None)
          (if j = z then hi else None)
          kids.(j)
      done

let rec range_rev_in f cmp lo hi = function
  | Leaf (keys, vals) ->
      for j = upto_key cmp keys hi downto from_key cmp keys lo do
        f keys.(j) vals.(j)
      done
  | Inner (seps, kids) ->
      let a = from_kid cmp seps lo and z = upto_kid cmp seps hi in
      for j = z downto a do
        range_rev_in f cmp
          (if j = a then lo else None)
          (if j = z then hi else None)
          kids.(j)
      done

(* In-order iteration over keys [k] with [lo <= k < hi] (missing bound =
   unbounded), matching the collections' half-open range views.  [f] may
   raise for early exit. *)
let iter_range f m ~lo ~hi = range_in f m.cmp lo hi m.root

(* [iter_range] in descending key order; raising from [f] after the first
   visit leaves an O(depth) walk. *)
let iter_range_rev f m ~lo ~hi = range_rev_in f m.cmp lo hi m.root

let iter f m = range_in f m.cmp None None m.root

let fold f m init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) m;
  !acc

let to_list m = List.rev (fold (fun k v acc -> (k, v) :: acc) m [])
