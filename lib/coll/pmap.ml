(* Persistent (immutable) balanced map with a runtime comparator — the
   value type of a semantic shard's version chain.  Every committed state
   of a shard is one immutable tree; publishing a new version shares all
   untouched subtrees with its predecessor, so keeping K versions costs
   O(K * log n) extra nodes per commit, not K copies of the shard.

   Plain AVL (height-balanced) with the size cached at the root.  The
   comparator travels inside the map so polymorphic instantiations (the
   collections are functors over a runtime key module) need no functor
   application here. *)

type ('k, 'v) tree =
  | Empty
  | Node of { l : ('k, 'v) tree; k : 'k; v : 'v; r : ('k, 'v) tree; h : int }

type ('k, 'v) t = {
  cmp : 'k -> 'k -> int;
  root : ('k, 'v) tree;
  card : int;
}

let height = function Empty -> 0 | Node { h; _ } -> h

(* [Int.max]: the polymorphic [max] compares through a C call on every
   node. *)
let node l k v r = Node { l; k; v; r; h = 1 + Int.max (height l) (height r) }

let balance l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } ->
        if height ll >= height lr then node ll lk lv (node lr k v r)
        else begin
          match lr with
          | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
              node (node ll lk lv lrl) lrk lrv (node lrr k v r)
          | Empty -> assert false
        end
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } ->
        if height rr >= height rl then node (node l k v rl) rk rv rr
        else begin
          match rl with
          | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
              node (node l k v rll) rlk rlv (node rlr rk rv rr)
          | Empty -> assert false
        end
    | Empty -> assert false
  else node l k v r

let empty ~compare = { cmp = compare; root = Empty; card = 0 }

let size m = m.card
let is_empty m = m.card = 0

(* No local closure: every committed point read of a derived class
   descends here. *)
let rec find_in cmp key = function
  | Empty -> None
  | Node { l; k; v; r; _ } ->
      let c = cmp key k in
      if c = 0 then Some v else find_in cmp key (if c < 0 then l else r)

let find m key = find_in m.cmp key m.root

let mem m key = Option.is_some (find m key)

(* [add_in] and [remove_in] are top-level, so no closure is allocated per
   call; [grew]/[shrank] report whether the size moved. *)
let rec add_in cmp key value grew = function
  | Empty ->
      grew := true;
      Node { l = Empty; k = key; v = value; r = Empty; h = 1 }
  | Node { l; k; v; r; h } ->
      let c = cmp key k in
      if c = 0 then Node { l; k = key; v = value; r; h }
      else if c < 0 then balance (add_in cmp key value grew l) k v r
      else balance l k v (add_in cmp key value grew r)

let add m key value =
  let grew = ref false in
  let root = add_in m.cmp key value grew m.root in
  { m with root; card = (if !grew then m.card + 1 else m.card) }

(* Leftmost binding of a non-empty tree (for deletion by successor). *)
let rec tree_min = function
  | Empty -> None
  | Node { l = Empty; k; v; _ } -> Some (k, v)
  | Node { l; _ } -> tree_min l

let rec tree_max = function
  | Empty -> None
  | Node { r = Empty; k; v; _ } -> Some (k, v)
  | Node { r; _ } -> tree_max r

let rec del_min = function
  | Empty -> assert false
  | Node { l = Empty; r; _ } -> r
  | Node { l; k; v; r; _ } -> balance (del_min l) k v r

let rec remove_in cmp key shrank = function
  | Empty -> Empty
  | Node { l; k; v; r; _ } ->
      let c = cmp key k in
      if c = 0 then begin
        shrank := true;
        match (l, r) with
        | Empty, t | t, Empty -> t
        | _ ->
            let sk, sv = Option.get (tree_min r) in
            balance l sk sv (del_min r)
      end
      else if c < 0 then balance (remove_in cmp key shrank l) k v r
      else balance l k v (remove_in cmp key shrank r)

let remove m key =
  let shrank = ref false in
  let root = remove_in m.cmp key shrank m.root in
  if !shrank then { m with root; card = m.card - 1 } else m

let min_binding m = tree_min m.root
let max_binding m = tree_max m.root

let fold f m init =
  let rec go acc = function
    | Empty -> acc
    | Node { l; k; v; r; _ } -> go (f k v (go acc l)) r
  in
  go init m.root

let iter f m = fold (fun k v () -> f k v) m ()

(* In-order iteration over keys [k] with [lo <= k < hi] (missing bound =
   unbounded), matching the collections' half-open range views.  [f] may
   raise for early exit. *)
let iter_range f m ~lo ~hi =
  let cmp = m.cmp in
  let above k = match lo with None -> true | Some b -> cmp k b >= 0 in
  let below k = match hi with None -> true | Some b -> cmp k b < 0 in
  let rec go = function
    | Empty -> ()
    | Node { l; k; v; r; _ } ->
        if above k then go l;
        if above k && below k then f k v;
        if below k then go r
  in
  go m.root

(* [iter_range] in descending key order; raising from [f] after the first
   visit leaves an O(log n) walk. *)
let iter_range_rev f m ~lo ~hi =
  let cmp = m.cmp in
  let above k = match lo with None -> true | Some b -> cmp k b >= 0 in
  let below k = match hi with None -> true | Some b -> cmp k b < 0 in
  let rec go = function
    | Empty -> ()
    | Node { l; k; v; r; _ } ->
        if below k then go r;
        if above k && below k then f k v;
        if above k then go l
  in
  go m.root

let of_seq ~compare seq =
  Seq.fold_left (fun m (k, v) -> add m k v) (empty ~compare) seq

let to_list m = List.rev (fold (fun k v acc -> (k, v) :: acc) m [])
