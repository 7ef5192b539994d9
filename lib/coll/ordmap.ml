(* AVL tree with a runtime comparator.  The functional core keeps rebalancing
   code small and obviously correct; the mutable wrapper gives the imperative
   interface the wrappers and store buffers expect. *)

type ('k, 'v) node =
  | Leaf
  | Node of { l : ('k, 'v) node; k : 'k; v : 'v; r : ('k, 'v) node; h : int }

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  mutable root : ('k, 'v) node;
  mutable size : int;
}

let height = function Leaf -> 0 | Node { h; _ } -> h

let node l k v r =
  Node { l; k; v; r; h = 1 + Int.max (height l) (height r) }

let balance l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } when height ll >= height lr ->
        node ll lk lv (node lr k v r)
    | Node
        {
          l = ll;
          k = lk;
          v = lv;
          r = Node { l = lrl; k = lrk; v = lrv; r = lrr; _ };
          _;
        } ->
        node (node ll lk lv lrl) lrk lrv (node lrr k v r)
    | _ -> assert false
  else if hr > hl + 1 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } when height rr >= height rl ->
        node (node l k v rl) rk rv rr
    | Node
        {
          l = Node { l = rll; k = rlk; v = rlv; r = rlr; _ };
          k = rk;
          v = rv;
          r = rr;
          _;
        } ->
        node (node l k v rll) rlk rlv (node rlr rk rv rr)
    | _ -> assert false
  else node l k v r

let create ~compare () = { compare; root = Leaf; size = 0 }
let size t = t.size
let is_empty t = t.size = 0

(* Top-level recursions throughout, so a lookup allocates nothing and an
   update only its path copy. *)
let rec find_node cmp key = function
  | Leaf -> Leaf
  | Node { l; k; r; _ } as n ->
      let c = cmp key k in
      if c = 0 then n else find_node cmp key (if c < 0 then l else r)

let find t key =
  match find_node t.compare key t.root with
  | Node { v; _ } -> Some v
  | Leaf -> None

let mem t key = find_node t.compare key t.root != Leaf

let rec add_in t key value = function
  | Leaf ->
      t.size <- t.size + 1;
      node Leaf key value Leaf
  | Node { l; k; v; r; _ } ->
      let c = t.compare key k in
      if c = 0 then node l key value r
      else if c < 0 then balance (add_in t key value l) k v r
      else balance l k v (add_in t key value r)

let add t key value = t.root <- add_in t key value t.root

let find_or_add t key ~copy ~make =
  match find_node t.compare key t.root with
  | Node { v; _ } -> v
  | Leaf ->
      let v = make () in
      add t (copy key) v;
      v

let rec min_node = function
  | Leaf -> None
  | Node { l = Leaf; k; v; _ } -> Some (k, v)
  | Node { l; _ } -> min_node l

let rec max_node = function
  | Leaf -> None
  | Node { r = Leaf; k; v; _ } -> Some (k, v)
  | Node { r; _ } -> max_node r

let min_binding t = min_node t.root
let max_binding t = max_node t.root

let rec remove_min = function
  | Leaf -> Leaf
  | Node { l = Leaf; r; _ } -> r
  | Node { l; k; v; r; _ } -> balance (remove_min l) k v r

(* A subtree the removal leaves alone comes back uncopied. *)
let rec remove_in t key drop x y = function
  | Leaf -> Leaf
  | Node { l; k; v; r; _ } as n ->
      let c = t.compare key k in
      if c = 0 then
        if not (drop x y v) then n
        else begin
          t.size <- t.size - 1;
          match min_node r with
          | None -> l
          | Some (sk, sv) -> balance l sk sv (remove_min r)
        end
      else
        let l' = if c < 0 then remove_in t key drop x y l else l in
        let r' = if c > 0 then remove_in t key drop x y r else r in
        if l' == l && r' == r then n else balance l' k v r'

let remove_if t key drop x y = t.root <- remove_in t key drop x y t.root
let always () () _ = true
let remove t key = remove_if t key always () ()

let above t lo k = match lo with None -> true | Some b -> t.compare k b >= 0
let below t hi k = match hi with None -> true | Some b -> t.compare k b < 0

(* In-order iteration over [lo <= k < hi] (half-open, Java subMap style). *)
let rec range_in f t lo hi = function
  | Leaf -> ()
  | Node { l; k; v; r; _ } ->
      if above t lo k then range_in f t lo hi l;
      if above t lo k && below t hi k then f k v;
      if below t hi k then range_in f t lo hi r

let iter_range f t ~lo ~hi = range_in f t lo hi t.root
let iter f t = range_in f t None None t.root

(* Reverse-order iteration over the same range.  Raising from [f] after
   the first visit costs one root-to-leaf descent, so the last binding
   below [hi] is found in O(log n). *)
let rec range_rev_in f t lo hi = function
  | Leaf -> ()
  | Node { l; k; v; r; _ } ->
      if below t hi k then range_rev_in f t lo hi r;
      if above t lo k && below t hi k then f k v;
      if above t lo k then range_rev_in f t lo hi l

let iter_range_rev f t ~lo ~hi = range_rev_in f t lo hi t.root

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let clear t =
  t.root <- Leaf;
  t.size <- 0

(* Exposed for property tests: structural balance invariant. *)
let check_balanced t =
  let rec go = function
    | Leaf -> 0
    | Node { l; r; h; _ } ->
        let hl = go l and hr = go r in
        assert (abs (hl - hr) <= 1);
        assert (h = 1 + max hl hr);
        h
  in
  ignore (go t.root)
