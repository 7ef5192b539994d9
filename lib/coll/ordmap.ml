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
  Node { l; k; v; r; h = 1 + max (height l) (height r) }

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
let compare_key t = t.compare
let size t = t.size
let is_empty t = t.size = 0

let find t key =
  let rec go = function
    | Leaf -> None
    | Node { l; k; v; r; _ } ->
        let c = t.compare key k in
        if c = 0 then Some v else if c < 0 then go l else go r
  in
  go t.root

let mem t key = Option.is_some (find t key)

let add t key value =
  let added = ref false in
  let rec go = function
    | Leaf ->
        added := true;
        node Leaf key value Leaf
    | Node { l; k; v; r; _ } ->
        let c = t.compare key k in
        if c = 0 then node l key value r
        else if c < 0 then balance (go l) k v r
        else balance l k v (go r)
  in
  t.root <- go t.root;
  if !added then t.size <- t.size + 1

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

let remove t key =
  let removed = ref false in
  let rec go = function
    | Leaf -> Leaf
    | Node { l; k; v; r; _ } ->
        let c = t.compare key k in
        if c < 0 then balance (go l) k v r
        else if c > 0 then balance l k v (go r)
        else begin
          removed := true;
          match min_node r with
          | None -> l
          | Some (sk, sv) -> balance l sk sv (remove_min r)
        end
  and remove_min = function
    | Leaf -> Leaf
    | Node { l = Leaf; r; _ } -> r
    | Node { l; k; v; r; _ } -> balance (remove_min l) k v r
  in
  t.root <- go t.root;
  if !removed then t.size <- t.size - 1

let iter f t =
  let rec go = function
    | Leaf -> ()
    | Node { l; k; v; r; _ } ->
        go l;
        f k v;
        go r
  in
  go t.root

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

(* In-order iteration over [lo <= k < hi] (half-open, Java subMap style). *)
let iter_range f t ~lo ~hi =
  let above_lo k = match lo with None -> true | Some b -> t.compare k b >= 0 in
  let below_hi k = match hi with None -> true | Some b -> t.compare k b < 0 in
  let rec go = function
    | Leaf -> ()
    | Node { l; k; v; r; _ } ->
        if above_lo k then go l;
        if above_lo k && below_hi k then f k v;
        if below_hi k then go r
  in
  go t.root

(* Reverse-order iteration over the same [lo <= k < hi] range.  Raising
   from [f] after the first visit costs one root-to-leaf descent, so the
   last binding below [hi] is found in O(log n). *)
let iter_range_rev f t ~lo ~hi =
  let above_lo k = match lo with None -> true | Some b -> t.compare k b >= 0 in
  let below_hi k = match hi with None -> true | Some b -> t.compare k b < 0 in
  let rec go = function
    | Leaf -> ()
    | Node { l; k; v; r; _ } ->
        if below_hi k then go r;
        if above_lo k && below_hi k then f k v;
        if above_lo k then go l
  in
  go t.root

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
