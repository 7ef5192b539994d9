type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mutable buckets : ('k * 'v) list array;
  mutable size : int;
}

let create ?(initial_capacity = 16) ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
  let cap = max 1 initial_capacity in
  { hash; equal; buckets = Array.make cap []; size = 0 }

let index t k = t.hash k land max_int mod Array.length t.buckets
let size t = t.size
let is_empty t = t.size = 0

(* Top-level recursions throughout, so a lookup allocates nothing and an
   update only the bucket prefix it rebuilds. *)
let rec suffix equal k = function
  | (k', _) :: rest as l -> if equal k k' then l else suffix equal k rest
  | [] -> []

let find t k =
  match suffix t.equal k t.buckets.(index t k) with
  | (_, v) :: _ -> Some v
  | [] -> None

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun ((k, _) as binding) ->
         let i = index t k in
         t.buckets.(i) <- binding :: t.buckets.(i)))
    old

let insert t i k v =
  t.buckets.(i) <- (k, v) :: t.buckets.(i);
  t.size <- t.size + 1;
  if t.size > 3 * Array.length t.buckets / 4 then resize t

(* The bucket without [k]'s binding if [drop x y] holds on its value. *)
let rec drop_if equal k drop x y = function
  | ((k', v) as b) :: rest as l ->
      if equal k k' then if drop x y v then rest else l
      else
        let r = drop_if equal k drop x y rest in
        if r == rest then l else b :: r
  | [] -> []

let always () () _ = true

let drop_at t i k drop x y =
  let bucket = t.buckets.(i) in
  let rest = drop_if t.equal k drop x y bucket in
  if rest != bucket then begin
    t.buckets.(i) <- rest;
    t.size <- t.size - 1
  end

(* A replaced binding moves to the front of its bucket. *)
let add t k v =
  let i = index t k in
  drop_at t i k always () ();
  insert t i k v

let find_or_add t k ~copy ~make =
  let i = index t k in
  match suffix t.equal k t.buckets.(i) with
  | (_, v) :: _ -> v
  | [] ->
      let v = make () in
      insert t i (copy k) v;
      v

let remove_if t k drop x y = drop_at t (index t k) k drop x y
let remove t k = remove_if t k always () ()

(* Top-level recursions, so a walk allocates nothing of its own. *)
let rec iter_bucket f = function
  | [] -> ()
  | (k, v) :: rest ->
      f k v;
      iter_bucket f rest

let iter f t =
  let b = t.buckets in
  for i = 0 to Array.length b - 1 do
    iter_bucket f b.(i)
  done

let rec fold_bucket f l acc =
  match l with [] -> acc | (k, v) :: rest -> fold_bucket f rest (f k v acc)

let rec fold_buckets f b i acc =
  if i = Array.length b then acc
  else fold_buckets f b (i + 1) (fold_bucket f b.(i) acc)

let fold f t init = fold_buckets f t.buckets 0 init

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.size <- 0
