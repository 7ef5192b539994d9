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

let find t k =
  let rec scan = function
    | [] -> None
    | (k', v) :: rest -> if t.equal k k' then Some v else scan rest
  in
  scan t.buckets.(index t k)

let mem t k = Option.is_some (find t k)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun ((k, _) as binding) ->
         let i = index t k in
         t.buckets.(i) <- binding :: t.buckets.(i)))
    old

let add t k v =
  let i = index t k in
  let rec replace = function
    | [] -> None
    | (k', _) :: rest when t.equal k k' -> Some ((k, v) :: rest)
    | b :: rest -> Option.map (fun r -> b :: r) (replace rest)
  in
  match replace t.buckets.(i) with
  | Some bucket -> t.buckets.(i) <- bucket
  | None ->
      t.buckets.(i) <- (k, v) :: t.buckets.(i);
      t.size <- t.size + 1;
      if t.size > 3 * Array.length t.buckets / 4 then resize t

let remove t k =
  let i = index t k in
  let rec drop = function
    | [] -> None
    | (k', _) :: rest when t.equal k k' -> Some rest
    | b :: rest -> Option.map (fun r -> b :: r) (drop rest)
  in
  match drop t.buckets.(i) with
  | Some bucket ->
      t.buckets.(i) <- bucket;
      t.size <- t.size - 1
  | None -> ()

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

let to_list t = fold (fun k v acc -> (k, v) :: acc) t []

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.size <- 0
