type 'v t = {
  mutable buf : 'v option array;
  mutable head : int; (* next dequeue slot *)
  mutable len : int;
}

let create ?(initial_capacity = 16) () =
  { buf = Array.make (max 1 initial_capacity) None; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) None in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let enqueue t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- Some v;
  t.len <- t.len + 1

let peek t = if t.len = 0 then None else t.buf.(t.head)

let dequeue t =
  if t.len = 0 then None
  else begin
    let v = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    v
  end

let push_front t v =
  if t.len = Array.length t.buf then grow t;
  t.head <- (t.head - 1 + Array.length t.buf) mod Array.length t.buf;
  t.buf.(t.head) <- Some v;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod Array.length t.buf) with
    | Some v -> f v
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

(* Drops only the live slots: O(length), whatever the capacity grew to. *)
let clear t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    t.buf.((t.head + i) mod cap) <- None
  done;
  t.head <- 0;
  t.len <- 0
