(* A per-domain span buffer for one transaction at a time.

   A span has a kind, a parent (the span open when it started, -1 at the
   top), a start and a stop in nanoseconds.  Spans are opened and closed
   in nesting order by the domain that owns the buffer.  An exception
   that escapes a traced call leaves its span open; [seal] closes it at
   its parent's stop.  A span's self time is its duration minus the part
   of it that its children cover. *)

type t = {
  mutable n : int;
  mutable cur : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let create () =
  let cap = 64 in
  {
    n = 0;
    cur = -1;
    kind = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Array.make cap 0;
    stop = Array.make cap (-1);
  }

let clear t =
  t.n <- 0;
  t.cur <- -1

let grow t =
  let ext a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.kind <- ext t.kind 0;
  t.parent <- ext t.parent (-1);
  t.start <- ext t.start 0;
  t.stop <- ext t.stop (-1)

let open_ t kind ~now =
  if t.n = Array.length t.kind then grow t;
  let i = t.n in
  t.kind.(i) <- kind;
  t.parent.(i) <- t.cur;
  t.start.(i) <- now;
  t.stop.(i) <- -1;
  t.cur <- i;
  t.n <- i + 1;
  i

let close t i ~now =
  t.stop.(i) <- now;
  t.cur <- t.parent.(i)

(* Close every span left open by an exception at its parent's stop (a
   parent always has a smaller index, so it is sealed first); an open
   root gets zero duration. *)
let seal t =
  for i = 0 to t.n - 1 do
    if t.stop.(i) < 0 then
      t.stop.(i) <-
        (let p = t.parent.(i) in
         if p >= 0 then max t.start.(i) t.stop.(p) else t.start.(i))
  done

let duration t i = t.stop.(i) - t.start.(i)

let children t i =
  let acc = ref [] in
  for j = t.n - 1 downto i + 1 do
    if t.parent.(j) = i then acc := j :: !acc
  done;
  !acc

(* Duration of [i] minus the union of its children's intervals, each
   clipped to [i]'s own interval. *)
let self_ns t i =
  let lo = t.start.(i) and hi = t.stop.(i) in
  let ivs =
    List.filter_map
      (fun j ->
        let a = max lo t.start.(j) and b = min hi t.stop.(j) in
        if b > a then Some (a, b) else None)
      (children t i)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, lo) ivs
  in
  hi - lo - covered
