(* kv_hot: transfers between keys of one 65 536-key hash map, with three
   keys in four drawn from a 64-key hot set.  80% of transactions move
   one unit from key a to key b (find both, put a-1 and b+1); 20% find
   both keys read-only.  The only workload with real semantic conflicts:
   it exercises the TM retry, contention and region-wait paths.

   Check: the values sum to 0 and every key is present. *)

module Stm = Tcc_stm.Stm
module M = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let name = "kv_hot"
let n_keys = 65_536
let n_hot = 64
let warm = 1_000
let per_domain = 30_000

type state = int M.t
type input = { transfer : bool array; a : int array; b : int array }

let build ~seed:_ =
  let m = M.create () in
  let chunk = 1024 in
  for c = 0 to (n_keys / chunk) - 1 do
    Stm.atomic (fun () ->
        for k = c * chunk to ((c + 1) * chunk) - 1 do
          M.put_blind m k 0
        done)
  done;
  m

let input ~seed ~domain ~n =
  let hot =
    let r = Random.State.make [| seed; 0x407 |] in
    Array.init n_hot (fun _ -> Random.State.int r n_keys)
  in
  let r = Workload.rng ~seed ~domain 1 in
  let key () =
    if Random.State.int r 4 < 3 then hot.(Random.State.int r n_hot)
    else Random.State.int r n_keys
  in
  let a = Array.make n 0 and b = Array.make n 0 in
  for i = 0 to n - 1 do
    let x = key () in
    let rec other () =
      let y = key () in
      if y = x then other () else y
    in
    a.(i) <- x;
    b.(i) <- other ()
  done;
  { transfer = Array.init n (fun _ -> Random.State.int r 5 < 4); a; b }

let get tr m k =
  match Trace.call tr Trace.map_find (fun () -> M.find m k) with
  | Some v -> v
  | None -> raise Not_found

let run tr m inp i =
  let a = inp.a.(i) and b = inp.b.(i) in
  if inp.transfer.(i) then
    Trace.atomic tr (fun () ->
        let va = get tr m a in
        let vb = get tr m b in
        Trace.call tr Trace.map_put (fun () -> ignore (M.put m a (va - 1)));
        Trace.call tr Trace.map_put (fun () -> ignore (M.put m b (vb + 1))))
  else Trace.atomic tr (fun () -> ignore (get tr m a + get tr m b));
  true

let checks m ~committed:_ =
  [
    ("kv_hot.sum_zero", M.fold (fun _ v acc -> acc + v) m 0 = 0);
    ("kv_hot.size", M.size m = n_keys);
  ]

let replay ~seed:_ (inputs : input array) =
  let h = Coll.Chain_hashmap.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for k = 0 to n_keys - 1 do
    Coll.Chain_hashmap.add h k 0
  done;
  let ops = Array.fold_left (fun n i -> n + (2 * Array.length i.a)) 0 inputs in
  let find () =
    Array.iter
      (fun i ->
        Array.iter (fun k -> ignore (Coll.Chain_hashmap.find h k)) i.a;
        Array.iter (fun k -> ignore (Coll.Chain_hashmap.find h k)) i.b)
      inputs
  in
  let replace () =
    Array.iter
      (fun i ->
        Array.iter (fun k -> Coll.Chain_hashmap.add h k 1) i.a;
        Array.iter (fun k -> Coll.Chain_hashmap.add h k 2) i.b)
      inputs
  in
  [
    ("coll.hashmap_find_ns", Workload.ns_per_op ~ops find);
    ("coll.hashmap_replace_ns", Workload.ns_per_op ~ops replace);
  ]
