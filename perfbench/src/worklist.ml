(* worklist: a transactional queue seeded with 4 096 items and a 1 024-key
   counter map.  Each transaction polls an item, increments
   [map[item mod 1024]] and puts a follow-up item.  The only workload on
   the queue's reduced-isolation [poll], its abort compensation (a polled
   item returns to the front when the transaction aborts) and its empty
   lock.

   Checks: the queue still holds 4 096 items, and the counters sum to the
   number of committed transactions. *)

module Stm = Tcc_stm.Stm
module Q = Txcoll.Host.Queue
module M = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let name = "worklist"
let n_items = 4_096
let n_keys = 1_024
let warm = 1_000
let per_domain = 30_000

type state = { q : int Q.t; m : int M.t }

(* The stream is in the queue; a domain's input is its transaction count. *)
type input = int

(* The follow-up of item [x]. *)
let next x = ((x * 25_173) + 13_849) land 0x3FFF_FFFF

let items ~seed =
  let r = Random.State.make [| seed; 0x9e3 |] in
  Array.init n_items (fun _ -> Random.State.bits r)

let build ~seed =
  let q = Q.create () and m = M.create () in
  Stm.atomic (fun () ->
      Array.iter (Q.put q) (items ~seed);
      for k = 0 to n_keys - 1 do
        M.put_blind m k 0
      done);
  { q; m }

let input ~seed:_ ~domain:_ ~n = n

let run tr s _ _ =
  Trace.atomic tr (fun () ->
      match Trace.call tr Trace.queue_poll (fun () -> Q.poll s.q) with
      | None -> false
      | Some x ->
          let k = x land (n_keys - 1) in
          let v =
            match Trace.call tr Trace.map_find (fun () -> M.find s.m k) with
            | Some v -> v
            | None -> 0
          in
          Trace.call tr Trace.map_put (fun () -> ignore (M.put s.m k (v + 1)));
          Trace.call tr Trace.queue_put (fun () -> Q.put s.q (next x));
          true)

let checks s ~committed =
  [
    ("worklist.items_conserved", Q.committed_length s.q = n_items);
    ("worklist.counter_sum", M.fold (fun _ v acc -> acc + v) s.m 0 = committed);
  ]

let replay ~seed (inputs : input array) =
  let ops = Array.fold_left ( + ) 0 inputs in
  let d = Coll.Fifo_deque.create () in
  Array.iter (Coll.Fifo_deque.enqueue d) (items ~seed);
  let h = Coll.Chain_hashmap.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for k = 0 to n_keys - 1 do
    Coll.Chain_hashmap.add h k 0
  done;
  let keys = Array.make ops 0 in
  let pop_push () =
    for j = 0 to ops - 1 do
      match Coll.Fifo_deque.dequeue d with
      | Some x ->
          keys.(j) <- x land (n_keys - 1);
          Coll.Fifo_deque.enqueue d (next x)
      | None -> ()
    done
  in
  let find () = Array.iter (fun k -> ignore (Coll.Chain_hashmap.find h k)) keys in
  let replace () = Array.iter (fun k -> Coll.Chain_hashmap.add h k 1) keys in
  let deque = Workload.ns_per_op ~ops pop_push in
  [
    ("coll.deque_pop_push_ns", deque);
    ("coll.hashmap_find_ns", Workload.ns_per_op ~ops find);
    ("coll.hashmap_replace_ns", Workload.ns_per_op ~ops replace);
  ]
