(* Adapters presenting the plain host data structures (lib/coll) through the
   Tm_intf operation signatures, so they can serve as the wrapped "existing
   implementations" of the transactional collection classes. *)

module type HASHED = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Hashed_map_ops (K : HASHED) :
  Tm_intf.HASHED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Chain_hashmap.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Chain_hashmap.t

  let hash = K.hash
  let equal = K.equal

  let create () = Coll.Chain_hashmap.create ~hash:K.hash ~equal:K.equal ()
  let find = Coll.Chain_hashmap.find
  let mem = Coll.Chain_hashmap.mem
  let add = Coll.Chain_hashmap.add
  let remove = Coll.Chain_hashmap.remove
  let size = Coll.Chain_hashmap.size
  let iter = Coll.Chain_hashmap.iter
end

module Ordered_map_ops (K : ORDERED) :
  Tm_intf.SORTED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Ordmap.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Ordmap.t

  let create () = Coll.Ordmap.create ~compare:K.compare ()
  let find = Coll.Ordmap.find
  let mem = Coll.Ordmap.mem
  let add = Coll.Ordmap.add
  let remove = Coll.Ordmap.remove
  let size = Coll.Ordmap.size
  let iter = Coll.Ordmap.iter
  let compare_key = K.compare
  let min_binding = Coll.Ordmap.min_binding
  let max_binding = Coll.Ordmap.max_binding
  let iter_range = Coll.Ordmap.iter_range
  let iter_range_rev = Coll.Ordmap.iter_range_rev
end

module Oa_map_ops (K : HASHED) :
  Tm_intf.HASHED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Oa_hashmap.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Oa_hashmap.t

  let hash = K.hash
  let equal = K.equal

  let create () = Coll.Oa_hashmap.create ~hash:K.hash ~equal:K.equal ()
  let find = Coll.Oa_hashmap.find
  let mem = Coll.Oa_hashmap.mem
  let add = Coll.Oa_hashmap.add
  let remove = Coll.Oa_hashmap.remove
  let size = Coll.Oa_hashmap.size
  let iter = Coll.Oa_hashmap.iter
end

module Skiplist_map_ops (K : ORDERED) :
  Tm_intf.SORTED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Skiplist.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Skiplist.t

  let create () = Coll.Skiplist.create ~compare:K.compare ()
  let find = Coll.Skiplist.find
  let mem = Coll.Skiplist.mem
  let add = Coll.Skiplist.add
  let remove = Coll.Skiplist.remove
  let size = Coll.Skiplist.size
  let iter = Coll.Skiplist.iter
  let compare_key = K.compare
  let min_binding = Coll.Skiplist.min_binding
  let max_binding = Coll.Skiplist.max_binding
  let iter_range = Coll.Skiplist.iter_range
  let iter_range_rev = Coll.Skiplist.iter_range_rev
end

module Deque_ops : Tm_intf.QUEUE_OPS with type 'v t = 'v Coll.Fifo_deque.t =
struct
  type 'v t = 'v Coll.Fifo_deque.t

  let create () = Coll.Fifo_deque.create ()
  let enqueue = Coll.Fifo_deque.enqueue
  let dequeue = Coll.Fifo_deque.dequeue
  let peek = Coll.Fifo_deque.peek
  let is_empty = Coll.Fifo_deque.is_empty
  let length = Coll.Fifo_deque.length
  let push_front = Coll.Fifo_deque.push_front
end
