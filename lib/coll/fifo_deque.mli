(** A growable ring-buffer FIFO with [push_front]: the per-transaction
    record of a derived work queue's puts, in put order, until commit
    draws their keys.  Not thread-safe. *)

type 'v t

val create : ?initial_capacity:int -> unit -> 'v t
val length : 'v t -> int
val is_empty : 'v t -> bool
val enqueue : 'v t -> 'v -> unit
val dequeue : 'v t -> 'v option
val peek : 'v t -> 'v option
val push_front : 'v t -> 'v -> unit
val iter : ('v -> unit) -> 'v t -> unit
val to_list : 'v t -> 'v list
val clear : 'v t -> unit
