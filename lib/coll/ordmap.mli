(** A mutable ordered map (AVL tree) with a runtime comparator — the host
    stand-in for [java.util.TreeMap].  Self-balancing rotations are exactly
    the implementation detail whose memory-level conflicts the
    TransactionalSortedMap wrapper hides.  Not thread-safe. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
val compare_key : ('k, 'v) t -> 'k -> 'k -> int
val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit
val min_binding : ('k, 'v) t -> ('k * 'v) option
val max_binding : ('k, 'v) t -> ('k * 'v) option
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

val iter_range :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit
(** In-order over keys [k] with [lo <= k < hi]; a missing bound is
    unbounded. *)

val iter_range_rev :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit
(** [iter_range] in descending key order; [f] may raise for early exit,
    which makes "last binding below [hi]" O(log n). *)

val to_list : ('k, 'v) t -> ('k * 'v) list
val clear : ('k, 'v) t -> unit

val check_balanced : ('k, 'v) t -> unit
(** Asserts the AVL invariants; for tests. *)
