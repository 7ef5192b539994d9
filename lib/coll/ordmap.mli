(** A mutable ordered map (AVL tree) with a runtime comparator — the host
    stand-in for [java.util.TreeMap].  Self-balancing rotations are exactly
    the implementation detail whose memory-level conflicts the
    TransactionalSortedMap wrapper hides.  Not thread-safe. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit

val find_or_add :
  ('k, 'v) t -> 'k -> copy:('k -> 'k) -> make:(unit -> 'v) -> 'v
(** [k]'s value; when [k] is unbound, binds [copy k] to [make ()] first. *)

val remove_if : ('k, 'v) t -> 'k -> ('a -> 'b -> 'v -> bool) -> 'a -> 'b -> unit
(** [remove_if t k f x y] removes [k]'s binding when [f x y] holds on its
    value.  [f]'s leading arguments travel apart from it, so a caller can
    pass a top-level [f] and allocate no closure. *)

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
