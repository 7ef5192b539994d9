(** Persistent ordered map with a runtime comparator: the value type of a
    semantic shard's version chain.  Each committed shard state is one
    immutable B+-tree whose leaves hold sorted key and value arrays;
    successive versions share untouched nodes.  A write copies one array
    per level; a range walk searches each bound once per level, then scans
    leaf arrays.  Keys ascending from the right edge pack leaves fully.
    Removal drops emptied nodes and merges nothing else. *)

type ('k, 'v) t

val empty : compare:('k -> 'k -> int) -> ('k, 'v) t
val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) t
(** Insert or replace; O(log n), shares untouched nodes.  Replacing keeps
    the stored key (and the leaf's key array) and binds the new value. *)

val remove : ('k, 'v) t -> 'k -> ('k, 'v) t
val min_binding : ('k, 'v) t -> ('k * 'v) option
val max_binding : ('k, 'v) t -> ('k * 'v) option
val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

val iter_range :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit
(** In-order over [lo <= k < hi] (missing bound = unbounded); [f] may
    raise for early exit. *)

val iter_range_rev :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit
(** [iter_range] in descending key order; [f] may raise for early exit,
    which makes "last binding below [hi]" O(log n). *)

val to_list : ('k, 'v) t -> ('k * 'v) list
