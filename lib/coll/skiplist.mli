(** A skip-list sorted map with a runtime comparator — an alternative
    underlying implementation for the TransactionalSortedMap wrapper,
    demonstrating that semantic concurrency control needs no knowledge of
    data-structure internals (the paper's ConcurrentSkipListMap reference).
    Deterministic levels; not thread-safe. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
val size : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v option
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit
val min_binding : ('k, 'v) t -> ('k * 'v) option
val max_binding : ('k, 'v) t -> ('k * 'v) option
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

val iter_range :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit

val iter_range_rev :
  ('k -> 'v -> unit) -> ('k, 'v) t -> lo:'k option -> hi:'k option -> unit
(** [iter_range] in descending key order, one O(log n) predecessor descent
    per visited binding; [f] may raise for early exit. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
val check_invariants : ('k, 'v) t -> unit
