(** TransactionalSortedMap (paper §3.2): extends the TransactionalMap design
    to the [SortedMap] abstract data type — ordered iteration, range views
    ([subMap]/[headMap]/[tailMap]) and first/last endpoints — with the
    semantic locks of Table 5: range locks over iterated spans and
    first/last locks on the endpoints, so that a put or remove conflicts
    exactly with the transactions whose ordered observations it
    invalidates.

    Inside a snapshot read section ([TM.in_snapshot], e.g. [Stm.snapshot]),
    every read operation — point lookups, size/is_empty, first/last,
    range folds, views and cursors, across interval boundaries included —
    resolves against bounded multi-version shadow chains at the pinned
    snapshot stamp: no semantic locks, no critical regions, no conflicts,
    no aborts.  Write operations raise [Invalid_argument] there. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.ORDERED) : sig
  type 'v t

  val create :
    ?splitters:K.t list -> ?copy_key:(K.t -> K.t) -> unit -> 'v t
  (** [splitters] cuts the key space into B = [length splitters + 1]
      ordered intervals (sorted and deduplicated internally, clamped to 61
      cut points), each owning its own committed sub-map, commit region and
      key/range lock tables: point operations and range scans of disjoint
      intervals proceed in parallel, and a writer's commit plan names only
      the intervals its buffered keys and locked ranges touch (plus the
      structure region on presence changes; a commit that may remove a key
      plans every region, for the endpoint rescan).  The default (no
      splitters) is a single interval. *)

  val compare_key : K.t -> K.t -> int

  val stripe_count : 'v t -> int
  (** Number of intervals B. *)

  (** {1 Point operations} (as TransactionalMap) *)

  val find : 'v t -> K.t -> 'v option
  val mem : 'v t -> K.t -> bool
  val put : 'v t -> K.t -> 'v -> 'v option
  val remove : 'v t -> K.t -> 'v option
  val put_blind : 'v t -> K.t -> 'v -> unit
  val remove_blind : 'v t -> K.t -> unit
  val size : 'v t -> int
  val is_empty : 'v t -> bool

  (** {1 Ordered access} *)

  val first_binding : 'v t -> (K.t * 'v) option
  (** Takes the first lock; conflicts with commits that change the
      minimum. *)

  val last_binding : 'v t -> (K.t * 'v) option
  val first_key : 'v t -> K.t option
  val last_key : 'v t -> K.t option

  val fold_range :
    (K.t -> 'v -> 'acc -> 'acc) ->
    'v t ->
    'acc ->
    lo:K.t option ->
    hi:K.t option ->
    'acc
  (** In-order fold over [lo <= k < hi] (half-open, Java [subMap] style),
      merging the transaction's sorted store buffer.  Takes a range lock
      over the span, plus the first lock when [lo = None] and the last lock
      when [hi = None]. *)

  val fold : (K.t -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val iter : (K.t -> 'v -> unit) -> 'v t -> unit
  val to_list : 'v t -> (K.t * 'v) list

  (** {1 Views} — mutable [SortedMap] views as in Java *)

  type 'v view

  val sub_map : 'v t -> lo:K.t -> hi:K.t -> 'v view
  val head_map : 'v t -> hi:K.t -> 'v view
  val tail_map : 'v t -> lo:K.t -> 'v view

  module View : sig
    val find : 'v view -> K.t -> 'v option
    val mem : 'v view -> K.t -> bool

    val put : 'v view -> K.t -> 'v -> 'v option
    (** @raise Invalid_argument outside the view's bounds. *)

    val remove : 'v view -> K.t -> 'v option
    val fold : (K.t -> 'v -> 'acc -> 'acc) -> 'v view -> 'acc -> 'acc
    val iter : (K.t -> 'v -> unit) -> 'v view -> unit
    val to_list : 'v view -> (K.t * 'v) list
    val size : 'v view -> int

    val is_empty : 'v view -> bool
    (** [first_binding v = None], with its locks: a range lock over the
        whole view when it is empty. *)

    val first_binding : 'v view -> (K.t * 'v) option
    (** Reveals the absence of keys in [lo, found): takes a range lock over
        that prefix and a key lock on the found key.  O(log n) in every read
        mode. *)

    val last_binding : 'v view -> (K.t * 'v) option
    (** The mirror image: a range lock over [found, hi) and a key lock on
        the found key (a range lock over the whole view when it is empty).
        O(log n) in every read mode. *)

    val first_key : 'v view -> K.t option
    val last_key : 'v view -> K.t option
  end

  (** {1 Ordered cursor} — the incremental iterator of Table 5: each [next]
      extends the range lock over the observed span and key-locks the
      returned binding, so inserts behind the cursor conflict while inserts
      ahead of it commute (and are observed live); exhaustion locks the
      remaining span, plus the last lock when unbounded. *)

  type 'v cursor

  val cursor : ?lo:K.t -> ?hi:K.t -> 'v t -> 'v cursor
  val cursor_next : 'v cursor -> (K.t * 'v) option

  (** {1 Introspection} *)

  val holds_key_lock : 'v t -> K.t -> bool
  val holds_size_lock : 'v t -> bool
  val holds_range_lock : 'v t -> bool
  val holds_first_lock : 'v t -> bool
  val holds_last_lock : 'v t -> bool
  val outstanding_locks : 'v t -> int

  val outstanding_range_locks : 'v t -> int
  (** Number of (range, owner) pairs currently registered across all
      interval stripes.  Ranges coalesce on insertion, so a cursor sweeping
      an interval incrementally holds a bounded count (the regression test
      for unbounded range-lock growth); a range overlapping several
      intervals counts once per overlapped stripe. *)

  val commit_plan_size : 'v t -> int
  (** Number of commit regions the calling transaction's commit would plan
      right now.  Meaningful only inside a transaction; compare against
      [all_region_count] to check that interval-local writers do not plan
      the whole map. *)

  val all_region_count : 'v t -> int
  (** Size of the full region plan (structure region + every interval). *)

  val snapshot_history_length : 'v t -> int
  (** Longest multi-version shadow chain (over all interval shards and the
      structure chain) — reclamation probe: at most 2 (a chain's newest
      version and the one it replaced) once no snapshot reader is pinned
      below the newest versions; 1 on a TM without snapshots. *)

  val dump_state : Format.formatter -> 'v t -> unit
  (** Live rendering of Table 6's state inventory; the local section shows
      the calling transaction's state, and none outside a transaction. *)
end
