(** TransactionalMap (paper §3.1): a map that long-running transactions
    can operate on concurrently without the memory-level conflicts of a
    shared implementation (size fields, bucket collisions).  Conflicts are
    detected on the abstract data type instead: read operations take
    semantic locks (Table 2), writes are buffered per transaction and
    applied by a commit handler that aborts transactions holding locks on
    the abstract state being overwritten.

    All operations may be called inside or outside transactions; outside,
    each operation is its own atomic (auto-commit) transaction.

    Keys are equal when [K.equal] says so; [K.hash] picks their stripe.

    Inside a snapshot read section ([TM.in_snapshot], e.g. [Stm.snapshot]),
    every read operation — point lookups, size/is_empty, folds and cursors
    — resolves against bounded multi-version shadow chains at the pinned
    snapshot stamp: no semantic locks, no critical regions, no conflicts,
    no aborts.  Write operations raise [Invalid_argument] there. *)

(** The map's commutativity spec over keys [K.key] under [K.keying]: a
    write is the binding it installs ([None] = removal), last write wins
    and reads back without a committed read, and an observation weighs
    its presence.  {!Transactional_sorted_map} derives from it under the
    map's comparator. *)
module Spec_with (K : sig
  type key

  val name : string
  val keying : key Derive.keying
end) :
  Derive.SPEC
    with type key = K.key
     and type 'v value = 'v
     and type 'v wop = 'v option

(** The hashed map's spec: [Spec_with] under [K]'s hash and equality.
    {!Transactional_set} derives from it at [unit] values. *)
module Spec (K : Underlying.HASHED) :
  Derive.SPEC
    with type key = K.t
     and type 'v value = 'v
     and type 'v wop = 'v option

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) : sig
  type 'v t

  (** Encoding of [isEmpty] (§5.1 "Alternative semantic locks"). *)
  type isempty_policy =
    | Dedicated
        (** [is_empty] is a primitive operation with its own lock that
            conflicts only when emptiness changes — two
            ["if not (is_empty m) then put"] transactions commute. *)
    | Via_size
        (** [is_empty] derives from [size] and takes the size lock,
            conflicting with every size change (kept for the ablation). *)

  val create :
    ?stripes:int ->
    ?isempty_policy:isempty_policy ->
    ?copy_key:(K.t -> K.t) ->
    unit ->
    'v t
  (** Create an empty map.

      [stripes] (default 16, clamped to [1, 62]) shards the semantic lock
      tables and the committed state into that many key stripes, each
      behind its own critical region: transactions committing disjoint-key
      writes into this one map commit in parallel, while size/isEmpty reads
      and enumerations serialise through a dedicated structure region.
      [stripes = 1] restores a fully serial collection.

      [copy_key] stores independent copies of keys in the shared lock
      table, preventing the §5.1 "leaking uncommitted data" hazard for
      mutable or not-yet-committed key objects (default: identity, correct
      for immutable keys). *)

  val stripe_count : 'v t -> int
  (** Number of key stripes this map was created with. *)

  (** {1 Point operations} *)

  val find : 'v t -> K.t -> 'v option
  (** Takes a key lock (unless served from the transaction's own buffer). *)

  val mem : 'v t -> K.t -> bool

  val put : 'v t -> K.t -> 'v -> 'v option
  (** Buffers the write and returns the previous value — thereby reading the
      key and taking its lock (Table 2). *)

  val remove : 'v t -> K.t -> 'v option

  val put_blind : 'v t -> K.t -> 'v -> unit
  (** §5.1 extension: does not read the previous value, takes no key lock —
      two transactions blind-writing the same key need no ordering. *)

  val remove_blind : 'v t -> K.t -> unit

  val put_if_absent : 'v t -> K.t -> 'v -> 'v
  (** Insert [v] unless the key is bound; returns the residing value. *)

  val update : 'v t -> K.t -> ('v option -> 'v option) -> unit
  (** Read-modify-write under the key lock; [None] removes. *)

  (** {1 Aggregate operations} *)

  val size : 'v t -> int
  (** Takes the size lock: conflicts with any committing size change. *)

  val is_empty : 'v t -> bool
  (** Lock per [isempty_policy]. *)

  val fold : (K.t -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  (** Full enumeration in one atomic step, merging the transaction's buffer:
      takes a key lock on every binding returned plus the size lock. *)

  val iter : (K.t -> 'v -> unit) -> 'v t -> unit
  val to_list : 'v t -> (K.t * 'v) list
  val keys : 'v t -> K.t list
  val values : 'v t -> 'v list

  (** {1 Cursor iteration}

      The incremental iterator of Table 2: [next] takes a key lock on each
      returned binding; the size lock is taken eagerly at cursor creation
      (default, strictly serializable) or, paper-faithfully, only when
      [next] first returns [None] ([`At_exhaustion] — a key committed into
      an already-passed position can then be missed without conflict). *)

  type 'v cursor

  val cursor : ?size_lock:[ `Eager | `At_exhaustion ] -> 'v t -> 'v cursor
  val next : 'v cursor -> (K.t * 'v) option

  (** {1 Introspection} (tests, lock-table traces) *)

  val holds_key_lock : 'v t -> K.t -> bool
  val holds_size_lock : 'v t -> bool
  val holds_isempty_lock : 'v t -> bool

  val outstanding_locks : 'v t -> int
  (** Total semantic locks currently registered; [0] when no transaction is
      mid-flight (lock-leak detector). *)

  val buffered_writes : 'v t -> int
  (** Size of the calling transaction's store buffer; [0] outside a
      transaction. *)

  val snapshot_history_length : 'v t -> int
  (** Longest multi-version shadow chain (over all stripes and the
      structure chain) — reclamation probe: at most 2 (a chain's newest
      version and the one it replaced) once no snapshot reader is pinned
      below the newest versions; 1 on a TM without snapshots. *)

  val key_history_length : 'v t -> K.t -> int
  (** Length of the shadow chain of the stripe holding the key — the one
      chain a writer of only that key publishes to. *)

  val dump_state : Format.formatter -> 'v t -> unit
  (** Live rendering of Table 3's state inventory (committed / shared
      transactional / local transactional state).  The local section shows
      the calling transaction's state, and none outside a transaction. *)
end

(** The undo-logging map of paper §5.1 ("Redo versus undo logging"):
    {!Spec} under {!Derive}'s eager discipline.  A write registers as its
    key's one pending writer — early conflict detection, as undo logging
    requires — aborting the key's readers at once and waiting (by
    retrying) on another writer; readers wait on a pending writer.  It
    keeps its versions in the same store buffer and shadows as the redo
    map, so abort restores nothing.  The redo {!Make} is the default; this
    module makes the design-space comparison executable. *)
module Make_undo (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) : sig
  type 'v t

  val create : unit -> 'v t

  val find : 'v t -> K.t -> 'v option
  (** Retries transparently while another transaction has the key
      written. *)

  val mem : 'v t -> K.t -> bool

  val put : 'v t -> K.t -> 'v -> 'v option
  (** Buffered under an exclusive write lock; aborts foreign readers of
      the key at once and waits (by retrying) on a foreign writer. *)

  val remove : 'v t -> K.t -> 'v option

  val size : 'v t -> int
  (** The committed size plus the calling transaction's own delta. *)

  val is_empty : 'v t -> bool

  val fold : (K.t -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  (** Retries transparently while another transaction has any key
      written. *)

  val iter : (K.t -> 'v -> unit) -> 'v t -> unit
  val to_list : 'v t -> (K.t * 'v) list
  val outstanding_locks : 'v t -> int
  val snapshot_history_length : 'v t -> int
end
