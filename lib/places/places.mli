(** Resilient places: a replicated, recoverable sharded store.

    The transactional key space [0, key_space) is partitioned into P
    contiguous intervals, each owned by a {e place} — the x10
    [LocalStore]/[MasterStore]/[SlaveStore] blueprint, domain-hosted first
    but process-ready by design (replication batches are pure data).  A
    place hosts one master {!Txcoll} hash map and one master sorted map
    over its interval; every committed mutation is emitted from the
    collections' exception-safe [on_commit_prepared] apply phase as a
    replication-log batch into the paired slave's inbox, in commit-stamp
    order, and applied to the slave replica either {e eagerly}
    (synchronously, inside the commit's place region) or {e lazily}
    (bounded lag, drained by a background domain with committer-side
    backpressure at the bound).

    Failure domain: {!kill} marks a place down — every transactional
    operation (and any in-flight transaction that already touched the
    place) fails with {!Tcc_stm.Stm.Place_down}, raised from the
    replication handler's prepare phase, i.e. strictly before the commit
    point, so nothing is applied and nothing is shipped.  {!recover}
    rebuilds the place from its slave: drain the shipped tail into the
    replica (replay), promote the replica into fresh master collections
    (re-registering their semantic lock shards), and install the new
    master generation under the place's region with a fresh epoch stamp.
    Committed writes are never lost: a transaction reports commit only
    after its batch is in the slave-owned inbox, which survives the
    master.

    Snapshot readers ({!Tcc_stm.Stm.snapshot}) keep running through
    failover: a killed place's master is frozen — its chains still
    resolve any pin taken before or during the outage — and a pin taken
    after recovery reads the promoted generation.  Only a reader whose
    pin predates the promoted generation's epoch is refused (the history
    it needs died with the old master): it observes {!Tcc_stm.Stm.Place_down}
    and re-pins. *)

type mode =
  | Eager  (** replicate inside the commit, before the committer returns *)
  | Lazy of { max_lag : int }
      (** replicate in the background; a committer finding more than
          [max_lag] pending batches drains synchronously (backpressure),
          so the lag bound holds even if the drainer stalls *)

type 'v t
(** A sharded store with ['v] values under [int] keys. *)

val create :
  ?place_count:int ->
  ?key_space:int ->
  ?mode:mode ->
  ?background:bool ->
  ?stripes:int ->
  unit ->
  'v t
(** [create ()] builds a store of [place_count] (default 4, at least 1)
    places over keys [0, key_space) (default 1024), replicating
    per [mode] (default [Eager]).  [stripes] (default 8) is forwarded to
    each place's master hash map.  With [Lazy] mode and [background]
    (default [true]), a drainer domain is spawned; {!close} must be called
    to join it. *)

val close : 'v t -> unit
(** Stop and join the background drainer (if any) and drain every inbox.
    The store remains usable afterwards (replication falls back to
    committer-side draining). *)

val place_count : 'v t -> int
val key_space : 'v t -> int
val mode : 'v t -> mode

val place_of_key : 'v t -> int -> int
(** The place owning a key.  Raises [Invalid_argument] outside
    [0, key_space). *)

(** {1 Hash-map operations}

    Callable inside a transaction (joining it: cross-place writes commit
    atomically), inside {!Tcc_stm.Stm.snapshot} (reads only), or outside
    (auto-commit: the operation runs in its own transaction).  All raise
    {!Tcc_stm.Stm.Place_down} per the failure-domain rules above. *)

val find : 'v t -> int -> 'v option
val mem : 'v t -> int -> bool
val put : 'v t -> int -> 'v -> 'v option
val remove : 'v t -> int -> 'v option
val size : 'v t -> int
val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
val to_list : 'v t -> (int * 'v) list

(** {1 Sorted-map operations}

    Same calling modes.  Because places own contiguous key intervals,
    ascending per-place enumeration concatenates into a globally ascending
    enumeration. *)

val sorted_find : 'v t -> int -> 'v option
val sorted_put : 'v t -> int -> 'v -> 'v option
val sorted_remove : 'v t -> int -> 'v option
val sorted_size : 'v t -> int
val sorted_to_list : 'v t -> (int * 'v) list

(** {1 Failure domain} *)

val kill : 'v t -> int -> unit
(** Mark a place down, as a crash would.  Serialises with in-flight
    commits on the place's region: a commit that already passed its
    prepare check finishes shipping first; everything later aborts with
    {!Tcc_stm.Stm.Place_down} before its commit point.  Idempotent.  Must
    be called outside transactions and snapshots. *)

val recover : 'v t -> int -> unit
(** Rebuild a down place from its slave replica: replay the shipped tail,
    promote the replica into fresh master collections, install them as a
    new generation with a fresh epoch stamp, and mark the place up.
    No-op when the place is up.  Must be called outside transactions and
    snapshots. *)

val is_up : 'v t -> int -> bool

val generation : 'v t -> int -> int
(** Number of times the place has been promoted (0 initially). *)

(** {1 Replication introspection} *)

val drain : 'v t -> unit
(** Synchronously apply every pending replication batch of every place to
    its replica. *)

val replication_lag : 'v t -> int
(** Maximum number of pending (shipped, not yet replica-applied) batches
    over all places right now.  0 after {!drain} at quiescence. *)

val place_lag : 'v t -> int -> int

val max_lag_observed : 'v t -> int
(** High-water mark of the post-ship pending-batch count over the store's
    lifetime.  Bounded by [max_lag] in [Lazy] mode (backpressure) and 0 in
    [Eager] mode — the CI-gated bound. *)

val lag_bound : 'v t -> int option
(** [Some max_lag] in [Lazy] mode, [None] ([= 0]) in [Eager] mode. *)

val batches_shipped : 'v t -> int
val batches_applied : 'v t -> int

val replica_agrees : 'v t -> bool
(** Drains, then structurally compares every up place's master map and
    sorted map against its replica — the replication-correctness probe
    used by tests and the failover soak.  [false] if any place is down.
    Uses polymorphic equality on values; call at quiescence. *)

(** {1 Leak probes} *)

val outstanding_locks : 'v t -> int
(** Semantic locks registered across all current master collections; 0
    when no transaction is mid-flight. *)

val snapshot_history_length : 'v t -> int
(** Longest multi-version shadow chain over all current master
    collections — the reclamation probe: converges back to at most
    [Stm.version_chain_bound] (a chain's newest version and the one it
    replaced) after recovery once no pinned reader holds an old epoch
    (dead generations are unreachable and simply collected). *)
