(** Module types shared between the host software transactional memory
    ({!module:Tcc_stm}) and the simulated TCC hardware transactional memory
    ({!module:Tcc}).  The transactional collection classes are functorised
    over {!module-type:TM_OPS} so that the same semantic-concurrency-control
    code runs on either system, mirroring the paper's claim that the classes
    apply to both hardware and software TM. *)

(** The transactional semantics required by transactional collection classes
    (paper §4): nested transactions (open and closed), commit and abort
    handlers, and program-directed transaction abort. *)
module type TM_OPS = sig
  type txn
  (** Handle on a top-level transaction.  Semantic locks record the top-level
      transaction as owner — not the open-nested transaction that takes the
      lock — because it is the top-level outcome that must release them. *)

  val current : unit -> txn
  (** Top-level transaction of the calling thread.  Outside any transaction,
      returns a fresh handle denoting an auto-commit (single-operation)
      transaction. *)

  val in_txn : unit -> bool
  (** [true] iff the calling thread is executing inside a transaction. *)

  val same_txn : txn -> txn -> bool

  val txn_id : txn -> int
  (** Unique identifier of a top-level transaction attempt, consistent with
      {!same_txn}; keys semantic-lock ownership in the collections' lock
      tables.  Transaction-local state goes through {!txn_local}. *)

  (** {2 Transaction-local state}

      Each collection keeps one value per top-level transaction — store
      buffer, held locks — with one commit and one abort handler (paper
      §5, Table 3).  The TM holds the values; a collection holds only its
      key, so a dropped collection leaves nothing behind. *)

  type 'a local_key

  val new_local_key : unit -> 'a local_key

  val txn_local : 'a local_key -> ('e -> txn -> 'a option -> 'a) -> 'e -> 'a
  (** [txn_local k init env] is the current top-level transaction's value
      for [k].  The first call in a transaction attempt returns
      [init env txn spare], which builds the value and registers its
      handlers; later calls return the same value.  The value belongs to
      the attempt until those handlers have run.  After that the TM drops
      it, or keeps it briefly to offer to a later attempt as [spare], for
      [init] to reset and reuse instead of allocating.  ([env] lets a
      caller pass a closed [init] and allocate nothing per call.)  Values
      registered inside an open-nested transaction stay valid until the
      handlers it passed to its parent have run.  Outside a transaction
      every call is its own auto-commit transaction. *)

  type region
  (** An isolation region protecting one collection's shared transactional
      state (lock tables and the underlying structure).  On the host STM this
      is a mutex standing in for the atomicity that open-nested transactions
      provide; on the simulated TCC machine it is a lock line accessed inside
      a real open-nested hardware transaction. *)

  val new_region : unit -> region

  val critical : region -> (unit -> 'a) -> 'a
  (** [critical r f] runs [f] as an open-nested atomic section on region [r]:
      its effects are immediately visible to all transactions and are {e not}
      rolled back if the enclosing transaction later aborts (compensation is
      the job of abort handlers). *)

  val on_commit_prepared :
    ?read_only:(unit -> bool) ->
    ?regions:(unit -> region list) ->
    region ->
    prepare:(unit -> unit) ->
    apply:(int -> unit) ->
    unit
  (** Two-phase commit handler on region [r], registered on the current
      top-level transaction.  [prepare] runs {e before} the commit point:
      it performs semantic conflict detection only (no mutation) and may
      raise — e.g. {!retry} after losing a semantic race, or defer to a
      higher-priority victim — in which case the transaction aborts cleanly
      with nothing applied.  [apply] runs after the commit point, receiving
      the transaction's {e commit stamp} (the write version the TM's clock
      assigned to this commit; [0] on read-only fast paths, which publish
      nothing): it applies buffered changes, publishes the new committed
      versions of the touched shards into their version chains at that
      stamp, and releases semantic locks.  It is executed under a
      protective wrapper so that a raising handler can never skip another
      handler's application or leak locks.  On TMs without a prepare phase
      the two halves run back-to-back as a single commit handler.

      [read_only], evaluated at commit time by the registering transaction,
      certifies that the handler buffered no mutation: [prepare] would
      detect nothing and [apply] only releases semantic read locks and
      transaction-local state.  A TM may then commit on a read-only fast
      path — no region pre-acquisition, no prepare phase, no version-clock
      advance — running [apply] under the handler's own {!critical}
      sections.  Defaults to "never", which is always safe.

      [apply] is also the replication interception point: because it runs
      exception-safely after the commit point, with the handler's region
      held, and receives the globally unique commit stamp, a handler can
      emit the transaction's buffered effects as a stamped replication-log
      batch (see [Places]) — per-region emission order equals stamp order,
      and a batch exists if and only if the transaction committed, which is
      exactly the durability contract a replica needs.  [prepare] is the
      matching failure-domain gate: raising there (e.g. [Stm.Place_down])
      vetoes the commit before any effect, buffer application or log
      emission included.

      [regions], evaluated once at commit time, is the handler's region
      plan for striped collections: the stripe regions its buffered
      operations and held locks cover.  The commit pre-acquires the
      rid-sorted deduplicated union of all handlers' plans, so commits
      whose plans name disjoint stripes of the {e same} collection proceed
      in parallel.  The plan must cover every region [prepare] and [apply]
      will enter beyond their own nested {!critical} sections in ascending
      rid order.  Defaults to [fun () -> [r]].  A TM without multi-region
      commit (the simulated TCC machine) may ignore it and serialise on
      [r].

      Held regions.  [prepare], and an [apply] that receives a non-zero
      stamp (a write commit), run with every region of every handler's
      plan held, from before the first [prepare] until after the last
      [apply]; a TM that ignores plans runs both halves as one atomic step
      that no other {!critical} section interleaves with.  The handlers
      may therefore touch the state those regions guard without entering
      {!critical} themselves, and state a [prepare] reads stays as read
      until [apply].  An [apply] that receives stamp [0] (the read-only
      fast path) runs with no region held and takes its own {!critical}
      sections. *)

  val on_abort : (unit -> unit) -> unit
  (** Register an abort handler: a compensating action that releases semantic
      locks and clears local buffers when the top-level transaction aborts.
      Inside an open-nested transaction it also runs when that open
      attempt aborts, since the locks it releases were taken in
      {!critical} sections, which no abort rolls back. *)

  val remote_abort : txn -> bool
  (** [remote_abort t] requests the abort of another transaction that holds a
      conflicting semantic lock.  Returns [false] when [t] has already passed
      its commit point (it then serialises before the caller, which is not a
      conflict), [true] when the abort was delivered or [t] was already
      aborted/finished aborting. *)

  val retry : unit -> 'a
  (** Abort the current transaction and retry it transparently (with the
      TM's contention backoff) — the contention-management hook for the
      pessimistic variants of §5.1. *)

  (** {2 Multi-version snapshot reads}

      A TM may offer an abort-free snapshot-read mode: a read-only
      section pins a timestamp once and resolves every read against the
      version chains the collections publish at commit.  The collections
      consult {!in_snapshot} first on every read path and, when inside a
      snapshot, answer from the chain entry newest-[<=] {!snapshot_stamp}
      — no locks, no regions, no store-buffer state.  A TM without
      multi-versioning (the simulated TCC machine) reports
      [in_snapshot () = false] always, and the snapshot paths are never
      taken. *)

  val in_snapshot : unit -> bool
  (** [true] iff the calling thread is inside a snapshot-read section.
      Mutating collection operations must reject this state. *)

  val snapshot_stamp : unit -> int
  (** The pinned snapshot timestamp; meaningful only when
      {!in_snapshot}. *)

  val begin_publish : unit -> int
  (** Open a publication window and draw a fresh commit stamp for a
      mutation committed outside the TM's own commit path (operation-time
      queue takes, abort compensations, non-transactional stores).  The
      window makes the mutation's chain publications atomic with respect
      to snapshot pinning: a reader pinning concurrently either waits the
      window out or pins above the stamp.  Must be called while holding
      the shard's serialising region; pair with {!end_publish}.
      Reentrant (nested windows keep the outermost sample). *)

  val end_publish : unit -> unit
  (** Close the publication window opened by {!begin_publish} — every
      chain entry stamped by it must be published before this. *)

  val reclaim_epoch : unit -> int
  (** Oldest epoch any active or future snapshot reader can still
      resolve; versions shadowed at it are reclaimable (the [min_epoch]
      for [Vchain.publish]).  [max_int] on TMs without snapshots. *)

  val note_reclaimed : int -> unit
  (** Report [n] reclaimed chain entries to the TM's statistics. *)
end
