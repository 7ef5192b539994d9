(** Host software transactional memory with the semantics the paper's
    transactional collection classes require (§4): closed-nested
    transactions with partial rollback, open-nested transactions, commit and
    abort handlers, and program-directed (remote) transaction abort.

    The implementation is a TL2-style optimistic STM: a global version
    clock, versioned write-locks on {!Tvar.t}s, redo logging and commit-time
    read-set validation, with read-version extension so that long-running
    transactions survive unrelated concurrent commits.

    Hot-path representation: the read set is a deduplicating growable array
    (re-reading a tvar is an O(1) no-op), read-version extension re-checks
    each nesting level's reads tvar by tvar, and semantic commit phases are
    serialised per collection region rather than under one global token.

    The hot loop touches no shared mutable state per transaction:
    statistics are sharded per domain and aggregated lazily by
    {!global_stats}, transaction ids are leased to domains in blocks of
    1024, top-level descriptors (with their grow-only
    read/write-set scratch) are pooled in domain-local storage so the retry
    loop is allocation-free, read-only commits skip the global clock and
    all locking entirely, and writer commits advance the clock with at most
    one extra atomic step under contention (GV5-style adoption).

    Robustness layer: jittered backoff between attempts, transaction
    budgets with a typed {!Starved} outcome and a serialised fallback
    ({!serialised}) that committers defer to, exception-safe handler execution aggregating
    failures into {!Handler_failure}, and seeded fault-injection hooks
    ({!Chaos}) — see DESIGN.md "Robustness". *)

exception Aborted
(** Raised out of {!atomic} when the transaction aborted itself via
    {!self_abort} (program-directed self-abort). *)

exception Starved of { attempts : int; elapsed : float }
(** Raised out of {!atomic} when a transaction budget is exhausted before
    the transaction could commit: [attempts] executions were aborted and
    [elapsed] seconds passed (0. when no deadline was set).  Never raised
    unless a {!budget} was supplied. *)

module Monoclock : sig
  val now : unit -> float
  (** Wall-clock seconds clamped to be non-decreasing process-wide.  The
      runtime's elapsed-time computations (admission token-bucket refill,
      budget [max_seconds] timing, the open-loop harness's pacing and
      latency measurements) use this instead of [Unix.gettimeofday]
      directly: a backward NTP step freezes the clock until real time
      catches up, so intervals are never negative.  Exposed for the
      harness and for tests. *)
end

exception Handler_failure of { committed : bool; failures : exn list }
(** One or more commit/abort handlers raised.  Every handler still ran —
    a raising handler cannot skip the rest, so semantic locks and buffers
    of other collections are still applied/released — and the exceptions
    are aggregated here in registration order.  [committed] tells whether
    the transaction's effects are in place ([true]: commit handlers raised
    after the commit point) or rolled back ([false]: abort handlers raised
    during compensation). *)

exception Place_down of { place : int }
(** Failure-domain error of the sharded store ({!Places}): the transaction
    touched place [place] after it was killed — or a recovery replaced the
    place's master generation under the transaction's feet.  It is raised
    from the replication handler's {e prepare} phase, i.e. strictly before
    the commit point, so the transaction aborts cleanly: compensations run,
    no buffer is applied, no replication batch is shipped.

    Retry/redirect semantics: unlike a memory conflict, this is {e not}
    transparently retried by {!atomic} — a dead place stays dead until
    someone recovers it, so blind retry would spin.  The exception
    propagates to the caller, which should treat it like a routing error:
    wait for / trigger [Places.recover], then re-issue the transaction
    (whose effects are guaranteed absent).  Read-only transactions that
    touched the dead place get the same treatment — their reads may predate
    the failover and must not serialise after it. *)

exception Not_quiescent of { in_flight : int }
(** Raised by {!reset_stats} instead of corrupting the aggregated counters:
    [in_flight] top-level transactions were still running somewhere in the
    process when the reset was attempted. *)

type handle
(** Identity of a top-level transaction; the owner recorded in semantic lock
    tables. *)

type budget = { max_retries : int option; max_seconds : float option }
(** Progress budget for one {!atomic} call.  [max_retries = Some m] allows
    [m] retries ([m + 1] executions in total); [max_seconds] is a
    wall-clock deadline checked after each aborted attempt.  Exhaustion
    raises {!Starved} (or runs the [?on_starved] fallback). *)

val atomic : ?budget:budget -> ?on_starved:(unit -> 'a) -> (unit -> 'a) -> 'a
(** [atomic f] runs [f] transactionally.  At top level it retries [f] on
    memory conflicts and remote aborts — waiting a jittered
    [~ 2^min(retries, 12)] cpu-relax spins between attempts — until it
    commits or the [?budget] is exhausted, which raises {!Starved} or, when
    [?on_starved] is given, returns [on_starved ()] instead (typically
    {!serialised}[ f]).  Nested inside another transaction it is a
    closed-nested transaction and the options are ignored: a conflict
    confined to the child rolls back and retries only the child (partial
    rollback).  Exceptions raised by [f] abort the transaction and
    propagate. *)

val closed_nested : (unit -> 'a) -> 'a
(** Alias of {!atomic}: nested transactions are closed by default.  A
    conflict confined to the child rolls back and retries only the child. *)

val open_nested : (unit -> 'a) -> 'a
(** [open_nested f] runs [f] as an open-nested transaction: it commits
    immediately and independently of the enclosing transaction, exposing its
    writes and discarding its read dependencies from the parent's point of
    view.  Commit/abort handlers registered inside migrate to the parent
    when the open transaction commits; its transaction-local values
    ({!Tm_ops.txn_local}) stay valid until those handlers have run. *)

(** {1 Snapshot reads} — the abort-free multi-version read-only mode.

    Writer commits publish every new committed version (tvars and the
    collections' semantic shards) into bounded version chains stamped
    with the commit clock.  [snapshot f] pins a snapshot timestamp once
    and resolves every read inside [f] against the newest chain entry
    [<=] that stamp: no read-set, no validation, no write or region
    locks, no clock interaction on exit — and no possibility of abort,
    including multi-collection and cross-interval sorted-map reads,
    which observe one prefix-consistent committed state. *)

val snapshot : (unit -> 'a) -> 'a
(** [snapshot f] runs [f] as an abort-free snapshot read.  Raises
    [Invalid_argument] when called inside {!atomic} (a transaction's
    store buffer cannot be reconciled with a frozen timestamp), and every
    top-level entry ({!atomic}, {!serialised}, {!open_nested}) raises
    [Invalid_argument] when called inside [f]; nested [snapshot] calls
    share the outer pin.  {!Tvar.set} and mutating collection operations
    inside raise [Invalid_argument].  Counted in {!global_stats} as a
    commit, a read-only commit and a [snapshot_reads]. *)

val in_snapshot : unit -> bool
(** [true] iff the calling thread is inside a {!snapshot} section. *)

val snapshot_stamp : unit -> int
(** The pinned snapshot timestamp (meaningful only {!in_snapshot}). *)

val version_chain_bound : int
(** 2: the length a version chain settles at with no snapshot reader
    pinned — its newest version and the one it replaced, which a reader
    pinned before the newest commit resolves.  Chains grow only while an
    old reader holds its epoch pinned, and are cut back at the next
    publication. *)

val serialised : (unit -> 'a) -> 'a
(** Starvation fallback: run [f] as a top-level transaction while holding
    the process-wide fallback commit region for the whole transaction, so
    at most one serialised transaction is live at a time.  A committer
    that finds it holding a conflicting semantic lock in its prepare phase
    defers to it instead of remote-aborting it ({!remote_abort_outcome}),
    so [~on_starved:(fun () -> serialised f)] after a budget guarantees
    that [f] commits against commit-time semantic conflicts.  The
    guarantee stops there: a write-time abort ([Derive.Eager] policies)
    or a memory-level tvar conflict still aborts and retries it.  Inside a
    transaction it just runs [f] in the enclosing transaction. *)

val on_commit : (unit -> unit) -> unit
(** Register a commit handler on the current nesting level.  Handlers run
    during the top-level commit, after validation; they must not access
    {!Tvar.t}s.  Handlers registered through this region-less entry point
    serialise on a process-wide fallback region; collection classes
    register through {!Tm_ops.on_commit_prepared} with their own region
    plan instead, so their commits only serialise per collection.  Outside
    a transaction the handler runs immediately (auto-commit).  If handlers
    raise, all of them still run and {!Handler_failure}
    [{ committed = true; _ }] is raised after the commit completes. *)

val on_abort : (unit -> unit) -> unit
(** Register a compensating abort handler, run (newest first) if the
    top-level transaction aborts.  Discarded if the registering nested
    transaction aborts, per the paper's handler semantics.  If handlers
    raise, all of them still run and {!Handler_failure}
    [{ committed = false; _ }] is raised in place of the retry. *)

val on_top_abort : (unit -> unit) -> unit
(** Like {!on_abort}, but always registers on the top-level transaction —
    the collection classes' mode, for compensating state that aborts do
    not roll back (semantic locks).  Inside an open-nested transaction the
    handler also runs if that open attempt aborts; otherwise it migrates
    to the parent with the open transaction's other handlers. *)

val self_abort : unit -> 'a
(** Abort the current transaction; {!atomic} raises {!Aborted}. *)

val retry_now : unit -> 'a
(** Abort the current top-level transaction and retry it transparently
    (after contention backoff). *)

val current : unit -> handle
(** The calling thread's top-level transaction.  Outside any transaction,
    a per-domain cached already-committed handle (auto-commit context):
    remote aborts on it report "already committed" and it never owns
    semantic locks, so sharing it across auto-commit operations is safe
    and allocation-free. *)

val in_txn : unit -> bool
val same_txn : handle -> handle -> bool
val txn_id : handle -> int

type remote_abort_outcome =
  | Delivered  (** the abort won the status race; the target will observe it *)
  | Already_aborted  (** the target was already aborting *)
  | Too_late
      (** the target passed its commit point first and serialises before
          the caller *)

val remote_abort_outcome : handle -> remote_abort_outcome
(** Program-directed abort of another transaction, used when semantic
    conflict detection finds a conflicting lock holder.  The
    [Active]/[Committing] status race is resolved deterministically by a
    CAS loop and every outcome is counted in {!global_stats}.

    One progress rule: when the caller is itself inside its commit's
    prepare phase and the target is the live {!serialised} transaction,
    the caller {e defers} instead, raising an internal exception that
    retries the caller with nothing applied (counted in
    [stats.deferrals]).  Callers that hold resources across this call must
    release them in an abort/[Fun.protect] path. *)

val remote_abort : handle -> bool
(** [remote_abort t] is [true] unless the outcome was [Too_late]. *)

val retries : unit -> int
(** Number of times the current top-level transaction has been retried. *)

val read_set_cardinal : unit -> int
(** Number of distinct read entries recorded across the current nesting
    stack (0 outside a transaction).  Deduplication makes this the number
    of distinct tvars read, not the number of {!Tvar.get} calls. *)

(** {1 Fault injection} *)

(** Seeded fault-injection hook points; see {!Tcc_harness.Chaos} for the
    deterministic injector built on them.  The hook is process-global and
    called from STM internals: [Chaos_attempt] at the start of every
    top-level attempt, [Chaos_before_commit] after the transaction body
    and before the commit, [Chaos_in_commit] inside the commit with the
    stamp drawn and the reads validated (on a writing commit: write locks
    held, publication window open, which snapshot pins wait out; before
    the commit point — an exception there aborts cleanly).  Hooks may
    raise (e.g. {!retry_now}), spin, register handlers or deliver
    {!remote_abort}s; they must not block. *)
module Chaos : sig
  type event = Types.chaos_event =
    | Chaos_attempt
    | Chaos_before_commit
    | Chaos_in_commit

  val set_hook : (event -> unit) option -> unit
end

(** {1 Global statistics} — process-wide monotonic counters, kept in
    per-domain cache-padded shards so the hot loop never writes a shared
    cache line; {!global_stats} aggregates them lazily.  Totals are exact
    once the domains that produced them have been joined; a concurrent
    read sees a live (slightly stale but never corrupt) snapshot. *)

type stats = {
  commits : int;  (** top-level transactions committed *)
  read_only_commits : int;
      (** commits that took the read-only fast path: no clock bump, no
          write locks, no commit-region pre-acquisition *)
  conflict_aborts : int;  (** retries from memory-level validation/locking *)
  remote_aborts : int;  (** retries from program-directed (semantic) abort *)
  explicit_aborts : int;  (** {!self_abort} occurrences *)
  starved : int;  (** budget exhaustions ({!Starved} raised or fallback run) *)
  deferrals : int;
      (** commit attempts that deferred to the live {!serialised}
          transaction in prepare instead of remote-aborting it *)
  remote_aborts_delivered : int;  (** {!remote_abort_outcome} = [Delivered] *)
  remote_aborts_late : int;  (** {!remote_abort_outcome} = [Too_late] *)
  handler_failures : int;  (** commit/abort handlers that raised *)
  region_parks : int;
      (** commit-region waits ({!commit_region_waits}) that outlasted the
          bounded spin and parked the domain on the region's mutex *)
  clock_bumps : int;
      (** global version-clock advances (every mutating commit, including
          semantic-only handler commits: version-chain entries need a
          unique stamp) *)
  clock_cas_retries : int;
      (** clock CAS losses settled by adopting the winner's value with a
          single wait-free fetch-and-add — never more than one extra
          atomic step per conflicting bump *)
  snapshot_reads : int;
      (** completed {!snapshot} sections (each also counts as a commit
          and a read-only commit) *)
  versions_reclaimed : int;
      (** version-chain entries reclaimed by epoch-based lazy trimming —
          with {!snapshot_reads}, the observability handle on the
          multi-version memory story *)
}

val global_stats : unit -> stats

val reset_stats : unit -> unit
(** Zero all shards.  {b Precondition: quiescence} — no top-level
    transaction may be in flight on any domain (the normal situation
    between benchmark phases, after spawned domains have been joined).
    Resetting mid-transaction would tear the aggregate (a commit counted
    after the reset against aborts counted before it), so instead of
    silently corrupting the counters the call raises {!Not_quiescent}
    when any domain shard reports an in-flight transaction.  The probe is
    exact for transactions on joined domains and conservative otherwise;
    callers honouring the precondition never see the exception.  The
    in-flight count itself survives the reset — it is a liveness probe,
    not a statistic. *)

val in_flight_transactions : unit -> int
(** Number of top-level transactions currently between their first attempt
    and their final outcome, summed across all domain shards.  0 at
    quiescence; the probe behind {!reset_stats}'s guard. *)

val commit_region_waits : unit -> int
(** Number of semantic-commit region acquisitions that found the region
    held on their first try since the last {!reset_stats} (each then spins
    briefly and parks only if the holder outlasts the spin; parks are
    counted in {!stats.region_parks}) — the contention probe
    for commit sharding: disjoint-collection workloads should keep it at
    zero while shared-collection workloads accumulate waits. *)

val regions_held : unit -> int
(** Number of commit regions currently held across all domains.  Must be 0
    whenever no commit/critical section is executing — the leak probe the
    chaos soak asserts after every run. *)

val retry_histogram : unit -> int array
(** Histogram of retries-to-completion: [h.(b)] completions (commit or
    starvation) whose retry count fell in bucket [b] (bucket 0 = 0
    retries, then power-of-two buckets).  Reset by {!reset_stats}. *)

(** {!Tm_intf.TM_OPS} instance: plugs this STM into the transactional
    collection classes. *)
module Tm_ops : Tm_intf.TM_OPS with type txn = handle
