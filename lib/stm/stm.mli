(** Host software transactional memory with the semantics the paper's
    transactional collection classes require (§4): closed-nested
    transactions with partial rollback, open-nested transactions, commit and
    abort handlers, and program-directed (remote) transaction abort.

    The implementation is a TL2-style optimistic STM: a global version
    clock, versioned write-locks on {!Tvar.t}s, redo logging and commit-time
    read-set validation, with read-version extension so that long-running
    transactions survive unrelated concurrent commits.

    Hot-path representation: the read set is a deduplicating growable array
    (re-reading a tvar is an O(1) no-op), read-version extension validates
    incrementally from a per-level high-water mark using a global ring of
    recently committed write sets (falling back to a full rescan whenever
    the ring cannot prove the validated prefix untouched), and semantic
    commit phases are serialised per collection region rather than under
    one global token.

    The hot loop touches no shared mutable state per transaction:
    statistics are sharded per domain and aggregated lazily by
    {!global_stats}, transaction ids and priority tickets are leased to
    domains in blocks of 1024, top-level descriptors (with their grow-only
    read/write-set scratch) are pooled in domain-local storage so the retry
    loop is allocation-free, read-only commits skip the global clock and
    all locking entirely, and writer commits advance the clock with at most
    one extra atomic step under contention (GV5-style adoption).

    Robustness layer: pluggable contention management ({!Contention}),
    transaction budgets with a typed {!Starved} outcome and a serialised
    fallback ({!serialised}), exception-safe handler execution aggregating
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

exception Overloaded
(** Raised out of {!Admission.run} when the admission gate is closed (no
    token available, or the admitted transaction starved) and the overload
    policy is [Shed]: the request is rejected without running.  Counted in
    {!global_stats} as a [shed].  Never raised by plain {!atomic}. *)

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

(** {1 Contention management} *)

module Contention : sig
  type policy = Types.cm_policy =
    | Backoff of { base : int; max_exp : int; jitter : bool }
        (** Jittered (or plain) exponential backoff: wait
            [~ base * 2^min(retries, max_exp)] cpu-relax spins between
            attempts.  The default, matching the seed behaviour plus
            jitter. *)
    | Karma
        (** Priority accumulation: a committer defers (retries itself)
            rather than remote-aborting a transaction that has accumulated
            more retries than it — work done is karma.  Linear, bounded
            backoff between attempts. *)
    | Greedy
        (** Timestamp priority: every top-level [atomic] call draws one
            monotonic start ticket kept across its retries; a committer
            defers to any older transaction instead of remote-aborting it.
            The oldest transaction in the system is never deferred-to nor
            semantically aborted, so it eventually commits: starvation
            freedom for semantic conflicts. *)

  val default : policy
  (** [Backoff { base = 1; max_exp = 12; jitter = true }]. *)

  val set_global : policy -> unit
  (** Set the policy used by {!atomic} calls that do not pass [?policy].
      Affects transactions started after the call. *)

  val global : unit -> policy

  val name : policy -> string
  (** ["backoff"], ["karma"] or ["greedy"] — the keys of
      {!retry_histogram}. *)
end

(** {1 TM policy matrix}

    The per-tvar read/write/commit protocol is one point in a three-axis
    design space: {e acquire} (commit-time lazy vs encounter-time eager
    write locking), {e read strategy} (record-and-revalidate invisible
    reads vs visible blocking read locks), and {e versioning} (redo log
    applied at commit vs in-place writes with an undo log).  Four
    policies ship; [lazy_rv_wb] is the seed protocol, bit for bit, and
    the default.  A policy can be selected process-wide
    ({!Policy.set_global}), per {!atomic} call ([?tm_policy]), or pinned
    per collection at wrap time; the adaptive controller
    ({!Policy.enable_adaptive}) switches the global policy from live
    stats over epoch windows with hysteresis.

    Non-default policies run closed-nested transactions flattened into
    the top level (subsumption): visible read locks and in-place undo
    state are owned per top-level attempt, so partial rollback of a
    child is a [lazy_rv_wb]-only optimisation. *)

module Policy : sig
  type t = Types.tm_policy

  val lazy_rv_wb : t
  (** Lazy acquire, read validation, write buffer: the seed TL2-style
      protocol and the default.  Best for read-dominated traffic — its
      read-only fast path commits with no locks and no clock bump. *)

  val eager_rv_wb : t
  (** Encounter-time write locking, invisible validated reads, buffered
      writes: write-write conflicts surface at first touch instead of
      after a wasted body. *)

  val lazy_rl_wb : t
  (** Commit-time acquire with visible read locks: reads block writers
      and are abort-free once acquired (no commit-time validation). *)

  val eager_rl_ul : t
  (** Encounter-time locking, visible read locks, undo logging: writes
      go in place under the held lock (re-writes are allocation-free),
      commit publishes without re-locking, abort rolls back from the
      undo log.  The pessimistic end of the matrix, for write-heavy
      contended regimes. *)

  val all : t list
  val name : t -> string
  val of_name : string -> t option

  val set_global : t -> unit
  (** Set the policy used by {!atomic} calls that do not pass
      [?tm_policy].  Affects transactions started after the call; also
      disables the adaptive controller. *)

  val global : unit -> t

  val enable_adaptive : ?epoch:int -> unit -> unit
  (** Start the adaptive controller: every [epoch] completed transactions
      (default 512, counted across domains) it derives the read-only
      ratio and abort rate of the window just ended and, when two
      consecutive windows agree on a policy different from the current
      global one (hysteresis), switches the global policy and increments
      [policy_switches].  Transactions pinning [?tm_policy] are
      unaffected. *)

  val disable_adaptive : unit -> unit

  val adaptive : unit -> bool
  (** [true] while the adaptive controller is enabled. *)

  val switches : unit -> int
  (** Total adaptive policy switches since the last {!reset_stats} — the
      flapping observability counter (also in {!global_stats}). *)

  val min_window_commits : int
  (** Minimum commits an epoch window must have accumulated before the
      adaptive controller evaluates it.  Under-sampled windows (idle gaps
      between open-loop arrival bursts) are skipped without advancing the
      window baselines, so their commits roll into the next evaluation
      instead of feeding a near-zero-sample signal that flaps
      [policy_switches]. *)
end

type budget = { max_retries : int option; max_seconds : float option }
(** Progress budget for one {!atomic} call.  [max_retries = Some m] allows
    [m] retries ([m + 1] executions in total); [max_seconds] is a
    wall-clock deadline checked after each aborted attempt.  Exhaustion
    raises {!Starved} (or runs the [?on_starved] fallback). *)

val atomic :
  ?policy:Contention.policy ->
  ?tm_policy:Policy.t ->
  ?budget:budget ->
  ?on_starved:(unit -> 'a) ->
  (unit -> 'a) ->
  'a
(** [atomic f] runs [f] transactionally.  At top level it retries [f] on
    memory conflicts and remote aborts — waiting between attempts per the
    contention [?policy] (default: the global policy) — until it commits
    or the [?budget] is exhausted, which raises {!Starved} or, when
    [?on_starved] is given, returns [on_starved ()] instead (typically
    {!serialised}[ f]).  [?tm_policy] pins the TM policy for this call
    (default: the global policy, possibly adaptive).  Nested inside
    another transaction it is a closed-nested transaction and the options
    are ignored — under non-default policies the nested body runs
    flattened into the parent (subsumption).  Exceptions raised by [f]
    abort the transaction and propagate. *)

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
    store buffer cannot be reconciled with a frozen timestamp); nested
    [snapshot] calls share the outer pin.  {!Tvar.set} and mutating
    collection operations inside raise [Invalid_argument].  Counted in
    {!global_stats} as a commit, a read-only commit and a
    [snapshot_reads]. *)

val in_snapshot : unit -> bool
(** [true] iff the calling thread is inside a {!snapshot} section. *)

val snapshot_stamp : unit -> int
(** The pinned snapshot timestamp (meaningful only {!in_snapshot}). *)

val version_chain_bound : int
(** K: committed versions retained per chain once no older snapshot
    reader is pinned.  Chains grow beyond K only while an old reader
    holds its epoch pinned, and are trimmed back lazily at the next
    publication. *)

val serialised : (unit -> 'a) -> 'a
(** Starvation fallback: run [f] as a top-level transaction while holding
    the process-wide fallback commit region for the whole attempt, so
    serialised fallbacks never contend with each other (they still conflict
    with — and win against or retry on — ordinary optimistic
    transactions).  Intended as [~on_starved:(fun () -> serialised f)].
    Inside a transaction it just runs [f] in the enclosing transaction. *)

(** {1 Admission control} — the open-loop overload valve.

    Closed-loop benches self-limit: a slow system slows its own load.  An
    open-loop generator does not — past the saturation knee the arrival
    rate exceeds the service rate, queues grow without bound and p99
    collapses.  The admission gate bounds the rate at which transactions
    are {e started}: a token bucket refilled at a configured rate admits
    requests up to its burst capacity, and requests arriving with the
    bucket empty hit the overload policy instead of queueing:

    - [Shed]: reject with the typed {!Overloaded} exception (counted as
      [shed] in {!global_stats}); the caller drops or retries later.
    - [Serialise]: route through {!serialised} — the request still runs,
      but on the process-wide fallback region, trading latency for
      completion (counted as [serialised_overflow]).

    An admitted transaction that exhausts its budget ({!Starved}) is also
    handed to the overload policy — starvation under load {e is}
    overload.  Ledger property: every {!Admission.run} call increments
    exactly one of [admitted], [shed] or [serialised_overflow]. *)
module Admission : sig
  type overload_policy =
    | Shed  (** reject: raise {!Overloaded} without running the body *)
    | Serialise  (** degrade: run the body via {!serialised} *)

  val policy_name : overload_policy -> string
  (** ["shed"] or ["serialise"]. *)

  val configure :
    ?burst:int -> ?budget:budget -> rate:float -> policy:overload_policy ->
    unit -> unit
  (** Install the process-wide admission gate: a token bucket refilled at
      [rate] tokens/second holding at most [burst] tokens (default 64).
      [?budget] is applied to admitted transactions that do not pass
      their own (so starvation feeds the overload policy).  Raises
      [Invalid_argument] unless [rate > 0]. *)

  val disable : unit -> unit
  (** Remove the gate: {!run} becomes plain {!atomic}. *)

  val enabled : unit -> bool
  val current_policy : unit -> overload_policy option

  val run :
    ?policy:Contention.policy -> ?tm_policy:Policy.t -> ?budget:budget ->
    (unit -> 'a) -> 'a
  (** [run f] is {!atomic}[ f] through the admission gate.  With no gate
      configured, or nested inside a transaction, it is exactly
      {!atomic}.  Otherwise it takes a token (admitting) or invokes the
      overload policy; an admitted run that raises {!Starved} is handed
      to the overload policy as well.  Any other exception escaping an
      admitted run still counts the admission before propagating, so the
      one-column-per-call ledger property holds on every path. *)

  val admitted : unit -> int
  val shed : unit -> int
  val serialised_overflow : unit -> int
  (** Live aggregated ledger counters (also in {!global_stats}). *)
end

val on_commit : (unit -> unit) -> unit
(** Register a commit handler on the current nesting level.  Handlers run
    during the top-level commit, after validation; they must not access
    {!Tvar.t}s.  Handlers registered through this region-less entry point
    serialise on a process-wide fallback region; collection classes
    register through {!Tm_ops.on_commit} with their own region instead, so
    their commits only serialise per collection.  Outside a transaction the
    handler runs immediately (auto-commit).  If handlers raise, all of them
    still run and {!Handler_failure}[ { committed = true; _ }] is raised
    after the commit completes. *)

val on_abort : (unit -> unit) -> unit
(** Register a compensating abort handler, run (newest first) if the
    top-level transaction aborts.  Discarded if the registering nested
    transaction aborts, per the paper's handler semantics.  If handlers
    raise, all of them still run and {!Handler_failure}
    [{ committed = false; _ }] is raised in place of the retry. *)

val on_top_commit : (unit -> unit) -> unit
(** Like {!on_commit}, but always registers on the top-level transaction
    regardless of nesting depth — the registration mode the collection
    classes use, since lock ownership belongs to the top-level outcome. *)

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

    Contention-manager arbitration: when the caller is itself inside its
    commit's prepare phase, its policy may instead {e defer} — Greedy to an
    older target, Karma to a target with more accumulated retries — by
    raising an internal exception that retries the caller with nothing
    applied.  Callers that hold resources across this call must release
    them in an abort/[Fun.protect] path. *)

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
    and before the commit, [Chaos_in_commit] inside the commit after
    read-set validation (before the commit point — an exception there
    aborts cleanly).  Hooks may raise (e.g. {!retry_now}), spin, register
    handlers or deliver {!remote_abort}s; they must not block. *)
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
      (** committer-side contention-manager deferrals (Greedy/Karma) *)
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
  policy_switches : int;
      (** global-policy switches performed by the adaptive controller
          ({!Policy.enable_adaptive}); flapping shows up here *)
  admitted : int;
      (** {!Admission.run} calls that took a token and committed (or
          raised from the body) without starving *)
  shed : int;
      (** {!Admission.run} calls rejected with {!Overloaded} under the
          [Shed] overload policy *)
  serialised_overflow : int;
      (** {!Admission.run} calls routed through {!serialised} under the
          [Serialise] overload policy *)
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

val retry_histogram : unit -> (string * int array) list
(** Per-policy histogram of retries-to-completion: entry [(name, h)] gives,
    for policy [name] ({!Contention.name}), [h.(b)] completions (commit or
    starvation) whose retry count fell in bucket [b] (bucket 0 = 0 retries,
    then power-of-two buckets).  Reset by {!reset_stats}. *)

(** {!Tm_intf.TM_OPS} instance: plugs this STM into the transactional
    collection classes. *)
module Tm_ops : Tm_intf.TM_OPS with type txn = handle
