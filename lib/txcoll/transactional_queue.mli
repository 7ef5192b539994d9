(** TransactionalQueue (paper §3.3): a transactional work queue with
    selectively reduced isolation, behind the [util.concurrent] Channel
    interface (put/take/poll/peek only — no size or random access),
    derived through {!Derive} over [int] sequence keys.

    Isolation is reduced exactly where the paper reduces it: [take]/[poll]
    remove from the committed queue immediately (so no other transaction
    can steal work that would be invalid if this transaction aborts) and
    abort puts each taken element back at its original position; [put]
    defers to commit so speculative new work never leaks, and its element
    takes its place in the queue at commit, so queue order is commit
    order.  The only
    semantic conflict is observed emptiness invalidated by a committing put
    (Tables 7 and 8).

    Inside a snapshot read section ([TM.in_snapshot]), [peek] and
    [committed_length] resolve against the version chains at the pinned
    stamp — lock-free and abort-free; [put]/[poll]/[take] raise
    [Invalid_argument] there.  Op-time takes are published to the chains
    when they happen, consistent with the queue's deliberately reduced
    isolation. *)

module Make (TM : Tm_intf.TM_OPS) : sig
  type 'v t

  val create : unit -> 'v t

  val put : 'v t -> 'v -> unit
  (** Enqueue at commit time, behind every element committed before;
      discarded if the transaction aborts. *)

  val offer : 'v t -> 'v -> unit
  (** Alias of {!put} (the queue is unbounded, so offer always succeeds). *)

  val poll : 'v t -> 'v option
  (** Dequeue immediately (reduced isolation).  Falls back to the
      transaction's own deferred additions, oldest first; a [None] result
      takes the empty lock, conflicting with any committing [put]. *)

  val take : 'v t -> 'v option
  (** Alias of {!poll} (non-blocking). *)

  val peek : 'v t -> 'v option
  (** Observe the head without consuming; only a [None] result conflicts. *)

  val committed_length : 'v t -> int
  (** Committed queue length — a debugging/statistics view, deliberately not
      part of the Channel interface; takes no locks. *)

  val snapshot_history_length : 'v t -> int
  (** Longest version chain — reclamation probe: at most 2 (the newest
      version and the one it replaced) once no snapshot reader is pinned
      below the newest versions. *)

  val holds_empty_lock : 'v t -> bool

  val outstanding_locks : 'v t -> int
  (** Total semantic lock registrations (empty lockers) currently held —
      must be 0 when no transaction is active (the chaos soak's leak
      probe). *)

  val dump_state : Format.formatter -> 'v t -> unit
  (** Live rendering of Table 9's state inventory (committed queue, shared
      emptyLockers, the calling transaction's addBuffer (buffered writes)
      and removeBuffer (elements taken) — none outside a transaction). *)
end
