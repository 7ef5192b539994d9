(** TransactionalCounter: a shared counter whose increments commute and
    therefore never conflict with each other, derived through {!Derive}.

    Deltas are blind buffered writes committing under per-domain shard
    regions (identity hash, one stripe per shard), so concurrent
    incrementing domains see zero aborts and zero region waits.  Only
    {!val:get} — a keyed read of every shard — conflicts with concurrent
    deltas. *)

module Make (TM : Tm_intf.TM_OPS) : sig
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] (default 16, clamped to the lock table's stripe maximum)
      is the number of independent sub-counters increments spread over. *)

  val add : t -> int -> unit
  (** Blind delta; [add t 0] is a no-op (touches nothing). *)

  val incr : t -> unit
  val decr : t -> unit

  val get : t -> int
  (** Sum of all shards.  In a transaction this reads every shard key
      under its semantic lock (serialisable, but conflicts with every
      concurrent delta); outside it reads committed state consistently,
      and inside [Stm.snapshot] the sum at the pinned stamp. *)

  val outstanding_locks : t -> int
  val shard_count : t -> int

  val snapshot_history_length : t -> int
  (** Longest snapshot version chain — 2 at quiescence. *)

  val own_history_length : t -> int
  (** Length of the chain of the calling domain's shard, the one its
      increments publish to. *)
end
