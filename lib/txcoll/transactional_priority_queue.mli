(** TransactionalPriorityQueue: an ordered multiset of priorities
    derived through {!Derive} (leaderboards).  [insert]s are blind
    commutative deltas; {!val:peek_min}/{!val:poll_min} read the first
    facet and conflict with any commit that could move the minimum
    (conservatively, per the functor's first-invalidation rule).

    The first facet is whole-collection state, so the lock table has a
    single stripe.  Reads inside [Stm.snapshot] see the pinned prefix. *)

module Make (TM : Tm_intf.TM_OPS) (P : Underlying.ORDERED) : sig
  type t

  val create : unit -> t

  val insert : t -> P.t -> unit
  (** Blind +1 multiplicity delta; inserts never conflict each other. *)

  val count : t -> P.t -> int
  (** Multiplicity of priority [p] (takes its key lock). *)

  val peek_min : t -> P.t option
  (** Least present priority; holds the first-facet lock. *)

  val poll_min : t -> P.t option
  (** Remove and return the least priority.  In a transaction the
      first-facet lock held by the peek keeps the pair atomic; outside,
      the pair runs under the structure region. *)

  val size : t -> int
  (** Total number of queued elements counting duplicate priorities. *)

  val is_empty : t -> bool

  val fold : (P.t -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** Enumeration order is unspecified once buffered inserts overlay the
      committed order. *)

  val iter : (P.t -> int -> unit) -> t -> unit
  val to_list : t -> (P.t * int) list
  val outstanding_locks : t -> int
end
