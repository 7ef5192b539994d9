(** TransactionalSet, derived through {!Derive} from the map's
    commutativity spec ({!Transactional_map.Spec}) at [unit] values
    (paper §5.1): the functor generates the semantic locks, store buffer,
    commit/abort handlers and snapshot version chains.  Elements are
    equal when [K.equal] says so.  Reads inside [Stm.snapshot] see the
    pinned prefix. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) : sig
  type t

  val create : ?stripes:int -> unit -> t

  val add : t -> K.t -> bool
  (** [true] when newly added (reads the element: takes its key lock). *)

  val remove : t -> K.t -> bool
  (** [true] when the element was present. *)

  val add_blind : t -> K.t -> unit
  val remove_blind : t -> K.t -> unit
  val mem : t -> K.t -> bool
  val size : t -> int
  val is_empty : t -> bool
  val fold : (K.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (K.t -> unit) -> t -> unit
  val to_list : t -> K.t list

  val outstanding_locks : t -> int
  (** Total semantic-lock registrations in the set's lock table — 0 when
      quiescent; for leak probes. *)

  val stripe_count : t -> int

  val snapshot_history_length : t -> int
  (** Longest snapshot version chain — 2 at quiescence. *)
end
