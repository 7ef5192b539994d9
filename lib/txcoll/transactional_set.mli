(** TransactionalSet, derived through {!Derive} from a presence-valued
    commutativity spec (paper §5.1).  The former hand-written delegation
    wrapper over {!Transactional_map} is gone: the functor generates the
    semantic locks, store buffer and commit/abort handlers from the spec.

    Unlike the map, derived wrappers do not publish snapshot version
    chains: reads inside [Stm.snapshot] raise [Invalid_argument]. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.MAP_OPS) : sig
  type t

  val create : ?stripes:int -> ?hash:(M.key -> int) -> unit -> t

  val add : t -> M.key -> bool
  (** [true] when newly added (reads the element: takes its key lock). *)

  val remove : t -> M.key -> bool
  (** [true] when the element was present. *)

  val add_blind : t -> M.key -> unit
  val remove_blind : t -> M.key -> unit
  val mem : t -> M.key -> bool
  val size : t -> int
  val is_empty : t -> bool
  val fold : (M.key -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (M.key -> unit) -> t -> unit
  val to_list : t -> M.key list

  val outstanding_locks : t -> int
  (** Total semantic-lock registrations in the set's lock table — 0 when
      quiescent; for leak probes. *)

  val stripe_count : t -> int
end
