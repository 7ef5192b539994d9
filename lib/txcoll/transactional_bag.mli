(** TransactionalBag: a multiset derived through {!Derive}.  [add]s of
    the same element commute (blind multiplicity deltas) and never
    conflict; {!val:remove_one} reads the element's count first and so
    conflicts exactly where the paper's commutativity table says it
    must.  Elements are equal when [K.equal] says so; reads inside
    [Stm.snapshot] see the pinned prefix. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) : sig
  type t

  val create : ?stripes:int -> unit -> t

  val add : t -> K.t -> unit
  (** Blind: buffers a +1 multiplicity delta, takes no lock. *)

  val add_n : t -> K.t -> int -> unit
  (** [add_n t x n] adds [n] copies ([n <= 0] is a no-op). *)

  val count : t -> K.t -> int
  (** Multiplicity of [x] (takes its key lock in a transaction). *)

  val mem : t -> K.t -> bool

  val remove_one : t -> K.t -> bool
  (** Remove one copy if present; [true] on success.  Reads the count
      (key lock), so it conflicts with concurrent writers of [x]. *)

  val size : t -> int
  (** Total number of elements counting duplicates (sum of
      multiplicities). *)

  val is_empty : t -> bool
  val fold : (K.t -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (K.t -> int -> unit) -> t -> unit
  val to_list : t -> (K.t * int) list
  val outstanding_locks : t -> int
  val stripe_count : t -> int
end
