(** TransactionalSortedSet: thin wrapper over {!Transactional_sorted_map}
    with unit values (paper §5.1). *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.ORDERED) : sig
  module Map : module type of Transactional_sorted_map.Make (TM) (K)

  type t = unit Map.t

  (** [splitters] as in
      {!Transactional_sorted_map.Make.create}. *)
  val create : ?splitters:K.t list -> unit -> t

  val mem : t -> K.t -> bool
  val add : t -> K.t -> bool
  val add_blind : t -> K.t -> unit
  val remove : t -> K.t -> bool
  val remove_blind : t -> K.t -> unit
  val size : t -> int
  val is_empty : t -> bool
  val min_elt : t -> K.t option
  val max_elt : t -> K.t option
  val fold : (K.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (K.t -> unit) -> t -> unit
  val to_list : t -> K.t list

  val fold_range :
    (K.t -> 'acc -> 'acc) ->
    t ->
    'acc ->
    lo:K.t option ->
    hi:K.t option ->
    'acc
end
