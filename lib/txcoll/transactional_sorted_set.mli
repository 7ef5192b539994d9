(** TransactionalSortedSet: thin wrapper over {!Transactional_sorted_map}
    with unit values (paper §5.1). *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.SORTED_MAP_OPS) : sig
  module Map : module type of Transactional_sorted_map.Make (TM) (M)

  type t = unit Map.t

  (** [splitters] as in
      {!Transactional_sorted_map.Make.create}. *)
  val create :
    ?splitters:M.key list ->
    ?isempty_policy:Map.isempty_policy ->
    unit ->
    t

  val mem : t -> M.key -> bool
  val add : t -> M.key -> bool
  val add_blind : t -> M.key -> unit
  val remove : t -> M.key -> bool
  val remove_blind : t -> M.key -> unit
  val size : t -> int
  val is_empty : t -> bool
  val min_elt : t -> M.key option
  val max_elt : t -> M.key option
  val fold : (M.key -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (M.key -> unit) -> t -> unit
  val to_list : t -> M.key list

  val fold_range :
    (M.key -> 'acc -> 'acc) ->
    t ->
    'acc ->
    lo:M.key option ->
    hi:M.key option ->
    'acc
end
