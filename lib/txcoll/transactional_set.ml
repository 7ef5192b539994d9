(* TransactionalSet, derived through {!Derive} (paper §5.1 presented sets
   as thin wrappers over the maps).  A set is the map's commutativity
   spec at [unit] values: a write installs presence ([Some ()] = add,
   [None] = remove), last-write-wins in the buffer and absorbing, and
   weight is presence, so the functor derives exactly the paper's
   Table 1/2 conflicts: key facets for add/remove/mem, the size facet
   when presence flips, the isEmpty facet when emptiness flips. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) = struct
  module D = Derive.Make (TM) (Transactional_map.Spec (K))

  type t = unit D.t

  let create ?stripes () : t = D.create ?stripes ()
  let add t k = Option.is_none (D.write t k (Some ()) ~blind:false)
  let remove t k = Option.is_some (D.write t k None ~blind:false)
  let add_blind t k = D.write_blind t k (Some ())
  let remove_blind t k = D.write_blind t k None
  let mem t k = Option.is_some (D.find t k)
  let size = D.size
  let is_empty = D.is_empty
  let fold f t init = D.fold (fun k () acc -> f k acc) t init
  let iter f t = D.iter (fun k () -> f k) t
  let to_list t = fold (fun k acc -> k :: acc) t []
  let outstanding_locks = D.outstanding_locks
  let stripe_count = D.stripe_count
  let snapshot_history_length = D.snapshot_history_length
end
