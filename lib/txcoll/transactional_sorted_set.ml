(* TransactionalSortedSet: wrapper over TransactionalSortedMap with unit
   values (paper §5.1). *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.ORDERED) = struct
  module Map = Transactional_sorted_map.Make (TM) (K)

  type t = unit Map.t

  let create ?splitters () : t = Map.create ?splitters ()

  let mem (t : t) k = Map.mem t k
  let add (t : t) k = Map.put t k () = None
  let add_blind (t : t) k = Map.put_blind t k ()
  let remove (t : t) k = Map.remove t k <> None
  let remove_blind (t : t) k = Map.remove_blind t k
  let size (t : t) = Map.size t
  let is_empty (t : t) = Map.is_empty t
  let min_elt (t : t) = Map.first_key t
  let max_elt (t : t) = Map.last_key t
  let fold f (t : t) init = Map.fold (fun k () acc -> f k acc) t init
  let iter f (t : t) = Map.iter (fun k () -> f k) t
  let to_list (t : t) = List.rev (fold (fun k acc -> k :: acc) t [])

  let fold_range f (t : t) init ~lo ~hi =
    Map.fold_range (fun k () acc -> f k acc) t init ~lo ~hi
end
