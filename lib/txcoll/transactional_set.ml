(* TransactionalSet, derived through {!Derive} from its commutativity
   spec (paper §5.1 presented sets as thin wrappers over the maps; here
   the spec below *is* the implementation — the hand-written delegation
   wrapper is gone).

   The spec: presence-valued keyed state.  A write is the presence it
   installs ([true] = add, [false] = remove), last-write-wins in the
   buffer and absorbing (reading back one's own add/remove needs no
   committed read).  Weight is presence, so the functor derives exactly
   the paper's Table 1/2 conflicts: key facets for add/remove/mem, the
   size facet when presence flips, the isEmpty facet when emptiness
   flips. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.MAP_OPS) = struct
  module Spec = struct
    type state = unit M.t
    type key = M.key
    type value = unit
    type wop = bool (* presence after the write: true = add, false = remove *)

    let name = "TransactionalSet"
    let create () = M.create ()
    let find s k = M.find s k

    let apply s k = function
      | true -> M.add s k ()
      | false -> M.remove s k

    let fold f s acc =
      let a = ref acc in
      M.iter (fun k v -> a := f k v !a) s;
      !a

    let min_key _ ~excluded:_ = None
    let combine ~earlier:_ ~later = later
    let view _ present = if present then Some () else None
    let absorbing _ = true
    let weight = function Some () -> 1 | None -> 0
    let uses_size = true
    let uses_isempty = true
    let uses_first = false
    let compare_key = None
  end

  module D = Derive.Make (TM) (Spec)

  type t = D.t

  let create ?stripes ?hash () = D.create ?stripes ?hash ()
  let add t k = Option.is_none (D.write t k true ~blind:false)
  let remove t k = Option.is_some (D.write t k false ~blind:false)
  let add_blind t k = D.write_blind t k true
  let remove_blind t k = D.write_blind t k false
  let mem t k = Option.is_some (D.find t k)
  let size = D.size
  let is_empty = D.is_empty
  let fold f t init = D.fold (fun k () acc -> f k acc) t init
  let iter f t = D.iter (fun k () -> f k) t
  let to_list t = fold (fun k acc -> k :: acc) t []
  let outstanding_locks = D.outstanding_locks
  let stripe_count = D.stripe_count
end
