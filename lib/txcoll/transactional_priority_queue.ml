(* TransactionalPriorityQueue (leaderboards), derived through {!Derive}.

   State is an ordered multiset: priority -> multiplicity over an
   ordered map, keyed by the priorities' comparator.
   [insert] is a blind +1 delta — inserts of distinct priorities
   commute.  [peek_min]/[poll_min] read the first facet, which a commit
   invalidates exactly when it moves the minimum priority: a priority
   appears below it, or its last copy goes. *)

module Make (TM : Tm_intf.TM_OPS) (P : Underlying.ORDERED) = struct
  module Spec = struct
    type _ state = (P.t, int) Coll.Ordmap.t
    type key = P.t
    type _ value = int (* multiplicity, always >= 1 in committed state *)
    type _ wop = int (* multiplicity delta *)

    let name = "TransactionalPriorityQueue"
    let keying = Derive.Ordered P.compare
    let update = Derive.Lazy
    let create () = Coll.Ordmap.create ~compare:P.compare ()
    let find s k = Coll.Ordmap.find s k

    let apply s k d =
      let m = Option.value (Coll.Ordmap.find s k) ~default:0 + d in
      if m <= 0 then Coll.Ordmap.remove s k else Coll.Ordmap.add s k m

    let fold f s acc = Coll.Ordmap.fold f s acc
    let combine ~earlier ~later = earlier + later

    let view prior d =
      let m = Option.value prior ~default:0 + d in
      if m <= 0 then None else Some m

    let absorbing _ = false
    let weight = function Some m -> m | None -> 0
    let uses_size = true
    let uses_isempty = true
  end

  module D = Derive.Make (TM) (Spec)

  type t = unit D.t

  let create () : t = D.create ()
  let insert t p = D.write_blind t p 1
  let count t p = Option.value (D.find t p) ~default:0
  let peek_min t = Option.map fst (D.endpoint t ~last:false)

  let poll_min t =
    (* [peek_min] holds the first-facet lock, so the minimum can't be
       invalidated between the peek and the buffered removal.  Outside a
       transaction the pair runs under the structure region. *)
    let poll () =
      match peek_min t with
      | None -> None
      | Some p ->
          D.write_blind t p (-1);
          Some p
    in
    if TM.in_txn () then poll () else TM.critical (D.sregion t) poll

  let size = D.size
  (* Total number of queued elements (the committed weight sum). *)

  let is_empty = D.is_empty
  let fold = D.fold
  let iter = D.iter
  let to_list t = List.rev (fold (fun p m acc -> (p, m) :: acc) t [])
  let outstanding_locks = D.outstanding_locks
end
