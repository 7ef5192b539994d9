(* TransactionalBag (multiset), derived through {!Derive}.

   State maps elements to multiplicities; a write is a multiplicity
   delta ([combine] sums).  [add] is blind — two transactions adding the
   same element commute and never conflict.  [remove_one] must observe
   the current count (can't go below zero), so it reads the key facet
   first: the read is the source of its conflicts, exactly the paper's
   commutativity table.  Multiplicity is the weight, so the functor
   derives size/isEmpty conflicts from net batch deltas. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) = struct
  module Spec = struct
    type key = K.t
    type _ value = int (* multiplicity, always >= 1 in committed state *)
    type _ wop = int (* multiplicity delta *)

    let name = "TransactionalBag"
    let keying = Derive.Hashed { hash = K.hash; equal = K.equal }
    let update = Derive.Lazy
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

  let create ?stripes () : t = D.create ?stripes ()

  let add t x = D.write_blind t x 1
  let add_n t x n = if n > 0 then D.write_blind t x n
  let count t x = Option.value (D.find t x) ~default:0
  let mem t x = count t x > 0

  let remove_one t x =
    (* The [count] read takes the key lock, so the decision "was it
       present?" stays valid through commit.  Outside a transaction the
       read-then-write pair runs under the structure region for the same
       atomicity. *)
    let dec () = if count t x > 0 then (D.write_blind t x (-1); true) else false in
    if TM.in_txn () then dec () else TM.critical (D.sregion t) dec

  let size = D.size
  (* Total multiplicity (the committed weight sum), counting duplicates. *)

  let is_empty = D.is_empty
  let fold = D.fold
  let iter = D.iter
  let to_list t = fold (fun k m acc -> (k, m) :: acc) t []
  let outstanding_locks = D.outstanding_locks
  let stripe_count = D.stripe_count
end
