(* TransactionalCounter: commutative increments that never conflict with
   each other, derived through {!Derive}.

   Increments commute, so the spec declares deltas as blind writes: a
   delta buffers locally ([combine] sums), takes no lock at operation
   time, and commits under its own stripe region only ([weight] is
   constant 0 and no size/isEmpty facets, so the functor derives
   an empty commit-time conflict set — blind writers never register in
   the lock tables, so increments abort nobody and wait for nobody).
   Only [get] — a read of the key facets — conflicts with concurrent
   increments, exactly the paper's Table 4 row for [add].

   To also make the *region* plan disjoint across domains, the veneer
   shards the single logical counter across [shards] keys, which the
   spec hashes by identity, with [stripes = shards]: domain [d] always writes key
   [d mod shards], which maps to stripe [d mod shards], so concurrent
   incrementing domains commit under disjoint regions — zero aborts and
   zero region waits by construction. *)

module Make (TM : Tm_intf.TM_OPS) = struct
  module Spec = struct
    type key = int
    type _ value = int
    type _ wop = int (* delta *)

    let name = "TransactionalCounter"
    let keying = Derive.Hashed { hash = Fun.id; equal = Int.equal }
    let update = Derive.Lazy
    let combine ~earlier ~later = earlier + later
    let view prior d = Some (Option.value prior ~default:0 + d)
    let absorbing _ = false
    let weight _ = 0
    let uses_size = false
    let uses_isempty = false
  end

  module D = Derive.Make (TM) (Spec)

  type t = { d : unit D.t; shards : int }

  let create ?(shards = 16) () =
    let d = D.create ~stripes:shards () in
    { d; shards = D.stripe_count d }

  let shard_key t = (Domain.self () :> int) mod t.shards
  let add t n = if n <> 0 then D.write_blind t.d (shard_key t) n
  let incr t = add t 1
  let decr t = add t (-1)

  let get t =
    if TM.in_txn () then (
      (* Read every shard key under its key lock: sound (the whole sum
         is a keyed read set; any committing delta conflicts with it). *)
      let sum = ref 0 in
      for i = 0 to t.shards - 1 do
        sum := !sum + Option.value (D.find t.d i) ~default:0
      done;
      !sum)
    else D.fold (fun _ v acc -> acc + v) t.d 0

  let outstanding_locks t = D.outstanding_locks t.d
  let snapshot_history_length t = D.snapshot_history_length t.d
  let own_history_length t = D.key_history_length t.d (shard_key t)
end
