(* Key modules of the derived collection classes, and adapters presenting
   the plain host hash maps (lib/coll) through [Tm_intf.HASHED_MAP_OPS], so
   they can serve as the wrapped "existing implementation" of the
   undo-logging map. *)

module type HASHED = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Hashed_map_ops (K : HASHED) :
  Tm_intf.HASHED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Chain_hashmap.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Chain_hashmap.t

  let hash = K.hash
  let equal = K.equal
  let create () = Coll.Chain_hashmap.create ~hash:K.hash ~equal:K.equal ()
  let find = Coll.Chain_hashmap.find
  let add = Coll.Chain_hashmap.add
  let remove = Coll.Chain_hashmap.remove
end

module Oa_map_ops (K : HASHED) :
  Tm_intf.HASHED_MAP_OPS
    with type key = K.t
     and type 'v t = (K.t, 'v) Coll.Oa_hashmap.t = struct
  type key = K.t
  type 'v t = (K.t, 'v) Coll.Oa_hashmap.t

  let hash = K.hash
  let equal = K.equal
  let create () = Coll.Oa_hashmap.create ~hash:K.hash ~equal:K.equal ()
  let find = Coll.Oa_hashmap.find
  let add = Coll.Oa_hashmap.add
  let remove = Coll.Oa_hashmap.remove
end
