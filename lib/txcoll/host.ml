(* Ready-made instantiations of the transactional collection classes over
   the host software TM ({!Tcc_stm}).  This is the public face most
   applications use:

   {[
     module M = Txcoll.Host.Map (Txcoll.Host.String_hashed)
     let m = M.create ()
     let () = Tcc_stm.Stm.atomic (fun () -> ignore (M.put m "k" 1))
   ]}

   Every class is derived from its commutativity spec through
   {!Derive}; a hashed class takes its key equality and hash from [K], an
   ordered one its comparator. *)

module Tm = Tcc_stm.Stm.Tm_ops

module Map (K : Underlying.HASHED) = Transactional_map.Make (Tm) (K)

module Sorted_map (K : Underlying.ORDERED) =
  Transactional_sorted_map.Make (Tm) (K)

module Set (K : Underlying.HASHED) = Transactional_set.Make (Tm) (K)

module Sorted_set (K : Underlying.ORDERED) =
  Transactional_sorted_set.Make (Tm) (K)

module Queue = Transactional_queue.Make (Tm)

module Counter = Transactional_counter.Make (Tm)

module Priority_queue (P : Underlying.ORDERED) =
  Transactional_priority_queue.Make (Tm) (P)

module Bag (K : Underlying.HASHED) = Transactional_bag.Make (Tm) (K)

(* The undo-logging alternative (paper §5.1): the map's spec derived with
   eager conflict detection — one pending writer per key, readers waiting
   on it — over the same store buffer and shadows as [Map]. *)
module Map_undo (K : Underlying.HASHED) = Transactional_map.Make_undo (Tm) (K)

(* Common key modules. *)

module Int_hashed = struct
  type t = int

  let hash = Hashtbl.hash
  let equal = Int.equal
end

module String_hashed = struct
  type t = string

  let hash = Hashtbl.hash
  let equal = String.equal
end

module Int_ordered = Int
module String_ordered = String
