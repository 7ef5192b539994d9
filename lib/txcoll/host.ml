(* Ready-made instantiations of the transactional collection classes over
   the host software TM ({!Tcc_stm}).  This is the public face most
   applications use:

   {[
     module M = Txcoll.Host.Map (Txcoll.Host.String_hashed)
     let m = M.create ()
     let () = Tcc_stm.Stm.atomic (fun () -> ignore (M.put m "k" 1))
   ]}

   Map, Set, Bag, Counter and Priority_queue are derived from their
   commutativity specs through {!Derive}; a hashed class takes its key
   equality and hash from [K]. *)

module Tm = Tcc_stm.Stm.Tm_ops

module Map (K : Underlying.HASHED) =
  Transactional_map.Make (Tm) (Underlying.Hashed_map_ops (K))

module Sorted_map (K : Underlying.ORDERED) =
  Transactional_sorted_map.Make (Tm) (Underlying.Ordered_map_ops (K))

module Set (K : Underlying.HASHED) =
  Transactional_set.Make (Tm) (Underlying.Hashed_map_ops (K))

module Sorted_set (K : Underlying.ORDERED) =
  Transactional_sorted_set.Make (Tm) (Underlying.Ordered_map_ops (K))

module Queue = Transactional_queue.Make (Tm) (Underlying.Deque_ops)

module Counter = Transactional_counter.Make (Tm)

module Priority_queue (P : Underlying.ORDERED) =
  Transactional_priority_queue.Make (Tm) (P)

module Bag (K : Underlying.HASHED) = Transactional_bag.Make (Tm) (K)

(* Alternative underlying implementations: the wrapper code is identical;
   only the wrapped structure changes (paper: "they can serve as drop-in
   replacements", with no knowledge of data structure internals). *)

module Map_over_open_addressing (K : Underlying.HASHED) =
  Transactional_map.Make (Tm) (Underlying.Oa_map_ops (K))

module Sorted_map_over_skiplist (K : Underlying.ORDERED) =
  Transactional_sorted_map.Make (Tm) (Underlying.Skiplist_map_ops (K))

(* The undo-logging alternative (paper §5.1): in-place updates, exclusive
   write locks, compensation on abort. *)
module Map_undo (K : Underlying.HASHED) =
  Transactional_map_undo.Make (Tm) (Underlying.Hashed_map_ops (K))

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
