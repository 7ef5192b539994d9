(* Key modules of the derived collection classes: a hashed class takes
   its key equality and hash from [HASHED], an ordered one its comparator
   from [ORDERED]. *)

module type HASHED = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end
