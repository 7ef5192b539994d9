(** Global counters, in both fully isolated and reduced-isolation
    (open-nested) flavours.  The open-nested variants eliminate the counter
    as a source of conflicts between long transactions while a compensating
    abort handler keeps the count exact — the paper's "Atomos Open"
    treatment of SPECjbb's global counters. *)

type t

val create : ?initial:int -> unit -> t
val get : t -> int

val incr : ?by:int -> t -> unit
(** Fully isolated increment: conflicts with every concurrent increment. *)

val incr_open : ?by:int -> t -> unit
(** Open-nested increment with abort compensation: no parent dependency. *)
