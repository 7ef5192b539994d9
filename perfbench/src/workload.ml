(* What every workload provides to the runner.

   A workload builds a fresh state from the seed, generates each client
   domain's input stream from the seed, runs one transaction of that
   stream, checks the state at quiescence, and replays its key stream on
   the raw [Coll] structure it wraps (traced run only). *)

module type S = sig
  type state
  type input

  val name : string

  val warm : int
  (** Transactions per domain in the warm-up slice (part of set-up). *)

  val per_domain : int
  (** Timed transactions per domain in one episode. *)

  val build : seed:int -> state
  (** Build and prepopulate the collections. *)

  val input : seed:int -> domain:int -> n:int -> input
  (** The first [n] transactions of a client domain's stream. *)

  val run : Trace.t -> state -> input -> int -> bool
  (** Run transaction [i] of the stream; [false] when its output is
      wrong.  Exceptions escape to the runner. *)

  val checks : state -> committed:int -> (string * bool) list
  (** Output checks at quiescence, after [committed] transactions
      (warm-up included) have committed. *)

  val replay : seed:int -> input array -> (string * float) list
  (** [coll.*] metrics: the streams replayed on the raw structure. *)
end

(* Median nanoseconds per operation of [f ()], which runs [ops]
   operations, over five repetitions. *)
let ns_per_op ~ops f =
  if ops = 0 then 0.
  else
    Stats.median
      (List.init 5 (fun _ ->
           let t0 = Clock.now_ns () in
           f ();
           float_of_int (Clock.now_ns () - t0) /. float_of_int ops))

(* Seeded per-domain random state. *)
let rng ~seed ~domain tag = Random.State.make [| seed; domain; tag |]
