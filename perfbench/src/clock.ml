(* Every timestamp of the benchmark: CLOCK_MONOTONIC in nanoseconds, read
   through bechamel's allocation-free stub. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
