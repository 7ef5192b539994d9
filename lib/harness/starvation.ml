(* Forced-starvation scenario for the progress rule: one long writer
   repeatedly updates a whole block of keys in a single transaction while
   several short writers hammer the same keys with one-key transactions.

   Under optimistic semantic concurrency control the short writers'
   commits remote-abort the long writer (key-lock conflicts, Table 2), so
   with plain backoff the long transaction can retry indefinitely — the
   classic starvation schedule.  With a retry/deadline budget, exhaustion
   surfaces as [Stm.Starved] and is counted here.  With [~fallback:true] a
   starved round then reruns under [Stm.serialised]: short committers
   defer to the serialised transaction instead of aborting it, so the
   round completes and [completed = rounds]. *)

module Stm = Tcc_stm.Stm
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

type report = {
  fallback : bool;
  rounds : int;
  completed : int;  (* long-writer rounds that committed, fallback included *)
  starved : int;  (* long-writer rounds that exhausted their budget *)
  long_retries : int;  (* total aborted attempts of the long writer *)
  elapsed_s : float;
}

let think spins =
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

let run ?(fallback = false) ?budget ?(rounds = 40) ?(keys = 48)
    ?(short_domains = 3) ?(long_spin = 300) ?(long_sleep = 2e-4) () =
  let map = Map.create () in
  let stop = Atomic.make false in
  let started = Atomic.make 0 in
  let shorts =
    List.init short_domains (fun d ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              let k = (d + !i) mod keys in
              Stm.atomic (fun () -> ignore (Map.put map k !i));
              if !i = 1 then Atomic.incr started
            done))
  in
  (* Without this barrier the long writer can finish every round before a
     single short writer is scheduled, and the "starvation" schedule never
     materialises. *)
  while Atomic.get started < short_domains do
    Domain.cpu_relax ()
  done;
  let completed = ref 0 and starved = ref 0 and long_retries = ref 0 in
  let t0 = Unix.gettimeofday () in
  let commit r =
    long_retries := !long_retries + r;
    incr completed
  in
  for round = 1 to rounds do
    let body () =
      for k = 0 to keys - 1 do
        ignore (Map.put map k round);
        think long_spin;
        (* Periodic real yield: on a single core the long transaction is
           otherwise never preempted mid-body and the starvation schedule
           silently degenerates to lock-step execution. *)
        if long_sleep > 0. && k mod 8 = 0 then Unix.sleepf long_sleep
      done;
      Stm.retries ()
    in
    match Stm.atomic ?budget body with
    | r -> commit r
    | exception Stm.Starved { attempts; _ } ->
        long_retries := !long_retries + attempts;
        incr starved;
        if fallback then commit (Stm.serialised body)
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  List.iter Domain.join shorts;
  {
    fallback;
    rounds;
    completed = !completed;
    starved = !starved;
    long_retries = !long_retries;
    elapsed_s;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "fallback=%-5b rounds=%d completed=%d starved=%d long_retries=%d elapsed=%.2fs"
    r.fallback r.rounds r.completed r.starved r.long_retries r.elapsed_s
