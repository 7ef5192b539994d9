(* Open-loop load generation with Poisson arrivals.

   Every other bench in the repo is closed-loop: each domain issues its
   next transaction the moment the previous one finishes, so a slow
   system slows its own offered load and queueing collapse is invisible.
   This harness is open-loop: arrivals are scheduled ahead of time from a
   Poisson process at a target offered rate, independently of how fast
   the system services them, which is the only way to see the saturation
   knee and what happens past it.

   Latency accounting is coordinated-omission-free: a request's latency
   is measured from its *scheduled arrival time* to its completion, not
   from when the worker got around to starting it.  A worker running
   behind schedule therefore reports the queueing delay its backlog
   causes, exactly as a real arrival stream would experience it.  A
   request that finds its domain idle waited behind nothing: its latency
   runs from the end of the domain's wait for the arrival, so the
   sleep's own wake-up overshoot (past 0.9 ms in 0.5–11% of sleeps on a
   2-vCPU virtual machine) is not reported as service latency.

   Each domain runs an independent arrival stream at rate/D (the
   superposition of independent Poisson processes is Poisson at the
   summed rate), paces itself with sleep-then-spin, and records into a
   private {!Hdr} histogram merged after join.  A domain that falls more
   than [lag_bail] seconds behind its schedule has hit queueing
   collapse; it stops executing and accounts the rest of its schedule as
   [dropped], so overloaded probes terminate in bounded time while still
   reporting the collapse (dropped requests count against goodput).

   Requests that raise {!Admission.Overloaded} (the [Shed] policy) are
   counted as [shed], not completed — shedding trades goodput accounting
   at the generator for bounded latency at the service.

   [rate_search] walks offered load to the knee: a geometric ramp
   (doubling) while the SLO holds, then a geometric-mean bisection
   refine between the last sustainable and first unsustainable rates.
   "Sustainable" means: nothing dropped or shed, ≥95% of the schedule
   completed, and p99 within the SLO.  Each probe runs for [duration] or
   until it has scheduled [min_probe_requests] arrivals at its rate,
   whichever is longer.  A starting rate past the knee steps down by
   sqrt 2 within [descent_budget] seconds of probes. *)

module Stm = Tcc_stm.Stm

type result = {
  offered_rate : float;  (* requests/s the schedule targeted *)
  duration : float;  (* nominal run length, seconds *)
  scheduled : int;  (* arrivals generated across all domains *)
  completed : int;  (* requests that ran to completion *)
  within_slo : int;  (* completions with latency <= slo *)
  shed : int;  (* requests rejected with Admission.Overloaded *)
  dropped : int;  (* schedule abandoned after queueing collapse *)
  throughput : float;  (* completed / duration *)
  goodput : float;  (* within_slo / duration *)
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  mean_us : float;
}

(* [worker ~domain] is called once per domain before its stream starts
   and returns the request thunk — per-domain RNG and scratch live in
   the closure.  The thunk is one request; it may raise
   [Admission.Overloaded] (counted as shed), any other exception kills the
   run. *)
type worker = domain:int -> unit -> unit

let run_at ?(domains = 2) ?(seed = 1) ?(slo_us = 1000.) ?(lag_bail = 1.0)
    ~rate ~duration (worker : worker) =
  if rate <= 0. then invalid_arg "Openloop.run_at: rate must be > 0";
  if domains < 1 then invalid_arg "Openloop.run_at: domains must be >= 1";
  let rate_d = rate /. float_of_int domains in
  let slo_s = slo_us *. 1e-6 in
  let body index =
    let req = worker ~domain:index in
    let rng = Chaos.stream_of_seed (seed lxor 0x09e7) (index + 1) in
    let h = Hdr.create () in
    let scheduled = ref 0
    and completed = ref 0
    and within = ref 0
    and shed = ref 0
    and dropped = ref 0 in
    let t0 = Stm.Monoclock.now () in
    let t_end = t0 +. duration in
    let next = ref t0 in
    let bailed = ref false in
    let step () =
      (* Exponential inter-arrival: -ln(1-U)/lambda, U in [0,1). *)
      next := !next +. (-.log1p (-.Chaos.rand_float rng) /. rate_d)
    in
    step ();
    while !next < t_end do
      incr scheduled;
      if !bailed then incr dropped
      else begin
        let now = Stm.Monoclock.now () in
        let delay = !next -. now in
        let origin =
          if delay > 0. then begin
            (* Sleep to just short of the arrival, spin the remainder —
               sleepf alone overshoots by a scheduler quantum, and a long
               spin would starve sibling domains on small hosts. *)
            if delay > 1.5e-4 then Unix.sleepf (delay -. 1e-4);
            let woke = ref (Stm.Monoclock.now ()) in
            while !woke < !next do
              Domain.cpu_relax ();
              woke := Stm.Monoclock.now ()
            done;
            !woke
          end
          else begin
            if -.delay > lag_bail then bailed := true;
            !next
          end
        in
        if !bailed then incr dropped
        else begin
          match req () with
          | () ->
              let lat = Stm.Monoclock.now () -. origin in
              Hdr.record_s h lat;
              incr completed;
              if lat <= slo_s then incr within
          | exception Admission.Overloaded -> incr shed
        end
      end;
      step ()
    done;
    (h, !scheduled, !completed, !within, !shed, !dropped)
  in
  let parts =
    if domains = 1 then [| body 0 |]
    else
      Array.init domains (fun i -> Domain.spawn (fun () -> body i))
      |> Array.map Domain.join
  in
  let hist = Hdr.create () in
  let scheduled = ref 0
  and completed = ref 0
  and within = ref 0
  and shed = ref 0
  and dropped = ref 0 in
  Array.iter
    (fun (h, s, c, w, sh, d) ->
      Hdr.merge ~into:hist h;
      scheduled := !scheduled + s;
      completed := !completed + c;
      within := !within + w;
      shed := !shed + sh;
      dropped := !dropped + d)
    parts;
  {
    offered_rate = rate;
    duration;
    scheduled = !scheduled;
    completed = !completed;
    within_slo = !within;
    shed = !shed;
    dropped = !dropped;
    throughput = float_of_int !completed /. duration;
    goodput = float_of_int !within /. duration;
    p50_us = Hdr.percentile_us hist 0.50;
    p99_us = Hdr.percentile_us hist 0.99;
    p999_us = Hdr.percentile_us hist 0.999;
    max_us = Hdr.max_us hist;
    mean_us = Hdr.mean_us hist;
  }

(* ---------------- rate search ---------------- *)

type probe = { p_rate : float; p_result : result }

type search = {
  sustainable_rate : float;  (* 0. when even the lowest probe failed *)
  knee : result option;  (* the result at [sustainable_rate] *)
  probes : probe list;  (* every probe run, in execution order *)
}

let sustainable ~slo_us r =
  r.completed > 0 && r.dropped = 0 && r.shed = 0
  && float_of_int r.completed >= 0.95 *. float_of_int r.scheduled
  && r.p99_us <= slo_us

(* Fewest arrivals a rate-search probe schedules (in expectation): with
   200 samples a p99 is not the single slowest request, and a probe
   descended to a low rate is never empty. *)
let min_probe_requests = 200

(* Most seconds of probes a descent from the starting rate schedules.  A
   probe at rate r lasts at least [min_probe_requests / r], so each step
   down by sqrt 2 stretches the probe by as much: from 200 req/s the
   descent probes 200, 141, 100, 71 and 50 req/s for 1 + 1.4 + 2 + 2.8 + 4
   = 11.2 s, and the next probe (5.7 s) would pass the budget.  Small steps
   buy more probes: on a noisy host one probe's p99 fails at any rate. *)
let descent_budget = 15.

let rate_search ?(domains = 2) ?(seed = 1) ?(slo_us = 1000.)
    ?(start_rate = 500.) ?(max_rate = 2e6) ?(refine = 3) ~duration
    (worker : worker) =
  let probes = ref [] in
  let length rate =
    Float.max duration (float_of_int min_probe_requests /. rate)
  in
  let run rate =
    let r =
      run_at ~domains ~seed ~slo_us ~rate ~duration:(length rate) worker
    in
    probes := { p_rate = rate; p_result = r } :: !probes;
    r
  in
  (* If the starting rate is already past the knee, step down within
     [descent_budget] before giving up — keeps the search robust to slow
     hosts and to one probe's outlier p99. *)
  let rec descend rate spent =
    let r = run rate in
    let spent = spent +. length rate in
    let next = rate /. sqrt 2. in
    if sustainable ~slo_us r then Some (rate, r)
    else if spent +. length next > descent_budget then None
    else descend next spent
  in
  match descend start_rate 0. with
  | None -> { sustainable_rate = 0.; knee = None; probes = List.rev !probes }
  | Some (rate0, r0) ->
      (* Geometric ramp until the SLO breaks (or the cap). *)
      let lo = ref rate0 and lo_r = ref r0 in
      let hi = ref None in
      let rate = ref (rate0 *. 2.) in
      while !hi = None && !rate <= max_rate do
        let r = run !rate in
        if sustainable ~slo_us r then begin
          lo := !rate;
          lo_r := r;
          rate := !rate *. 2.
        end
        else hi := Some !rate
      done;
      (* Geometric-mean bisection between last good and first bad. *)
      (match !hi with
      | None -> ()
      | Some h ->
          let h = ref h in
          for _ = 1 to refine do
            let mid = sqrt (!lo *. !h) in
            let r = run mid in
            if sustainable ~slo_us r then begin
              lo := mid;
              lo_r := r
            end
            else h := mid
          done);
      { sustainable_rate = !lo; knee = Some !lo_r; probes = List.rev !probes }
