(* Admission control: a process-wide token-bucket gate in front of
   [Stm.atomic], plus an overload policy deciding what happens to traffic
   the gate (or a transaction budget) rejects.

   Open-loop traffic does not slow down when the system saturates — the
   arrival rate is set by the outside world ({!Openloop}).  Without a
   gate, offered load past the knee of the throughput/latency curve makes
   every queue grow without bound: p99 explodes and goodput (requests
   completing within their deadline) collapses even though raw commit
   throughput looks fine.  The gate holds admitted load at a configured
   sustainable rate:

   - [Shed]: overflow is rejected immediately with the typed
     [Overloaded] exception.  Admitted requests run at the configured
     rate and keep pre-knee latency.
   - [Serialise]: overflow is routed through [Stm.serialised] — the
     process-wide fallback commit region — so excess transactions trickle
     through one at a time instead of amplifying contention.  Nothing is
     rejected, at the price of overflow latency.

   An *admitted* transaction that exhausts its retry/time budget
   ([Stm.Starved]) is handed to the overload path as well: starvation
   under load is overload, so Shed turns it into a typed rejection and
   Serialise into a guaranteed (serial) completion.

   Ledger: every gated [run] call increments exactly one of [admitted],
   [shed] or [serialised_overflow].  The counters are plain atomics: each
   gated call already takes the gate's mutex, so they add no new point of
   contention. *)

module Stm = Tcc_stm.Stm

exception Overloaded
(* Typed rejection: the gate runs the [Shed] policy and either had no
   token for this request or the admitted transaction starved.  The
   request ran no effects; the caller (load balancer, open-loop generator)
   decides whether to retry later, degrade, or count the shed. *)

type overload_policy =
  | Shed  (* reject: raise [Overloaded] without running the body *)
  | Serialise  (* degrade: run the body via [Stm.serialised] *)

type gate = {
  g_rate : float; (* tokens per second *)
  g_burst : float; (* bucket capacity *)
  g_policy : overload_policy;
  g_budget : Stm.budget option; (* default budget for admitted transactions *)
  g_lock : Mutex.t;
  mutable g_tokens : float;
  mutable g_last : float;
}

let gate : gate option Atomic.t = Atomic.make None
let n_admitted = Atomic.make 0
let n_shed = Atomic.make 0
let n_serialised = Atomic.make 0

(* Install the process-wide gate: a token bucket refilled at [rate]
   tokens/second holding at most [burst] tokens (default 64).  [?budget]
   applies to admitted transactions that do not pass their own, so
   starvation feeds the overload policy. *)
let configure ?(burst = 64) ?budget ~rate ~policy () =
  if rate <= 0. then
    invalid_arg "Harness.Admission.configure: rate must be positive";
  Atomic.set gate
    (Some
       {
         g_rate = rate;
         g_burst = float_of_int (max 1 burst);
         g_policy = policy;
         g_budget = budget;
         g_lock = Mutex.create ();
         g_tokens = float_of_int (max 1 burst);
         g_last = Stm.Monoclock.now ();
       })

(* Remove the gate: [run] becomes plain [Stm.atomic]. *)
let disable () = Atomic.set gate None
let enabled () = Option.is_some (Atomic.get gate)

(* Lazy refill under the gate mutex: the bucket is a contended shared
   resource by design (it *is* the throttle), and the critical section is
   a handful of float operations. *)
let try_admit g =
  Mutex.protect g.g_lock (fun () ->
      let now = Stm.Monoclock.now () in
      (* The clock is clamped monotone, but the refill keeps its own
         guard: a gate configured on one domain and refilled on another
         orders [g_last] through the gate mutex, not the clock CAS, so
         never let a stale reading drain the bucket. *)
      let tokens =
        Float.min g.g_burst
          (g.g_tokens +. (Float.max 0. (now -. g.g_last) *. g.g_rate))
      in
      g.g_last <- now;
      if tokens >= 1.0 then begin
        g.g_tokens <- tokens -. 1.0;
        true
      end
      else begin
        g.g_tokens <- tokens;
        false
      end)

let overflow g f =
  match g.g_policy with
  | Shed ->
      Atomic.incr n_shed;
      raise Overloaded
  | Serialise ->
      Atomic.incr n_serialised;
      Stm.serialised f

(* [run f] is [Stm.atomic f] through the gate.  With no gate configured it
   is exactly [Stm.atomic], and so is a call that cannot start a top-level
   transaction: one nested inside a transaction (the enclosing top level
   was already admitted) or inside a snapshot section (which [Stm.atomic]
   rejects).  Otherwise it takes a token or invokes the overload policy;
   an admitted run that raises [Stm.Starved] goes to the overload policy
   too.  Any other exception escaping an admitted run still counts the
   admission before propagating, so the ledger holds on every path. *)
let run ?budget f =
  match Atomic.get gate with
  | Some g when not (Stm.in_txn () || Stm.in_snapshot ()) ->
      if try_admit g then begin
        let budget = match budget with Some _ -> budget | None -> g.g_budget in
        match Stm.atomic ?budget f with
        | r ->
            Atomic.incr n_admitted;
            r
        | exception Stm.Starved _ -> overflow g f
        | exception e ->
            Atomic.incr n_admitted;
            raise e
      end
      else overflow g f
  | _ -> Stm.atomic ?budget f

let admitted () = Atomic.get n_admitted
let shed () = Atomic.get n_shed
let serialised_overflow () = Atomic.get n_serialised
