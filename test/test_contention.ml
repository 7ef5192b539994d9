(* Budgets, the serialised fallback and the progress rule that makes it
   one, retry accounting and remote-abort settlement. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let some_retries = Some 5

(* A transaction body that always conflicts (transparent retry request):
   the deterministic way to exhaust a budget. *)
let always_conflict () = ignore (Stm.retry_now ())

let test_budget_max_retries () =
  match
    Stm.atomic ~budget:{ Stm.max_retries = some_retries; max_seconds = None }
      always_conflict
  with
  | () -> Alcotest.fail "budgeted hopeless transaction returned"
  | exception Stm.Starved { attempts; elapsed } ->
      Alcotest.(check int) "max_retries 5 = 6 executions" 6 attempts;
      Alcotest.(check bool) "no deadline, elapsed unset" true (elapsed = 0.)

let test_budget_deadline () =
  let t0 = Unix.gettimeofday () in
  match
    Stm.atomic
      ~budget:{ Stm.max_retries = None; max_seconds = Some 0.02 }
      always_conflict
  with
  | () -> Alcotest.fail "deadlined hopeless transaction returned"
  | exception Stm.Starved { attempts; elapsed } ->
      Alcotest.(check bool) "some attempts happened" true (attempts >= 1);
      Alcotest.(check bool) "deadline respected" true (elapsed >= 0.02);
      Alcotest.(check bool) "did not run far past the deadline" true
        (Unix.gettimeofday () -. t0 < 2.)

let test_budget_not_raised_on_success () =
  let v = Tvar.make 0 in
  Stm.atomic ~budget:{ Stm.max_retries = Some 0; max_seconds = None } (fun () ->
      Tvar.set v 1);
  Alcotest.(check int) "committed first try under zero-retry budget" 1
    (Tvar.get v)

let test_on_starved_fallback () =
  let v = Tvar.make 0 in
  let r =
    Stm.atomic
      ~budget:{ Stm.max_retries = Some 2; max_seconds = None }
      ~on_starved:(fun () ->
        Stm.serialised (fun () ->
            Tvar.set v 7;
            "fallback"))
      (fun () ->
        ignore (Stm.retry_now ());
        "unreachable")
  in
  Alcotest.(check string) "fallback ran" "fallback" r;
  Alcotest.(check int) "fallback committed" 7 (Tvar.get v);
  Alcotest.(check int) "fallback released the commit region" 0
    (Stm.regions_held ())

let test_starved_counted () =
  Stm.reset_stats ();
  (try
     Stm.atomic ~budget:{ Stm.max_retries = Some 1; max_seconds = None }
       always_conflict
   with Stm.Starved _ -> ());
  Alcotest.(check int) "stat_starved" 1 (Stm.global_stats ()).starved

let test_serialised_basic () =
  let v = Tvar.make 10 in
  let r = Stm.serialised (fun () -> Tvar.modify v succ; Tvar.get v) in
  Alcotest.(check int) "serialised result" 11 r;
  Alcotest.(check int) "serialised committed" 11 (Tvar.get v);
  Alcotest.(check int) "regions released" 0 (Stm.regions_held ());
  (* Inside a transaction, [serialised] is just the enclosing transaction. *)
  let r = Stm.atomic (fun () -> Stm.serialised (fun () -> Tvar.get v)) in
  Alcotest.(check int) "nested serialised reads through" 11 r

(* A serialised transaction holds key 0's lock and stays parked until a
   writer to key 0 has reached its commit: the writer must defer to it in
   prepare rather than remote-abort it, and commit after it. *)
let test_deferral_to_serialised () =
  Stm.reset_stats ();
  let map = Map.create () in
  let held = Atomic.make false and writer_done = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get held) do
          Domain.cpu_relax ()
        done;
        Stm.atomic (fun () -> ignore (Map.put map 0 2));
        Atomic.set writer_done true)
  in
  let attempts = ref 0 in
  Stm.serialised (fun () ->
      incr attempts;
      ignore (Map.find map 0);
      Atomic.set held true;
      (* Park until the writer has deferred once; a writer that aborts us
         instead commits first, which also ends the wait. *)
      let deadline = Unix.gettimeofday () +. 5. in
      while
        (Stm.global_stats ()).deferrals = 0
        && (not (Atomic.get writer_done))
        && Unix.gettimeofday () < deadline
      do
        Domain.cpu_relax ()
      done;
      ignore (Map.put map 0 1));
  Domain.join writer;
  Alcotest.(check bool) "writer deferred" true
    ((Stm.global_stats ()).deferrals >= 1);
  Alcotest.(check int) "serialised ran once: never remote-aborted" 1 !attempts;
  Alcotest.(check (option int)) "writer committed after it" (Some 2)
    (Map.find map 0);
  Alcotest.(check int) "no region held" 0 (Stm.regions_held ())

let test_retry_histogram () =
  Stm.reset_stats ();
  let v = Tvar.make 0 in
  (* Commits with exactly 0 and exactly 2 retries. *)
  Stm.atomic (fun () -> Tvar.set v 1);
  let tries = ref 0 in
  Stm.atomic (fun () ->
      incr tries;
      if !tries <= 2 then ignore (Stm.retry_now ());
      Tvar.set v 2);
  let hist = Stm.retry_histogram () in
  Alcotest.(check int) "bucket 0 (no retries)" 1 hist.(0);
  Alcotest.(check int) "bucket 2 (2 retries)" 1 hist.(2);
  Alcotest.(check int) "total completions" 2
    (Array.fold_left ( + ) 0 hist)

let test_remote_abort_outcomes () =
  Stm.reset_stats ();
  (* Too_late: the auto-commit handle is already committed. *)
  let h = Stm.current () in
  Alcotest.(check bool) "too late on committed" true
    (Stm.remote_abort_outcome h = Stm.Too_late);
  Alcotest.(check bool) "remote_abort mirrors too-late as false" false
    (Stm.remote_abort h);
  (* Delivered: abort a live transaction parked in another domain. *)
  let mailbox = Atomic.make None in
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let v = Tvar.make 0 in
        Stm.atomic (fun () ->
            Tvar.modify v succ;
            if Tvar.get v = 1 then begin
              Atomic.set mailbox (Some (Stm.current ()));
              (* Park until the abort is delivered (we are then retried)
                 or a bound elapses. *)
              let spins = ref 0 in
              while Atomic.get outcome = None && !spins < 50_000_000 do
                incr spins
              done
            end))
  in
  let rec wait () =
    match Atomic.get mailbox with Some h -> h | None -> wait ()
  in
  let victim = wait () in
  let o = Stm.remote_abort_outcome victim in
  Atomic.set outcome (Some o);
  Domain.join d;
  Alcotest.(check bool) "delivered to live victim" true (o = Stm.Delivered);
  let s = Stm.global_stats () in
  Alcotest.(check int) "delivered counted" 1 s.remote_aborts_delivered;
  Alcotest.(check int) "late counted (both probes above)" 2 s.remote_aborts_late;
  Alcotest.(check int) "victim retry counted" 1 s.remote_aborts

(* ---------------- forced starvation scenario ---------------- *)

let test_fallback_completes () =
  (* A budget with the serialised fallback: every starved round reruns
     serialised, which short committers defer to, so every round
     commits. *)
  let r =
    Harness.Starvation.run ~fallback:true
      ~budget:{ Stm.max_retries = Some 8; max_seconds = None }
      ~rounds:15 ~keys:32 ~short_domains:3 ()
  in
  Alcotest.(check int) "all long-writer rounds completed" r.rounds r.completed;
  Alcotest.(check int) "no region leaked" 0 (Stm.regions_held ())

let test_backoff_budget_accounting () =
  (* Same schedule under plain backoff with a budget: every round either
     completes or is counted starved — nothing is lost or wedged. *)
  let r =
    Harness.Starvation.run
      ~budget:{ Stm.max_retries = Some 8; max_seconds = None }
      ~rounds:10 ~keys:32 ~short_domains:3 ()
  in
  Alcotest.(check int) "completed + starved = rounds" r.rounds
    (r.completed + r.starved);
  Alcotest.(check int) "no region leaked either way" 0 (Stm.regions_held ())

let suites =
  [
    ( "stm.contention",
      [
        Alcotest.test_case "budget max_retries -> Starved" `Quick
          test_budget_max_retries;
        Alcotest.test_case "budget deadline -> Starved" `Quick
          test_budget_deadline;
        Alcotest.test_case "budget unused on success" `Quick
          test_budget_not_raised_on_success;
        Alcotest.test_case "on_starved fallback (serialised)" `Quick
          test_on_starved_fallback;
        Alcotest.test_case "starvation counted" `Quick test_starved_counted;
        Alcotest.test_case "serialised" `Quick test_serialised_basic;
        Alcotest.test_case "committers defer to serialised" `Quick
          test_deferral_to_serialised;
        Alcotest.test_case "retry histogram" `Quick test_retry_histogram;
        Alcotest.test_case "remote abort outcomes" `Quick
          test_remote_abort_outcomes;
      ] );
    ( "stm.starvation",
      [
        Alcotest.test_case "fallback: every round completes" `Quick
          test_fallback_completes;
        Alcotest.test_case "backoff+budget: rounds accounted" `Quick
          test_backoff_budget_accounting;
      ] );
  ]
