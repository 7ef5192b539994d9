(* Open-loop harness pieces: the Hdr histogram's accuracy contract, the
   admission gate's rejection ledger and the Poisson generator's request
   accounting. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Hdr = Harness.Hdr
module Chaos = Harness.Chaos
module OL = Harness.Openloop
module Admission = Harness.Admission

(* ---------------- Hdr histogram ---------------- *)

let test_hdr_exact_below_64 () =
  (* Values under [sub_count] land in width-1 slots: percentiles are
     exact order statistics, not bucket midpoints. *)
  let h = Hdr.create () in
  for v = 0 to 63 do
    Hdr.record_ns h v
  done;
  Alcotest.(check int) "count" 64 (Hdr.count h);
  Alcotest.(check int) "p50 exact" 31 (Hdr.percentile_ns h 0.50);
  Alcotest.(check int) "p99 exact" 63 (Hdr.percentile_ns h 0.99);
  Alcotest.(check int) "p100 is the max" 63 (Hdr.percentile_ns h 1.0)

(* Log-uniform sample over [1, 5e8] ns — six decades, like a latency
   distribution with a heavy tail. *)
let sample n =
  let rng = Chaos.stream_of_seed 0x4d31 7 in
  Array.init n (fun _ ->
      1 + int_of_float (exp (Chaos.rand_float rng *. log 5e8)))

let exact_percentile sorted q =
  let n = Array.length sorted in
  let rank =
    let r = int_of_float (ceil (q *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  sorted.(rank - 1)

let test_hdr_accuracy () =
  (* The layout guarantees worst-case relative error 1/32 (slot width /
     smallest value in the octave) across the whole range; check the
     reported percentile against the exact sorted order statistic. *)
  let xs = sample 20_000 in
  let h = Hdr.create () in
  Array.iter (Hdr.record_ns h) xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let exact = exact_percentile sorted q in
      let approx = Hdr.percentile_ns h q in
      let tol = (exact / 32) + 1 in
      if abs (approx - exact) > tol then
        Alcotest.failf "p%g: hdr %d vs exact %d (tol %d)" (q *. 100.)
          approx exact tol)
    [ 0.50; 0.90; 0.99; 0.999 ];
  let max_v = sorted.(Array.length sorted - 1) in
  let p100 = Hdr.percentile_ns h 1.0 in
  Alcotest.(check bool) "p100 never over-reports the max" true
    (p100 <= max_v && max_v - p100 <= (max_v / 32) + 1)

let test_hdr_merge () =
  (* Recording a stream into one histogram and recording its halves into
     two then merging must be indistinguishable. *)
  let xs = sample 8_000 in
  let whole = Hdr.create () in
  Array.iter (Hdr.record_ns whole) xs;
  let a = Hdr.create () and b = Hdr.create () in
  Array.iteri (fun i v -> Hdr.record_ns (if i land 1 = 0 then a else b) v) xs;
  Hdr.merge ~into:a b;
  Alcotest.(check int) "count" (Hdr.count whole) (Hdr.count a);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%g" (q *. 100.))
        (Hdr.percentile_ns whole q) (Hdr.percentile_ns a q))
    [ 0.50; 0.90; 0.99; 0.999; 1.0 ];
  Alcotest.(check (float 1e-9) "mean" (Hdr.mean_us whole) (Hdr.mean_us a))

let test_hdr_p99_exact_parity () =
  (* [p99_us] replaced an inline concat-sort-index block at every
     closed-loop bench site; it must reproduce that block bit for bit so
     the p99 columns of the bench tables stay comparable across
     versions. *)
  let rng = Chaos.stream_of_seed 0x99 3 in
  let lats =
    List.init 4 (fun _ ->
        Array.init 500 (fun _ -> Chaos.rand_float rng *. 1e-3))
  in
  let legacy =
    let all = Array.concat lats in
    Array.sort Float.compare all;
    let n = Array.length all in
    all.(min (n - 1) (n * 99 / 100)) *. 1e6
  in
  Alcotest.(check (float 0.)) "bit-for-bit" legacy (Hdr.p99_us lats);
  Alcotest.(check (float 0.)) "empty input" 0. (Hdr.p99_us [ [||] ])

(* ---------------- admission control ---------------- *)

let with_gate ~policy ?(rate = 100.) ?(burst = 5) f =
  Fun.protect
    ~finally:(fun () -> Admission.disable ())
    (fun () ->
      Admission.configure ~rate ~burst ~policy ();
      f ())

(* Counter deltas around [f]: (admitted, shed, serialised_overflow). *)
let ledger_deltas f =
  let a0 = Admission.admitted ()
  and s0 = Admission.shed ()
  and o0 = Admission.serialised_overflow () in
  f ();
  ( Admission.admitted () - a0,
    Admission.shed () - s0,
    Admission.serialised_overflow () - o0 )

let test_admission_shed_ledger () =
  (* A burst far above the token rate: the bucket's initial [burst]
     tokens admit the head of the burst, the rest raise Overloaded.
     Every call lands in exactly one ledger column. *)
  let tv = Tvar.make 0 in
  let calls = 200 in
  let ok = ref 0 and over = ref 0 in
  let adm, shed, ser =
    ledger_deltas (fun () ->
        with_gate ~policy:Admission.Shed (fun () ->
            Alcotest.(check bool) "gate enabled" true (Admission.enabled ());
            for _ = 1 to calls do
              match
                Admission.run (fun () -> Tvar.set tv (Tvar.get tv + 1))
              with
              | () -> incr ok
              | exception Admission.Overloaded -> incr over
            done))
  in
  Alcotest.(check int) "every call accounted" calls (!ok + !over);
  Alcotest.(check int) "admitted ledger matches returns" !ok adm;
  Alcotest.(check int) "shed ledger matches Overloaded raises" !over shed;
  Alcotest.(check int) "no serialised overflow under Shed" 0 ser;
  Alcotest.(check bool) "burst admitted" true (!ok >= 5);
  Alcotest.(check bool) "excess shed" true (!over > 0);
  Alcotest.(check int) "only admitted bodies committed" !ok (Tvar.get tv)

let test_admission_serialise_ledger () =
  (* Same burst under Serialise: nothing is rejected — overflow routes
     through the serialised fallback, so every body commits. *)
  let tv = Tvar.make 0 in
  let calls = 200 in
  let adm, shed, ser =
    ledger_deltas (fun () ->
        with_gate ~policy:Admission.Serialise (fun () ->
            for _ = 1 to calls do
              Admission.run (fun () -> Tvar.set tv (Tvar.get tv + 1))
            done))
  in
  Alcotest.(check int) "every call admitted or serialised" calls (adm + ser);
  Alcotest.(check int) "nothing shed under Serialise" 0 shed;
  Alcotest.(check bool) "overflow went serialised" true (ser > 0);
  Alcotest.(check int) "every body committed exactly once" calls
    (Tvar.get tv)

let test_admission_stats_surface () =
  (* [disable] restores plain (unledgered) atomic. *)
  Alcotest.(check bool) "no gate outside with_gate" false
    (Admission.enabled ());
  let tv = Tvar.make 0 in
  let adm, shed, ser =
    ledger_deltas (fun () ->
        for _ = 1 to 50 do
          Admission.run (fun () -> Tvar.set tv (Tvar.get tv + 1))
        done)
  in
  Alcotest.(check (list int)) "ungated runs leave the ledger untouched"
    [ 0; 0; 0 ] [ adm; shed; ser ];
  Alcotest.(check int) "but still commit" 50 (Tvar.get tv)

exception User_boom

let test_admission_exception_counted () =
  (* Regression: a user exception escaping an admitted body used to leave
     the ledger with no column incremented for that call (only [Starved]
     was caught).  The admission was consumed, so it must be counted
     before the exception propagates: exactly one column per call on
     every path. *)
  let raised = ref 0 and ok = ref 0 in
  let adm, shed, ser =
    ledger_deltas (fun () ->
        with_gate ~policy:Admission.Shed ~rate:1e6 ~burst:50 (fun () ->
            for i = 1 to 40 do
              match
                Admission.run (fun () ->
                    if i mod 2 = 0 then raise User_boom)
              with
              | () -> incr ok
              | exception User_boom -> incr raised
            done))
  in
  Alcotest.(check int) "exceptions propagated" 20 !raised;
  Alcotest.(check int) "clean bodies returned" 20 !ok;
  Alcotest.(check int) "every call admitted exactly once" 40 adm;
  Alcotest.(check int) "nothing shed" 0 shed;
  Alcotest.(check int) "nothing serialised" 0 ser

let test_admission_nested_not_gated () =
  (* A transaction already in flight was admitted at its top level:
     nested Admission.run calls must not consume tokens or raise. *)
  let tv = Tvar.make 0 in
  with_gate ~policy:Admission.Shed ~rate:1e-3 ~burst:1 (fun () ->
      Stm.atomic (fun () ->
          for _ = 1 to 20 do
            Admission.run (fun () -> Tvar.set tv (Tvar.get tv + 1))
          done));
  Alcotest.(check int) "all nested bodies ran" 20 (Tvar.get tv)

(* ---------------- monotonic clock ---------------- *)

let test_monoclock_never_backwards () =
  (* Regression: budget timing, admission refill and open-loop pacing now
     read [Stm.Monoclock], which clamps [gettimeofday] so a backward NTP
     step can never drain the token bucket or record negative
     latencies. *)
  let prev = ref (Stm.Monoclock.now ()) in
  for _ = 1 to 10_000 do
    let t = Stm.Monoclock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %.9f < %.9f" t !prev;
    prev := t
  done;
  (* The clamp is process-global: a sample taken after joining a domain
     is never older than the domain's last sample. *)
  let other = Domain.join (Domain.spawn (fun () -> Stm.Monoclock.now ())) in
  Alcotest.(check bool) "cross-domain monotone" true
    (Stm.Monoclock.now () >= other)

(* ---------------- open-loop generator ---------------- *)

let test_openloop_accounting () =
  (* Every scheduled arrival ends up in exactly one of completed / shed /
     dropped, and a healthy low-rate run completes its schedule. *)
  let hits = Atomic.make 0 in
  let worker ~domain:_ () = Atomic.incr hits in
  let r = OL.run_at ~domains:1 ~rate:2000. ~duration:0.25 worker in
  Alcotest.(check bool) "scheduled some" true (r.OL.scheduled > 0);
  Alcotest.(check int) "conservation" r.OL.scheduled
    (r.OL.completed + r.OL.shed + r.OL.dropped);
  Alcotest.(check int) "worker ran per completion" r.OL.completed
    (Atomic.get hits);
  Alcotest.(check bool) "healthy run completes >= 95%" true
    (float_of_int r.OL.completed
    >= 0.95 *. float_of_int r.OL.scheduled);
  Alcotest.(check bool) "percentiles ordered" true
    (r.OL.p50_us <= r.OL.p99_us && r.OL.p99_us <= r.OL.p999_us)

let test_openloop_shed_counted () =
  (* Admission.Overloaded out of the worker is shed, not completed and not a
     crash; everything else still conserves. *)
  let worker ~domain:_ =
    let i = ref 0 in
    fun () ->
      incr i;
      if !i mod 3 = 0 then raise Admission.Overloaded
  in
  let r = OL.run_at ~domains:1 ~rate:2000. ~duration:0.25 worker in
  Alcotest.(check bool) "some shed" true (r.OL.shed > 0);
  Alcotest.(check bool) "some completed" true (r.OL.completed > 0);
  Alcotest.(check int) "conservation with shedding" r.OL.scheduled
    (r.OL.completed + r.OL.shed + r.OL.dropped)

let test_rate_search_finds_knee () =
  (* A trivial service at a tiny rate cap: the search must return a
     sustainable knee with probes recorded in execution order. *)
  let worker ~domain:_ () = () in
  let s =
    OL.rate_search ~domains:1 ~start_rate:200. ~max_rate:800. ~refine:1
      ~duration:0.1 worker
  in
  Alcotest.(check bool) "knee found" true (s.OL.sustainable_rate > 0.);
  Alcotest.(check bool) "knee result present" true (s.OL.knee <> None);
  Alcotest.(check bool) "probes recorded" true (List.length s.OL.probes >= 2);
  let knee = Option.get s.OL.knee in
  Alcotest.(check bool) "knee is sustainable" true
    (knee.OL.dropped = 0 && knee.OL.shed = 0)

let suites =
  [
    ( "harness.hdr",
      [
        Alcotest.test_case "exact below 64" `Quick test_hdr_exact_below_64;
        Alcotest.test_case "accuracy vs exact sort" `Quick test_hdr_accuracy;
        Alcotest.test_case "merge equivalence" `Quick test_hdr_merge;
        Alcotest.test_case "p99_us legacy parity" `Quick
          test_hdr_p99_exact_parity;
      ] );
    ( "stm.admission",
      [
        Alcotest.test_case "shed ledger" `Quick test_admission_shed_ledger;
        Alcotest.test_case "serialise ledger" `Quick
          test_admission_serialise_ledger;
        Alcotest.test_case "stats surface" `Quick test_admission_stats_surface;
        Alcotest.test_case "user exception still counted" `Quick
          test_admission_exception_counted;
        Alcotest.test_case "nested calls not gated" `Quick
          test_admission_nested_not_gated;
      ] );
    ( "harness.openloop",
      [
        Alcotest.test_case "monotonic clock" `Quick
          test_monoclock_never_backwards;
        Alcotest.test_case "request accounting" `Quick
          test_openloop_accounting;
        Alcotest.test_case "overloaded counts as shed" `Quick
          test_openloop_shed_counted;
        Alcotest.test_case "rate search finds a knee" `Slow
          test_rate_search_finds_knee;
      ] );
  ]
