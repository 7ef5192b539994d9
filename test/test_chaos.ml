(* Seeded fault injection: handler exception safety, chaos determinism and
   the linearizability-checked soak matrix of the acceptance criteria. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Chaos = Harness.Chaos
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

exception Boom of int

(* ---------------- handler exception safety ---------------- *)

let test_commit_handlers_all_run () =
  let ran = ref [] in
  let v = Tvar.make 0 in
  (match
     Stm.atomic (fun () ->
         Tvar.set v 1;
         Stm.on_commit (fun () -> ran := 1 :: !ran);
         Stm.on_commit (fun () -> raise (Boom 2));
         Stm.on_commit (fun () -> ran := 3 :: !ran))
   with
  | () -> Alcotest.fail "expected Handler_failure"
  | exception Stm.Handler_failure { committed; failures } ->
      Alcotest.(check bool) "transaction committed" true committed;
      Alcotest.(check int) "one failure aggregated" 1 (List.length failures);
      Alcotest.(check bool) "the raised exception is preserved" true
        (match failures with [ Boom 2 ] -> true | _ -> false));
  Alcotest.(check (list int)) "both surviving handlers ran, in order" [ 1; 3 ]
    (List.rev !ran);
  Alcotest.(check int) "memory effects are in place" 1 (Tvar.get v);
  Alcotest.(check int) "commit regions released" 0 (Stm.regions_held ())

let test_abort_handlers_all_run_and_release () =
  Stm.reset_stats ();
  let map = Map.create () in
  let ran = ref [] in
  (match
     Stm.atomic (fun () ->
         ignore (Map.put map 1 10);
         (* Registered after the map's own handlers: runs first (newest
            first) and raises. *)
         Stm.on_abort (fun () -> ran := `Mine :: !ran);
         Stm.on_abort (fun () -> raise (Boom 1));
         ignore (Stm.self_abort ()))
   with
  | () -> Alcotest.fail "expected Handler_failure"
  | exception Stm.Handler_failure { committed; failures } ->
      Alcotest.(check bool) "not committed" false committed;
      Alcotest.(check int) "one failure" 1 (List.length failures));
  Alcotest.(check bool) "later abort handler still ran" true
    (List.mem `Mine !ran);
  Alcotest.(check (option int)) "write rolled back" None (Map.find map 1);
  Alcotest.(check int) "semantic locks released despite raising handler" 0
    (Map.outstanding_locks map);
  Alcotest.(check int) "handler failures counted" 1
    (Stm.global_stats ()).handler_failures

let test_abort_handler_failure_stops_retry () =
  (* A raising abort handler turns a transparent retry into a surfaced
     Handler_failure { committed = false } instead of looping forever. *)
  let attempts = ref 0 in
  match
    Stm.atomic (fun () ->
        incr attempts;
        Stm.on_abort (fun () -> raise (Boom !attempts));
        ignore (Stm.retry_now ()))
  with
  | () -> Alcotest.fail "expected Handler_failure"
  | exception Stm.Handler_failure { committed; _ } ->
      Alcotest.(check bool) "not committed" false committed;
      Alcotest.(check int) "no silent retry loop" 1 !attempts

(* ---------------- determinism ---------------- *)

let test_chaos_determinism () =
  (* Single domain: the whole schedule is deterministic, so two runs with
     the same seed must produce the same injection counts and final
     contents, for the map/sorted/queue mix and the derived one. *)
  List.iter
    (fun (mix, run) ->
      let soak seed =
        run (Chaos.default_soak ~domains:1 ~ops_per_domain:800 ~seed 0.1)
      in
      let a : Chaos.report = soak 42 and b = soak 42 in
      let check what = Alcotest.(check bool) (mix ^ ": " ^ what) true in
      check "run A converged" a.ok;
      check "run B converged" b.ok;
      Alcotest.(check string)
        (mix ^ ": identical fingerprints for identical seeds")
        a.fingerprint b.fingerprint;
      check "injections actually happened"
        (let c, r, h, d = a.injections in
         c + r + h + d > 0);
      check "identical injection schedules" (a.injections = b.injections);
      check "different seed still converges" (soak 43).ok)
    [ ("soak", Chaos.run_soak); ("derived", Chaos.run_derived_soak) ]

(* ---------------- acceptance soak matrix ---------------- *)

let test_soak_matrix () =
  (* p in {0.01, 0.05, 0.2} x 3 seeds, 2 domains, all three collection
     classes; every run must pass the linearizability and leak checks
     inside [run_soak]. *)
  List.iter
    (fun p ->
      List.iter
        (fun seed ->
          let r =
            Chaos.run_soak
              (Chaos.default_soak ~domains:2 ~ops_per_domain:500 ~seed p)
          in
          if not r.ok then
            Alcotest.failf "soak p=%.2f seed=%d: %s" p seed
              (String.concat "; " r.errors);
          Alcotest.(check bool)
            (Printf.sprintf "work committed (p=%.2f seed=%d)" p seed)
            true (r.committed > 0))
        [ 1; 2; 3 ])
    [ 0.01; 0.05; 0.2 ]

let test_snapshot_reader_soak () =
  (* Snapshot readers concurrent with injected writers: every snapshot
     section must observe a prefix-consistent cut — mirror map/sorted
     writes never torn, fold counts equal to sizes, tvar pairs equal,
     reads pinned.  Seeds match the CI chaos matrix. *)
  List.iter
    (fun seed ->
      let r =
        Chaos.run_snapshot_soak
          (Chaos.default_soak ~domains:2 ~ops_per_domain:600 ~key_space:48
             ~seed 0.05)
      in
      if not r.ok then
        Alcotest.failf "snapshot soak seed=%d: %s" seed
          (String.concat "; " r.errors);
      Alcotest.(check bool)
        (Printf.sprintf "snapshots observed (seed=%d)" seed)
        true
        (List.assoc "snapshots" r.counts > 0 && r.committed > 0))
    [ 1; 2; 3 ]

(* ---------------- remote-abort settlement vs snapshot readers -------- *)

let test_remote_abort_settlement_vs_snapshots () =
  (* Every [remote_abort_outcome] call settles to exactly one of
     Delivered / Already_aborted / Too_late, the stats ledger matches the
     callers' tallies exactly, and nothing leaks — while concurrent
     [Stm.snapshot] readers pin timestamps through the abort traffic. *)
  Stm.reset_stats ();
  let map = Map.create () in
  for k = 0 to 15 do
    ignore (Map.put map k k)
  done;
  (* Deterministic settlement, single domain.  A committed transaction's
     handle settles Too_late (it serialises before the caller)... *)
  let v = Tvar.make 0 in
  let h = ref None in
  Stm.atomic (fun () ->
      h := Some (Stm.current ());
      Tvar.set v 1);
  (match Stm.remote_abort_outcome (Option.get !h) with
  | Stm.Too_late -> ()
  | _ -> Alcotest.fail "committed handle must settle Too_late");
  (* ...a first self-delivery wins the status race, and a second call in
     the same window finds the target already aborting. *)
  let first = ref true in
  let o1 = ref Stm.Too_late and o2 = ref Stm.Too_late in
  Stm.atomic (fun () ->
      Tvar.set v 2;
      if !first then begin
        first := false;
        o1 := Stm.remote_abort_outcome (Stm.current ());
        o2 := Stm.remote_abort_outcome (Stm.current ())
      end);
  Alcotest.(check bool) "first delivery wins the race" true
    (!o1 = Stm.Delivered);
  Alcotest.(check bool) "second call settles Already_aborted" true
    (!o2 = Stm.Already_aborted);
  Alcotest.(check int) "the aborted attempt retried and committed" 2
    (Tvar.get v);
  (* Racing settlement: an attacker fires outcomes at a running victim
     while a snapshot reader loops pinned sections over the same map.  The
     victim starts once the reader has finished one pinned section, so the
     reader cannot miss the whole race. *)
  let stop = Atomic.make false in
  let reader_pinned = Atomic.make false in
  let victim_handle = Atomic.make None in
  let victim =
    Domain.spawn (fun () ->
        while not (Atomic.get reader_pinned) do
          Domain.cpu_relax ()
        done;
        let committed = ref 0 in
        for i = 1 to 300 do
          Stm.atomic (fun () ->
              Atomic.set victim_handle (Some (Stm.current ()));
              ignore (Map.put map (i mod 16) i);
              for _ = 1 to 50 do
                Domain.cpu_relax ()
              done);
          incr committed
        done;
        !committed)
  in
  let reader =
    Domain.spawn (fun () ->
        let snaps = ref 0 and errs = ref 0 in
        while not (Atomic.get stop) do
          Stm.snapshot (fun () ->
              incr snaps;
              let n = Map.fold (fun _ _ n -> n + 1) map 0 in
              if n <> Map.size map then incr errs;
              let a = Map.find map 0 in
              if Map.find map 0 <> a then incr errs);
          Atomic.set reader_pinned true
        done;
        (!snaps, !errs))
  in
  let delivered = ref 0 and late = ref 0 and already = ref 0 in
  for _ = 1 to 400 do
    (match Atomic.get victim_handle with
    | None -> ()
    | Some h -> (
        match Stm.remote_abort_outcome h with
        | Stm.Delivered -> incr delivered
        | Stm.Too_late -> incr late
        | Stm.Already_aborted -> incr already));
    for _ = 1 to 200 do
      Domain.cpu_relax ()
    done
  done;
  let committed = Domain.join victim in
  Atomic.set stop true;
  let snaps, reader_errs = Domain.join reader in
  Alcotest.(check int) "victim completed every transaction despite aborts"
    300 committed;
  Alcotest.(check int) "snapshot reader saw no inconsistency" 0 reader_errs;
  Alcotest.(check bool) "reader pinned snapshots through the abort traffic"
    true (snaps > 0);
  (* The settlement ledger is exact: one Delivered and one Too_late from
     the deterministic phase, plus the attacker's tallies; Already_aborted
     is deliberately uncounted (no stat moves). *)
  let st = Stm.global_stats () in
  Alcotest.(check int) "delivered settlements counted exactly"
    (1 + !delivered) st.remote_aborts_delivered;
  Alcotest.(check int) "late settlements counted exactly" (1 + !late)
    st.remote_aborts_late;
  Alcotest.(check int) "no leaked semantic locks" 0
    (Map.outstanding_locks map);
  Alcotest.(check int) "no held commit regions" 0 (Stm.regions_held ());
  Alcotest.(check int) "all transactions settled (quiescent)" 0
    (Stm.in_flight_transactions ())

let test_soak_failure_prefix () =
  let sc = Chaos.default_soak ~domains:2 ~seed:7 0.05 in
  (* A failing report names the seed and section, and replays from the
     seed alone. *)
  let expected = "[seed=7 section=soak.final last_injection=" in
  let prefix = Chaos.soak_context sc ~section:"soak.final" in
  Alcotest.(check string) "failure prefix names seed and section" expected
    (String.sub prefix 0 (min (String.length prefix) (String.length expected)));
  Alcotest.(check string) "repro line"
    "reproduce: CHAOS_SEEDS=7 dune exec bench/main.exe -- chaos"
    (Chaos.repro_hint ~target:"chaos" sc.chaos)

(* ---------------- failover (kill/recover) soak ---------------- *)

let test_failover_soak () =
  (* Kill a master place mid-traffic and recover it from its slave, under
     chaos injection, across 2 seeds x both replication modes: zero lost
     committed writes, bounded lazy lag, snapshot readers running
     throughout.  The 40-op quota is short enough that the writers used to
     finish it inside the final kill window; the post-recovery tail must
     still land commits after the last failover. *)
  List.iter
    (fun ops_per_domain ->
      List.iter
        (fun mode ->
          List.iter
            (fun seed ->
              let r =
                Chaos.run_failover_soak
                  (Chaos.default_failover ~domains:2 ~ops_per_domain
                     ~places:4 ~key_space:96 ~kills:2 ~mode ~seed 0.05)
              in
              if not r.ok then
                Alcotest.failf "failover soak ops=%d seed=%d mode=%s: %s"
                  ops_per_domain seed (Chaos.mode_name mode)
                  (String.concat "; " r.errors);
              Alcotest.(check bool)
                (Printf.sprintf "kills executed (ops=%d seed=%d %s)"
                   ops_per_domain seed (Chaos.mode_name mode))
                true
                (List.assoc "kills" r.counts = 2))
            [ 11; 12 ])
        [ Places.Eager; Places.Lazy { max_lag = 8 } ])
    [ 600; 40 ]

let suites =
  [
    ( "stm.handler-safety",
      [
        Alcotest.test_case "raising commit handler skips nothing" `Quick
          test_commit_handlers_all_run;
        Alcotest.test_case "raising abort handler leaks nothing" `Quick
          test_abort_handlers_all_run_and_release;
        Alcotest.test_case "abort-handler failure surfaces, no retry loop"
          `Quick test_abort_handler_failure_stops_retry;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "same seed, same schedule and contents" `Quick
          test_chaos_determinism;
        Alcotest.test_case "soak matrix (3 probs x 3 seeds)" `Slow
          test_soak_matrix;
        Alcotest.test_case "soak failure prefix" `Quick
          test_soak_failure_prefix;
        Alcotest.test_case "snapshot readers vs injected writers" `Quick
          test_snapshot_reader_soak;
        Alcotest.test_case "remote-abort settlement races snapshot readers"
          `Quick test_remote_abort_settlement_vs_snapshots;
        Alcotest.test_case "failover soak: kill/recover, zero lost writes"
          `Quick test_failover_soak;
      ] );
  ]
