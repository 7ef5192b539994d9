(* Benchmark and experiment driver: regenerates every table and figure of
   the paper's evaluation plus the ablations, runs Bechamel
   micro-benchmarks of the host implementation, and runs the soaks and the
   open loop.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig1    -- one experiment
     targets: table1 table2 table3 table4 table5 table6 table7 table8 table9
              fig1 fig2 fig3 fig4 ablation hostmap jbbhost queue micro
              stmscale derived openloop chaos failover starve

   Figures print simulated-cycle speedups normalised to the 1-CPU
   lock-based run, with violation counts underneath (see EXPERIMENTS.md for
   the paper-vs-measured comparison).

   The targets table1, table7, stmscale, derived, openloop, chaos,
   failover and starve, and ablation's redo-vs-undo audit, check their own
   gates: one line per gate, and a non-zero exit once the requested
   targets have run if any gate failed.  table1 races every derived
   class's operation pairs on small states and gates 0 runs that differ
   from the serial run in commit order. *)

let ppf = Fmt.stdout

(* ------------------------------------------------------------------ *)
(* Gates.  [gate] prints [ok|FAIL|skip <gate>: fresh=<v> bound=<b>] and
   records a failure; main exits non-zero after the requested
   targets have run, so every gate of a target runs before the exit. *)

let failed_gates = ref []

let gate ?(skip = false) name ~fresh ~bound pass =
  let verdict =
    if skip then "skip"
    else if pass then "ok"
    else begin
      failed_gates := name :: !failed_gates;
      "FAIL"
    end
  in
  Fmt.pf ppf "  %s %s: fresh=%s bound=%s@." verdict name fresh bound

let gate_eq name fresh bound =
  gate name ~fresh:(string_of_int fresh) ~bound:(string_of_int bound)
    (fresh = bound)

(* A float floor; NaN (a missing or degenerate row) fails it. *)
let gate_ge name fresh bound =
  gate name ~fresh:(Printf.sprintf "%.3f" fresh)
    ~bound:(Printf.sprintf ">=%.3f" bound)
    (fresh >= bound)

(* A float ceiling; NaN (a missing or degenerate row) fails it. *)
let gate_le name fresh bound =
  gate name ~fresh:(Printf.sprintf "%.3f" fresh)
    ~bound:(Printf.sprintf "<=%.3f" bound)
    (fresh <= bound)

(* Every run of a soak passed: [oks] holds one verdict per run. *)
let gate_runs name oks =
  gate_eq name (List.length (List.filter Fun.id oks)) (List.length oks)

module Stm = Tcc_stm.Stm

let table1 () =
  Harness.Commute_spec.render_map_table ppf ();
  Fmt.pf ppf "read-only operations always commute: %b@."
    (Harness.Commute_spec.reads_commute ());
  gate_eq "Table 1/4 conditions inexact"
    (List.length
       (List.filter
          (fun v -> not v.Harness.Commute_spec.condition_exact)
          (Harness.Commute_spec.check_all ())))
    0;
  let reports = Harness.Commit_order.measure () in
  Harness.Commit_order.render ppf reports;
  List.iter
    (fun (name, r) ->
      let n f = List.length (f r) in
      gate_eq (name ^ " commit-order violations")
        (n Harness.Commit_order.violations) 0;
      gate_eq (name ^ " unobserved-write aborts")
        (n Harness.Commit_order.floor_aborts) 0)
    reports

let table2 () = Harness.Locktables.render_table2 ppf ()

let table3 () =
  (* Dump a TransactionalMap's state inventory while a transaction holds
     locks and buffered writes — the live version of Table 3. *)
  let module M = Txcoll.Host.Map (Txcoll.Host.Int_hashed) in
  let m = M.create () in
  ignore (M.put m 1 10);
  ignore (M.put m 2 20);
  Fmt.pf ppf "@.Table 3 — TransactionalMap state (live, mid-transaction)@.";
  (try
     Stm.atomic (fun () ->
         ignore (M.find m 1);
         ignore (M.size m);
         ignore (M.put m 3 30);
         ignore (M.remove m 2);
         M.dump_state Fmt.stdout m;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Fmt.pf ppf "after abort:@.";
  M.dump_state Fmt.stdout m

let table4 () =
  Fmt.pf ppf
    "@.Table 4 — the SortedMap-specific rows (firstKey/lastKey/subMap) are@.";
  Fmt.pf ppf "checked in the same brute-force sweep as Table 1 (see table1).@."

let table6 () =
  let module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered) in
  let m = SM.create () in
  List.iter (fun k -> ignore (SM.put m k k)) [ 10; 20; 30 ];
  Fmt.pf ppf "@.Table 6 — TransactionalSortedMap state (live, mid-transaction)@.";
  (try
     Stm.atomic (fun () ->
         ignore (SM.first_key m);
         ignore
           (SM.fold_range (fun _ _ a -> a) m () ~lo:(Some 15) ~hi:(Some 25));
         ignore (SM.put m 25 25);
         SM.dump_state Fmt.stdout m;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Fmt.pf ppf "after abort:@.";
  SM.dump_state Fmt.stdout m

let table9 () =
  let module Q = Txcoll.Host.Queue in
  let q = Q.create () in
  Q.put q 1;
  Q.put q 2;
  Fmt.pf ppf "@.Table 9 — TransactionalQueue state (live, mid-transaction)@.";
  (try
     Stm.atomic (fun () ->
         ignore (Q.take q);
         Q.put q 3;
         Q.put q 4;
         Q.dump_state Fmt.stdout q;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Fmt.pf ppf "after abort (taken element restored, additions dropped):@.";
  Q.dump_state Fmt.stdout q

let table5 () = Harness.Locktables.render_table5 ppf ()

let table7 () =
  Fmt.pf ppf "@.Table 7 — Channel conflict conditions (brute force)@.";
  let rows = Harness.Commute_spec.qcheck_all () in
  List.iter
    (fun (pair, ok) ->
      Fmt.pf ppf "  %-24s condition %s@." pair
        (if ok then "verified" else "MISMATCH"))
    rows;
  gate_eq "Table 7 conditions mismatched"
    (List.length (List.filter (fun (_, ok) -> not ok) rows))
    0

let table8 () = Harness.Locktables.render_table8 ppf ()

let fig1 () = Harness.Figures.render ppf (Harness.Figures.figure1 ())
let fig2 () = Harness.Figures.render ppf (Harness.Figures.figure2 ())
let fig3 () = Harness.Figures.render ppf (Harness.Figures.figure3 ())
let fig4 () =
  Harness.Figures.render ppf (Jbb.Sim_jbb.figure4 ());
  (* Sanity check of the premise (§6.3): with standard SPECjbb2000 (one
     warehouse per thread) even the naive Baseline is embarrassingly
     parallel — the single warehouse, not transactions, is the stress. *)
  let cycles warehouses n =
    (Jbb.Sim_jbb.run ~warehouses ~variant:`Atomos_baseline ~n_cpus:n ())
      .Sim.Machine.cycles
  in
  let speedup w = float_of_int (cycles w 1) /. float_of_int (cycles w 8) in
  Fmt.pf ppf
    "@.premise check — Atomos Baseline speedup at 8 CPUs: single warehouse      %.2f, one warehouse per CPU %.2f@."
    (speedup `Single) (speedup `Per_cpu)

let ablation () =
  Harness.Ablations.(render ppf "isEmpty lock encoding (§5.1)" (isempty ()));
  Harness.Ablations.(render ppf "blind put (§5.1 Extensions)" (blind_put ()));
  Harness.Ablations.(render ppf "contention backoff" (backoff ()));
  let outcomes, audits = Harness.Ablations.redo_vs_undo () in
  Harness.Ablations.render ppf
    "redo vs undo logging, host STM (cycles = elapsed µs; violations = retried attempts)"
    outcomes;
  List.iter
    (fun { Harness.Ablations.check; fresh; expected } ->
      gate_eq check fresh expected)
    audits

let hostmap () = Harness.Host_validation.(render ppf (run ()))
let queue () = Harness.Queue_bench.(render ppf (sweep ()))
let jbbhost () = Jbb.Host_jbb.(render ppf (compare_variants ()))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the host implementation: per-operation
   costs of the STM and the wrappers.                                  *)

module Tvar = Tcc_stm.Tvar
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let micro () =
  let open Bechamel in
  let tv = Tvar.make 0 in
  let plain = Hashtbl.create 64 in
  let mutex = Mutex.create () in
  let tmap = IM.create () in
  for i = 0 to 63 do
    Hashtbl.replace plain i i;
    ignore (IM.put tmap i i)
  done;
  let tests =
    [
      Test.make ~name:"atomic-empty" (Staged.stage (fun () -> Stm.atomic ignore));
      Test.make ~name:"tvar-incr-in-atomic"
        (Staged.stage (fun () ->
             Stm.atomic (fun () -> Tvar.set tv (Tvar.get tv + 1))));
      Test.make ~name:"open-nested-incr"
        (Staged.stage (fun () ->
             Stm.atomic (fun () ->
                 Stm.open_nested (fun () -> Tvar.set tv (Tvar.get tv + 1)))));
      Test.make ~name:"mutex-hashtbl-find"
        (Staged.stage (fun () ->
             Mutex.protect mutex (fun () -> ignore (Hashtbl.find_opt plain 7))));
      Test.make ~name:"txmap-find-auto-commit"
        (Staged.stage (fun () -> ignore (IM.find tmap 7)));
      Test.make ~name:"txmap-find-in-txn"
        (Staged.stage (fun () ->
             Stm.atomic (fun () -> ignore (IM.find tmap 7))));
      Test.make ~name:"txmap-put-get-txn"
        (Staged.stage (fun () ->
             Stm.atomic (fun () ->
                 ignore (IM.put tmap 7 1);
                 ignore (IM.find tmap 7))));
    ]
  in
  let test = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Fmt.pf ppf "@.Micro-benchmarks (host STM, ns/op via OLS on monotonic clock)@.";
  Hashtbl.iter
    (fun _witness tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Fmt.pf ppf "  %-32s %10.1f ns/op@." name t
          | _ -> Fmt.pf ppf "  %-32s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Robustness: chaos soak matrix, failover soak and forced-starvation
   comparison.  Each prints a table and gates on its runs; CI runs them
   as standalone jobs. *)

let chaos_probs = [ 0.01; 0.05; 0.2 ]

(* CI runs the soak over an explicit seed matrix (CHAOS_SEEDS="1 2 3") so a
   red cell names the exact seed to replay locally. *)
let chaos_seeds =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | None | Some "" -> [ 1; 2; 3 ]
  | Some s ->
      String.split_on_char ' ' s
      |> List.filter (fun tok -> tok <> "")
      |> List.map int_of_string

let chaos () =
  let ops_per_domain = 800 in
  Fmt.pf ppf "@.Chaos soak (2 domains, map+sorted+queue, seeded injection)@.";
  Fmt.pf ppf "  %5s %5s %6s %-10s %s@." "p" "seed" "ok" "committed"
    "injections (conflict/remote/handler/delay)";
  let soak_oks =
    List.concat_map
      (fun p ->
        List.map
          (fun seed ->
            let r =
              Harness.Chaos.run_soak
                (Harness.Chaos.default_soak ~domains:2 ~ops_per_domain ~seed p)
            in
            let c, ra, hf, d = r.injections in
            Fmt.pf ppf "  %5.2f %5d %6b %10d %d/%d/%d/%d@." p seed r.ok
              r.committed c ra hf d;
            List.iter (fun e -> Fmt.pf ppf "        FAILED: %s@." e) r.errors;
            r.ok)
          chaos_seeds)
      chaos_probs
  in
  gate_runs "chaos.soak_runs_ok" soak_oks;
  (* Prefix consistency: writers under injection commit mirror map/sorted
     pairs while a snapshot reader checks every section for torn reads. *)
  Fmt.pf ppf
    "@.Snapshot-reader soak (2 writer domains + 1 snapshot reader, mirror \
     writes)@.";
  let snapshot_oks =
    List.map
      (fun seed ->
        let r =
          Harness.Chaos.run_snapshot_soak
            (Harness.Chaos.default_soak ~domains:2 ~ops_per_domain
               ~key_space:48 ~seed 0.05)
        in
        Fmt.pf ppf "  seed %d: %a@." seed Harness.Chaos.pp_report r;
        r.ok)
      chaos_seeds
  in
  gate_runs "chaos.snapshot_soak_runs_ok" snapshot_oks;
  Fmt.pf ppf
    "@.Derived-collection soak (spec-derived set+bag+pq+counter, seeded \
     injection)@.";
  let derived_oks =
    List.map
      (fun seed ->
        let r =
          Harness.Chaos.run_derived_soak
            (Harness.Chaos.default_soak ~domains:2 ~ops_per_domain ~seed 0.05)
        in
        Fmt.pf ppf "  seed %d: %a@." seed Harness.Chaos.pp_report r;
        r.ok)
      chaos_seeds
  in
  gate_runs "chaos.derived_soak_runs_ok" derived_oks;
  Fmt.pf ppf
    "@.Striped soak (2 domains, one 16-stripe map, disjoint partitions, \
     seeded injection)@.";
  let striped_oks =
    List.map
      (fun seed ->
        let r =
          Harness.Chaos.run_striped_soak
            (Harness.Chaos.default_soak ~domains:2 ~ops_per_domain ~seed 0.05)
        in
        Fmt.pf ppf "  seed %d: %a@." seed Harness.Chaos.pp_report r;
        r.ok)
      chaos_seeds
  in
  gate_runs "chaos.striped_soak_runs_ok" striped_oks

(* Failover soak: kill/recover a master place mid-traffic, per seed and
   replication mode.  A run is ok when no committed write was lost, every
   kill landed, commits landed after the last recovery and the
   replication lag stayed within the mode's bound. *)
let failover () =
  Fmt.pf ppf
    "@.Failover soak (kill/recover a master place mid-traffic, 2 writer \
     domains + snapshot reader)@.";
  let oks =
    List.concat_map
      (fun mode ->
        List.map
          (fun seed ->
            let r =
              Harness.Chaos.run_failover_soak
                (Harness.Chaos.default_failover ~domains:2
                   ~ops_per_domain:1200 ~places:4 ~key_space:192 ~kills:3
                   ~mode ~seed 0.05)
            in
            Fmt.pf ppf "  mode=%-5s seed=%d: %a@."
              (Harness.Chaos.mode_name mode)
              seed Harness.Chaos.pp_report r;
            r.ok)
          chaos_seeds)
      [ Places.Eager; Places.Lazy { max_lag = 8 } ]
  in
  gate_runs "failover.runs_ok" oks

let starve () =
  Fmt.pf ppf
    "@.Forced starvation (1 long writer vs 3 short writers, same keys)@.";
  let budget = { Stm.max_retries = Some 12; max_seconds = None } in
  let run fallback =
    let r = Harness.Starvation.run ~fallback ~budget ~rounds:20 () in
    Fmt.pf ppf "  %a@." Harness.Starvation.pp_report r;
    r
  in
  ignore (run false);
  let fb = run true in
  gate_eq "starve.fallback_completed" fb.completed fb.rounds

(* ------------------------------------------------------------------ *)
(* STM commit-throughput scaling: transactions committing into per-domain
   collections (disjoint: each commit holds only its own collection's
   region) versus one shared collection (commits serialise on its region),
   plus same-collection scaling over striped and interval-partitioned
   maps.  The target gates the 1->4-domain scaling ratios. *)

type stmscale_row = {
  workload : string;
  domains : int;
  total_txns : int;
  commits_per_s : float;
  p99_us : float;
  region_waits : int;
  aborts : int;
  minor_words_per_commit : float;
  clock_bumps : int;
}

(* Key range of the read workloads: every read finds one key of a shared
   prepopulated map.  "read_only" runs each find in [Stm.snapshot] — the
   abort-free multi-version mode: no validation, no commit region, no
   clock interaction, so its rows report region_waits = 0 and aborts = 0
   at every domain count (a tier-1 test in test_snapshot.ml gates this).
   "read_mostly" is the 95/5 mix: 19 snapshot finds per one small write
   transaction. *)
let ro_keys = 1024

let stat_aborts (s : Stm.stats) =
  s.conflict_aborts + s.remote_aborts + s.explicit_aborts

let stmscale_run ~workload ~domains ~txns_per_domain =
  (* [~stripes:1] keeps these workloads' historical meaning now that maps
     stripe by default: "shared" measures commits serialising on ONE
     region (the un-striped semantic layer), the baseline the semscale
     workload below is compared against.  The read workloads stay
     un-striped too: snapshot reads never touch regions, so striping
     could only mask a fast-path regression. *)
  let shared =
    match workload with
    | "shared" | "read_only" | "read_mostly" -> Some (IM.create ~stripes:1 ())
    | _ -> None
  in
  (match (workload, shared) with
  | ("read_only" | "read_mostly"), Some m ->
      for k = 0 to ro_keys - 1 do
        ignore (IM.put m k k)
      done
  | _ -> ());
  let op d (m : int IM.t) =
    match workload with
    | "read_only" ->
        fun i ->
          Stm.snapshot (fun () ->
              ignore (IM.find m (((d * 37) + i) land (ro_keys - 1))))
    | "read_mostly" ->
        fun i ->
          let k = ((d * 37) + i) land (ro_keys - 1) in
          if i mod 20 = 0 then Stm.atomic (fun () -> ignore (IM.put m k i))
          else Stm.snapshot (fun () -> ignore (IM.find m k))
    | _ ->
        fun i ->
          Stm.atomic (fun () ->
              let k = (d * txns_per_domain) + i in
              ignore (IM.put m k i);
              if i > 1 then ignore (IM.find m (k - 1)))
  in
  Stm.reset_stats ();
  let waits_before = Stm.commit_region_waits () in
  let stats_before = Stm.global_stats () in
  let t0 = Unix.gettimeofday () in
  (* [Gc.minor_words] is domain-local: each worker measures its own
     allocation delta around the workload and returns it through join,
     along with its per-transaction latencies (preallocated float array;
     the constant timing overhead is identical across workloads). *)
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let m = match shared with Some m -> m | None -> IM.create () in
            let f = op d m in
            let lat = Array.make txns_per_domain 0. in
            let w0 = Gc.minor_words () in
            for i = 1 to txns_per_domain do
              let s = Unix.gettimeofday () in
              f i;
              lat.(i - 1) <- Unix.gettimeofday () -. s
            done;
            (Gc.minor_words () -. w0, lat)))
  in
  let results = List.map Domain.join ds in
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = List.fold_left (fun acc (w, _) -> acc +. w) 0. results in
  let p99_us = Harness.Hdr.p99_us (List.map snd results) in
  let stats_after = Stm.global_stats () in
  let total = domains * txns_per_domain in
  {
    workload;
    domains;
    total_txns = total;
    commits_per_s = float_of_int total /. elapsed;
    p99_us;
    region_waits = Stm.commit_region_waits () - waits_before;
    aborts = stat_aborts stats_after - stat_aborts stats_before;
    minor_words_per_commit = words /. float_of_int total;
    clock_bumps = stats_after.clock_bumps - stats_before.clock_bumps;
  }

(* Same-collection scaling: every domain hammers its own disjoint key
   partition of ONE shared striped map.  The partitions are pre-populated,
   so the steady-state transaction is an update of a present key — its
   commit plan is the key's stripe region alone, and commits into
   different stripes proceed in parallel.  This is the workload the
   semantic-layer striping exists for; before striping it serialised on
   the collection's single region exactly like "shared". *)

type semscale_row = {
  ss_stripes : int;
  ss_domains : int;
  ss_total_txns : int;
  ss_commits_per_s : float;
  ss_p99_us : float;
  ss_region_waits : int;
}

let semscale_stripes = 32
let semscale_keys_per_domain = 1024

let semscale_run ~stripes ~domains ~txns_per_domain =
  let m = IM.create ~stripes () in
  for d = 0 to domains - 1 do
    for i = 0 to semscale_keys_per_domain - 1 do
      ignore (IM.put m ((d * semscale_keys_per_domain) + i) 0)
    done
  done;
  let waits_before = Stm.commit_region_waits () in
  let t0 = Unix.gettimeofday () in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            (* Preallocated latency buffer: the measurement loop allocates
               nothing of its own beyond the transactions it times. *)
            let lat = Array.make txns_per_domain 0. in
            let base = d * semscale_keys_per_domain in
            for i = 0 to txns_per_domain - 1 do
              let k = base + (i land (semscale_keys_per_domain - 1)) in
              let s = Unix.gettimeofday () in
              Stm.atomic (fun () -> ignore (IM.put m k i));
              lat.(i) <- Unix.gettimeofday () -. s
            done;
            lat))
  in
  let lats = List.map Domain.join ds in
  let elapsed = Unix.gettimeofday () -. t0 in
  let p99_us = Harness.Hdr.p99_us lats in
  let total = domains * txns_per_domain in
  {
    ss_stripes = stripes;
    ss_domains = domains;
    ss_total_txns = total;
    ss_commits_per_s = float_of_int total /. elapsed;
    ss_p99_us = p99_us;
    ss_region_waits = Stm.commit_region_waits () - waits_before;
  }

(* Same experiment over the sorted map: one shared
   TransactionalSortedMap, each domain overwriting its own disjoint key
   interval.  With B = 1 every commit serialises on the collection's
   single region; with interval splitters at the per-domain boundaries
   each writer's commit plan names only its own interval region, so
   disjoint-range writers commit in parallel. *)

module SOM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

type sortedscale_row = {
  so_workload : string;  (* "write" | "snapshot_read" *)
  so_intervals : int;
  so_domains : int;
  so_total_txns : int;
  so_commits_per_s : float;
  so_p99_us : float;
  so_region_waits : int;
}

let sortedscale_intervals = 8
let sortedscale_keys_per_domain = 1024

let sortedscale_run ~intervals ~domains ~txns_per_domain =
  (* Splitters at the per-domain key-range boundaries: domain d's keys
     [d*K, (d+1)*K) land in interval d (for d < B). *)
  let splitters =
    List.init (intervals - 1) (fun i ->
        (i + 1) * sortedscale_keys_per_domain)
  in
  let m = SOM.create ~splitters () in
  for d = 0 to domains - 1 do
    for i = 0 to sortedscale_keys_per_domain - 1 do
      ignore (SOM.put m ((d * sortedscale_keys_per_domain) + i) 0)
    done
  done;
  let waits_before = Stm.commit_region_waits () in
  let t0 = Unix.gettimeofday () in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let lat = Array.make txns_per_domain 0. in
            let base = d * sortedscale_keys_per_domain in
            for i = 0 to txns_per_domain - 1 do
              let k = base + (i land (sortedscale_keys_per_domain - 1)) in
              let s = Unix.gettimeofday () in
              (* Presence-preserving overwrite: the commit plan stays the
                 key's interval region alone. *)
              Stm.atomic (fun () -> ignore (SOM.put m k i));
              lat.(i) <- Unix.gettimeofday () -. s
            done;
            lat))
  in
  let lats = List.map Domain.join ds in
  let elapsed = Unix.gettimeofday () -. t0 in
  let p99_us = Harness.Hdr.p99_us lats in
  let total = domains * txns_per_domain in
  {
    so_workload = "write";
    so_intervals = intervals;
    so_domains = domains;
    so_total_txns = total;
    so_commits_per_s = float_of_int total /. elapsed;
    so_p99_us = p99_us;
    so_region_waits = Stm.commit_region_waits () - waits_before;
  }

(* Snapshot-read row: the same interval-partitioned sorted map, but each
   domain runs [Stm.snapshot] sections doing a point find plus a range
   fold over a window straddling its interval boundary — the
   cross-interval read that used to take range locks across two commit
   regions.  In snapshot mode it touches neither: region_waits stay 0 at
   every domain count (gated by the same tier-1 test as read_only). *)
let sortedscale_snapshot_run ~intervals ~domains ~txns_per_domain =
  let splitters =
    List.init (intervals - 1) (fun i -> (i + 1) * sortedscale_keys_per_domain)
  in
  let m = SOM.create ~splitters () in
  for d = 0 to max 1 domains - 1 do
    for i = 0 to sortedscale_keys_per_domain - 1 do
      ignore (SOM.put m ((d * sortedscale_keys_per_domain) + i) 0)
    done
  done;
  let waits_before = Stm.commit_region_waits () in
  let t0 = Unix.gettimeofday () in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let lat = Array.make txns_per_domain 0. in
            let base = d * sortedscale_keys_per_domain in
            (* Window straddling the upper interval boundary of this
               domain's key range (clamped inside the populated space). *)
            let edge =
              min
                (base + sortedscale_keys_per_domain)
                ((max 1 domains * sortedscale_keys_per_domain) - 16)
            in
            for i = 0 to txns_per_domain - 1 do
              let k = base + (i land (sortedscale_keys_per_domain - 1)) in
              let s = Unix.gettimeofday () in
              Stm.snapshot (fun () ->
                  ignore (SOM.find m k);
                  ignore
                    (SOM.fold_range
                       (fun _ _ n -> n + 1)
                       m 0
                       ~lo:(Some (edge - 16))
                       ~hi:(Some (edge + 16))));
              lat.(i) <- Unix.gettimeofday () -. s
            done;
            lat))
  in
  let lats = List.map Domain.join ds in
  let elapsed = Unix.gettimeofday () -. t0 in
  let p99_us = Harness.Hdr.p99_us lats in
  let total = domains * txns_per_domain in
  {
    so_workload = "snapshot_read";
    so_intervals = intervals;
    so_domains = domains;
    so_total_txns = total;
    so_commits_per_s = float_of_int total /. elapsed;
    so_p99_us = p99_us;
    so_region_waits = Stm.commit_region_waits () - waits_before;
  }

(* Relative gates: a fresh 1->4-domain ratio must stay above 60% of the
   baseline the gate was set from (a 1-core host, so the baselines sit
   below 1).  The wide margin covers run-to-run swings of +-30% on small
   shared runners when domains outnumber cores; a real serialisation bug
   (a global counter back on the commit path) collapses the ratio far
   below it. *)
let scaling_floor baseline = 0.6 *. baseline

(* commits/s at 4 domains over commits/s at 1, from (domains, commits/s)
   pairs; NaN when either row is missing. *)
let scaling_1_to_4 rows =
  let at d = Option.value ~default:nan (List.assoc_opt d rows) in
  at 4 /. at 1

let stmscale () =
  let txns_per_domain = 20_000 in
  let cores = Domain.recommended_domain_count () in
  (* Warm-up pass so the first timed configuration is not paying one-time
     initialisation costs. *)
  ignore (stmscale_run ~workload:"disjoint" ~domains:1 ~txns_per_domain:1_000);
  let rows =
    List.concat_map
      (fun workload ->
        List.map
          (fun domains -> stmscale_run ~workload ~domains ~txns_per_domain)
          [ 1; 2; 4; 8 ])
      [ "disjoint"; "shared"; "read_only"; "read_mostly" ]
  in
  Fmt.pf ppf "@.STM commit scaling (host STM, %d core%s available)@." cores
    (if cores = 1 then "" else "s");
  Fmt.pf ppf "  %-11s %7s %10s %14s %10s %13s %7s %10s %12s@." "workload"
    "domains" "txns" "commits/s" "p99 (us)" "region_waits" "aborts"
    "mw/commit" "clock_bumps";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-11s %7d %10d %14.0f %10.1f %13d %7d %10.1f %12d@."
        r.workload r.domains r.total_txns r.commits_per_s r.p99_us
        r.region_waits r.aborts r.minor_words_per_commit r.clock_bumps)
    rows;
  (* Same-collection scaling over the striped map (domains up to at least
     4 so the recorded 1→4 ratio is meaningful, further if the host has
     the cores). *)
  let semscale_domains =
    List.filter (fun d -> d <= max 4 cores) [ 1; 2; 4; 8 ]
  in
  (* K = 1 rows regenerate the un-striped baseline on the same workload;
     the gated ratio comes from the striped rows. *)
  let semscale_rows =
    List.concat_map
      (fun stripes ->
        List.map
          (fun domains -> semscale_run ~stripes ~domains ~txns_per_domain)
          semscale_domains)
      [ 1; semscale_stripes ]
  in
  Fmt.pf ppf "@.Same-collection scaling (one shared map, disjoint keys)@.";
  Fmt.pf ppf "  %7s %7s %10s %14s %10s %13s@." "stripes" "domains" "txns"
    "commits/s" "p99 (us)" "region_waits";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %7d %7d %10d %14.0f %10.1f %13d@." r.ss_stripes
        r.ss_domains r.ss_total_txns r.ss_commits_per_s r.ss_p99_us
        r.ss_region_waits)
    semscale_rows;
  (* Same-collection scaling for the sorted map: B = 1 regenerates the
     single-region baseline, B = 8 puts each writer's key range in its
     own interval.  The gated ratio compares the two. *)
  let sortedscale_rows =
    List.concat_map
      (fun intervals ->
        List.map
          (fun domains -> sortedscale_run ~intervals ~domains ~txns_per_domain)
          semscale_domains)
      [ 1; sortedscale_intervals ]
    (* Snapshot-read rows: cross-interval range reads in [Stm.snapshot];
       region_waits must stay 0 at every domain count. *)
    @ List.map
        (fun domains ->
          sortedscale_snapshot_run ~intervals:sortedscale_intervals ~domains
            ~txns_per_domain)
        semscale_domains
  in
  Fmt.pf ppf
    "@.Sorted-map same-collection scaling (disjoint per-domain intervals)@.";
  Fmt.pf ppf "  %-13s %9s %7s %10s %14s %10s %13s@." "workload" "intervals"
    "domains" "txns" "commits/s" "p99 (us)" "region_waits";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-13s %9d %7d %10d %14.0f %10.1f %13d@." r.so_workload
        r.so_intervals r.so_domains r.so_total_txns r.so_commits_per_s
        r.so_p99_us r.so_region_waits)
    sortedscale_rows;
  let workload_scaling w =
    scaling_1_to_4
      (List.filter_map
         (fun r ->
           if r.workload = w then Some (r.domains, r.commits_per_s) else None)
         rows)
  in
  let semscale =
    scaling_1_to_4
      (List.filter_map
         (fun r ->
           if r.ss_stripes = semscale_stripes then
             Some (r.ss_domains, r.ss_commits_per_s)
           else None)
         semscale_rows)
  in
  let sortedscale intervals =
    scaling_1_to_4
      (List.filter_map
         (fun r ->
           if r.so_workload = "write" && r.so_intervals = intervals then
             Some (r.so_domains, r.so_commits_per_s)
           else None)
         sortedscale_rows)
  in
  let b8 = sortedscale sortedscale_intervals and b1 = sortedscale 1 in
  Fmt.pf ppf "@.Gates (1->4-domain scaling ratios, minor words per commit)@.";
  gate_ge "stmscale.disjoint_scaling_1_to_4" (workload_scaling "disjoint")
    (scaling_floor 0.275);
  gate_ge "stmscale.read_mostly_scaling_1_to_4"
    (workload_scaling "read_mostly")
    (scaling_floor 0.383);
  gate_ge "stmscale.semscale_scaling_1_to_4" semscale (scaling_floor 0.597);
  gate_ge "stmscale.sortedscale_scaling_1_to_4" b8 (scaling_floor 0.216);
  (* Minor words per disjoint commit, worst row: deterministic and
     host-independent.  Hashtable lock owners and write set with the
     per-call retry-loop closures read 753 on OCaml 5.1; owner lists, the
     array write set and the closure-free loop read 553; committed state
     kept only in the shadows reads 473, and 368 by the time the lock
     tables and store buffers lost their per-call closures, after which
     it reads 308.  The bound sits 15% above. *)
  let disjoint_words =
    match
      List.filter_map
        (fun r ->
          if r.workload = "disjoint" then Some r.minor_words_per_commit
          else None)
        rows
    with
    | [] -> nan
    | ws -> List.fold_left Float.max neg_infinity ws
  in
  gate_le "stmscale.disjoint_minor_words_per_commit" disjoint_words 355.;
  (* Absolute scaling needs the cores to scale onto. *)
  let skip = cores < 4 in
  let cores_note = if skip then Printf.sprintf " (cores=%d < 4)" cores else "" in
  gate ~skip "stmscale.semscale_scales"
    ~fresh:(Printf.sprintf "%.3f" semscale)
    ~bound:(">1.5" ^ cores_note) (semscale > 1.5);
  gate ~skip "stmscale.sortedscale_b8_over_b1"
    ~fresh:(Printf.sprintf "%.3f" b8)
    ~bound:(Printf.sprintf ">%.3f%s" b1 cores_note)
    (b8 > b1)

(* ------------------------------------------------------------------ *)
(* Open-loop rate search and admission control.

   Poisson arrivals at a target offered rate across [ol_domains]
   domains, latency measured from the scheduled arrival
   (coordinated-omission-free), offered load walked to the saturation
   knee per workload.  Then the overload experiment: offered load fixed
   at 2x the measured knee with the admission gate off (documented
   collapse), shedding, and serialising.  Reduced-budget knobs for CI:
   OPENLOOP_DURATION (seconds per probe), OPENLOOP_MAX_RATE.

   Gates: every workload has a non-zero knee; under shed, goodput at 2x
   the knee stays >= 0.8x the knee's, p99 stays <= 5x the larger of the
   knee's p99 and the SLO (knees on 2-core runners are pacing-noise-bound,
   so the SLO is the meaningful floor) and the admission ledger is
   non-empty; under serialise no request is rejected.  The "none" rows
   document the collapse but are not gated: a short probe may not
   collapse on a fast runner. *)

module OL = Harness.Openloop
module Admission = Harness.Admission

let ol_domains = max 1 (min 2 (Domain.recommended_domain_count ()))
let ol_keys = 1024
let ol_slo_us = 1000.

let ol_env name default =
  match Sys.getenv_opt name with
  | Some s -> ( try float_of_string s with _ -> default)
  | None -> default

(* Request factories.  Each call builds fresh collections, so a probe is
   not biased by residue from the previous one, and the bounded key
   spaces make the steady-state write an overwrite of a present key.
   [run] is the transaction runner for write requests — [Stm.atomic], or
   [Admission.run] when the overload experiment turns the gate on. *)
let ol_worker ?(run = fun f -> Stm.atomic f) workload : OL.worker =
  match workload with
  | "disjoint" ->
      (* Private map per domain: the no-contention baseline. *)
      let maps = Array.init ol_domains (fun _ -> IM.create ()) in
      fun ~domain ->
        let m = maps.(domain) in
        let i = ref 0 in
        fun () ->
          incr i;
          let k = !i land (ol_keys - 1) in
          run (fun () -> ignore (IM.put m k !i))
  | "shared" ->
      (* One un-striped map: every commit serialises on its region. *)
      let m = IM.create ~stripes:1 () in
      for k = 0 to (ol_domains * ol_keys) - 1 do
        ignore (IM.put m k 0)
      done;
      fun ~domain ->
        let i = ref 0 in
        fun () ->
          incr i;
          let k = (domain * ol_keys) + (!i land (ol_keys - 1)) in
          run (fun () -> ignore (IM.put m k !i))
  | "read_only" ->
      let m = IM.create ~stripes:1 () in
      for k = 0 to ol_keys - 1 do
        ignore (IM.put m k k)
      done;
      fun ~domain ->
        let i = ref 0 in
        fun () ->
          incr i;
          Stm.snapshot (fun () ->
              ignore (IM.find m (((domain * 37) + !i) land (ol_keys - 1))))
  | "read_mostly" ->
      let m = IM.create ~stripes:1 () in
      for k = 0 to ol_keys - 1 do
        ignore (IM.put m k k)
      done;
      fun ~domain ->
        let i = ref 0 in
        fun () ->
          incr i;
          let k = ((domain * 37) + !i) land (ol_keys - 1) in
          if !i mod 20 = 0 then run (fun () -> ignore (IM.put m k !i))
          else Stm.snapshot (fun () -> ignore (IM.find m k))
  | w -> invalid_arg ("ol_worker: " ^ w)

let ol_jbb_worker ?run ~warehouses () : OL.worker =
  let t = Jbb.Multi_jbb.create ~warehouses () in
  fun ~domain ->
    let rng = Random.State.make [| 0x0501; warehouses; domain |] in
    fun () -> Jbb.Multi_jbb.task ?run t rng

let ol_gate_goodput_fraction = 0.8
let ol_gate_p99_ratio = 5.0

let openloop () =
  let duration = ol_env "OPENLOOP_DURATION" 1.0 in
  let max_rate = ol_env "OPENLOOP_MAX_RATE" 400_000. in
  Fmt.pf ppf
    "@.Open-loop rate search (%d domain%s, SLO p99 <= %.0f us, %.1f \
     s/probe)@."
    ol_domains
    (if ol_domains = 1 then "" else "s")
    ol_slo_us duration;
  let search name mk_worker =
    let s =
      OL.rate_search ~domains:ol_domains ~slo_us:ol_slo_us ~start_rate:200.
        ~max_rate ~duration (mk_worker ())
    in
    (match s.OL.knee with
    | Some r ->
        Fmt.pf ppf
          "  %-12s knee %9.0f req/s   p50 %7.1f us  p99 %7.1f us  \
           goodput %9.0f/s  (%d probes)@."
          name s.OL.sustainable_rate r.OL.p50_us r.OL.p99_us r.OL.goodput
          (List.length s.OL.probes)
    | None ->
        Fmt.pf ppf "  %-12s NO sustainable rate found (%d probes)@." name
          (List.length s.OL.probes));
    gate
      (Printf.sprintf "openloop.%s.knee" name)
      ~fresh:(Printf.sprintf "%.0f" s.OL.sustainable_rate)
      ~bound:">0"
      (s.OL.sustainable_rate > 0.);
    (name, s)
  in
  let knees =
    List.map
      (fun w -> search w (fun () -> ol_worker w))
      [ "disjoint"; "shared"; "read_only"; "read_mostly" ]
    @ List.map
        (fun w ->
          search
            (Printf.sprintf "jbb_w%d" w)
            (fun () -> ol_jbb_worker ~warehouses:w ()))
        [ 1; 4; 8 ]
  in
  (* Overload experiment at 2x the knee: the admission gate refills at
     0.9x the knee, so admitted requests run pre-knee while the excess
     hits the overload policy instead of queueing. *)
  let overload name (s : OL.search) mk_worker =
    match s.OL.knee with
    | None -> ()
    | Some knee_r ->
        let knee_rate = s.OL.sustainable_rate in
        let rate2 = 2. *. knee_rate in
        List.iter
          (fun mode ->
            let run =
              match mode with
              | "none" -> None
              | _ ->
                  Admission.configure ~rate:(0.9 *. knee_rate)
                    ~burst:(max 16 (int_of_float (knee_rate /. 50.)))
                    ~budget:
                      {
                        Stm.max_retries = Some 128;
                        max_seconds = Some 0.02;
                      }
                    ~policy:
                      (if mode = "shed" then Admission.Shed
                       else Admission.Serialise)
                    ();
                  Some (fun f -> Admission.run f)
            in
            let a0 = Admission.admitted () and s0 = Admission.shed () in
            let r =
              OL.run_at ~domains:ol_domains ~slo_us:ol_slo_us ~rate:rate2
                ~duration
                (mk_worker ?run ())
            in
            Admission.disable ();
            let goodput_vs_knee = r.OL.goodput /. knee_r.OL.goodput in
            Fmt.pf ppf
              "  %-12s 2x-knee %-9s goodput %9.0f/s (%5.2fx knee)  p99 \
               %9.1f us  shed %d  dropped %d@."
              name mode r.OL.goodput goodput_vs_knee r.OL.p99_us r.OL.shed
              r.OL.dropped;
            let tag = Printf.sprintf "openloop.%s.%s" name mode in
            match mode with
            | "shed" ->
                gate_ge (tag ^ ".goodput_vs_knee") goodput_vs_knee
                  ol_gate_goodput_fraction;
                let bound =
                  ol_gate_p99_ratio *. Float.max knee_r.OL.p99_us ol_slo_us
                in
                gate (tag ^ ".p99_us")
                  ~fresh:(Printf.sprintf "%.0f" r.OL.p99_us)
                  ~bound:(Printf.sprintf "<=%.0f" bound)
                  (r.OL.p99_us <= bound);
                let ledger =
                  Admission.admitted () - a0 + (Admission.shed () - s0)
                in
                gate (tag ^ ".admission_ledger")
                  ~fresh:(string_of_int ledger) ~bound:">0" (ledger > 0)
            | "serialise" -> gate_eq (tag ^ ".rejected") r.OL.shed 0
            | _ -> ())
          [ "none"; "shed"; "serialise" ]
  in
  Fmt.pf ppf "@.Overload at 2x knee (admission gate at 0.9x knee)@.";
  (match List.assoc_opt "shared" knees with
  | Some s -> overload "shared" s (fun ?run () -> ol_worker ?run "shared")
  | None -> ());
  (match List.assoc_opt "jbb_w4" knees with
  | Some s ->
      overload "jbb_w4" s (fun ?run () -> ol_jbb_worker ?run ~warehouses:4 ())
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Derived-collection section.  Two gates:
   (a) the spec-derived TransactionalSet stays within 15% of the
       TransactionalMap, derived from the map spec the set shares, on
       the disjoint stmscale workload (private instance per domain,
       write + read-previous per transaction): the median of the set/map
       ratios of [derived_pairs] back-to-back map and set runs, so a
       burst of host noise moves one pair, not a whole block of runs;
   (b) the TransactionalCounter's commutative increments commit with
       zero aborts of any kind and zero commit-region waits across 4
       domains — the "never conflicting with each other" guarantee as a
       recorded number, not just a unit test. *)

module DSet = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module DCounter = Txcoll.Host.Counter

let derived_set_gate = 0.85
let derived_pairs = 5

let derived_set_run ~impl ~domains ~txns_per_domain =
  let t0 = Stm.Monoclock.now () in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            match impl with
            | `Map ->
                let m : unit IM.t = IM.create () in
                for i = 1 to txns_per_domain do
                  Stm.atomic (fun () ->
                      ignore (IM.put m i ());
                      if i > 1 then ignore (IM.find m (i - 1)))
                done
            | `Derived ->
                let s = DSet.create () in
                for i = 1 to txns_per_domain do
                  Stm.atomic (fun () ->
                      ignore (DSet.add s i);
                      if i > 1 then ignore (DSet.mem s (i - 1)))
                done))
  in
  List.iter Domain.join ds;
  let elapsed = Stm.Monoclock.now () -. t0 in
  float_of_int (domains * txns_per_domain) /. elapsed

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Interleaved map and set runs: the median map and set commits/s and the
   median of the per-pair set/map ratios. *)
let derived_set_pairs ~domains ~txns_per_domain =
  let pairs =
    List.init derived_pairs (fun _ ->
        let m = derived_set_run ~impl:`Map ~domains ~txns_per_domain in
        let s = derived_set_run ~impl:`Derived ~domains ~txns_per_domain in
        (m, s))
  in
  ( median (List.map fst pairs),
    median (List.map snd pairs),
    median (List.map (fun (m, s) -> s /. m) pairs) )

let derived_counter_run ~domains ~incrs_per_domain =
  let c = DCounter.create () in
  let stats0 = Stm.global_stats () in
  let waits0 = Stm.commit_region_waits () in
  let t0 = Stm.Monoclock.now () in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to incrs_per_domain do
              Stm.atomic (fun () -> DCounter.incr c)
            done))
  in
  List.iter Domain.join ds;
  let elapsed = Stm.Monoclock.now () -. t0 in
  let stats1 = Stm.global_stats () in
  ( float_of_int (domains * incrs_per_domain) /. elapsed,
    stat_aborts stats1 - stat_aborts stats0,
    Stm.commit_region_waits () - waits0,
    DCounter.get c )

let derived () =
  let txns = 20_000 in
  Fmt.pf ppf "@.Derived collections (minted from commutativity specs)@.";
  Fmt.pf ppf "  %-18s %7s %12s@." "impl" "domains" "commits/s";
  let ratios =
    List.map
      (fun domains ->
        let map, set, ratio =
          derived_set_pairs ~domains ~txns_per_domain:txns
        in
        Fmt.pf ppf "  %-18s %7d %12.0f@." "map" domains map;
        Fmt.pf ppf "  %-18s %7d %12.0f@." "derived_set" domains set;
        (domains, ratio))
      [ 1; 4 ]
  in
  let ratio = List.assoc 4 ratios in
  let domains = 4 and incrs = 25_000 in
  let cps, aborts, waits, total =
    derived_counter_run ~domains ~incrs_per_domain:incrs
  in
  Fmt.pf ppf
    "  counter: %d domains x %d incrs -> %.0f/s, aborts %d, region waits \
     %d, sum %d@."
    domains incrs cps aborts waits total;
  gate_ge "derived.set_ratio_4dom" ratio derived_set_gate;
  gate_eq "derived.counter_aborts" aborts 0;
  gate_eq "derived.counter_region_waits" waits 0;
  gate_eq "derived.counter_sum" total (domains * incrs)

let targets : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("ablation", ablation);
    ("hostmap", hostmap);
    ("jbbhost", jbbhost);
    ("queue", queue);
    ("micro", micro);
    ("stmscale", stmscale);
    ("derived", derived);
    ("openloop", openloop);
    ("chaos", chaos);
    ("failover", failover);
    ("starve", starve);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [] ->
      List.iter
        (fun (name, f) ->
          Fmt.pf ppf "@.===== %s =====@." name;
          f ())
        targets
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n targets with
          | Some f -> f ()
          | None ->
              Fmt.pf ppf "unknown target %s; available: %s@." n
                (String.concat " " (List.map fst targets));
              exit 1)
        names);
  match !failed_gates with
  | [] -> ()
  | failed ->
      Fmt.pf ppf "@.%d gate(s) FAILED: %s@." (List.length failed)
        (String.concat ", " (List.rev failed));
      exit 1
