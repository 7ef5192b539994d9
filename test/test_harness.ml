(* Tests for the experiment harness: the commutativity specification
   (Tables 1/4/7), the measured lock tables (2/5) and the figure sweeps'
   qualitative shapes. *)

module CS = Harness.Commute_spec

let test_conditions_exact () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v.CS.pair ^ " condition exact") true v.CS.condition_exact)
    (CS.check_all ())

(* Tables 2 and 5 measured: the shipped map and sorted map serialise
   every (row, write) pair in commit order. *)
let test_locks_sound () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ ": commit-order violations")
        []
        Harness.Commit_order.(
          List.map (fun o -> o.case) (violations (report name))))
    [ "map"; "sorted map" ]

let test_reads_commute () =
  Alcotest.(check bool) "read-only ops commute" true (CS.reads_commute ())

let test_queue_conditions () =
  List.iter
    (fun (pair, ok) -> Alcotest.(check bool) pair true ok)
    (CS.qcheck_all ())

let test_known_conflicts_nonzero () =
  (* Sanity: the sweep is not vacuous — same-key get-vs-put conflicts in
     some states, disjoint-key never. *)
  let find pair =
    List.find (fun v -> v.CS.pair = pair) (CS.check_all ())
  in
  Alcotest.(check bool) "same key conflicts exist" true
    ((find "get(0) vs put(0,10)").CS.conflicts > 0);
  Alcotest.(check int) "disjoint keys never conflict" 0
    (find "get(0) vs put(1,10)").CS.conflicts

(* ---------------- figure shapes (reduced sizes for test speed) ------- *)

let small = { Harness.Workloads.default_params with total_ops = 256 }
let cpus = [ 1; 8; 16 ]

let speedup fig label n =
  match Harness.Figures.value_at fig ~label ~cpus:n with
  | Some v -> v
  | None -> Alcotest.failf "missing point %s@%d" label n

let test_fig1_shape () =
  let fig = Harness.Figures.figure1 ~p:small ~cpus () in
  let java = speedup fig "Java HashMap" 16 in
  let naive = speedup fig "Atomos HashMap" 16 in
  let txc = speedup fig "Atomos TransactionalMap" 16 in
  Alcotest.(check bool) "java scales" true (java > 8.0);
  Alcotest.(check bool) "naive flattens below java" true (naive < 0.75 *. java);
  Alcotest.(check bool) "transactional map recovers scaling" true
    (txc > 0.85 *. java)

let test_fig2_shape () =
  let fig = Harness.Figures.figure2 ~p:small ~cpus () in
  let java = speedup fig "Java TreeMap" 16 in
  let naive = speedup fig "Atomos TreeMap" 16 in
  let txc = speedup fig "Atomos TransactionalSortedMap" 16 in
  Alcotest.(check bool) "java scales" true (java > 7.0);
  Alcotest.(check bool) "naive tree fails to scale" true (naive < 0.6 *. java);
  Alcotest.(check bool) "transactional sorted map recovers" true
    (txc > 0.85 *. java)

let test_fig3_shape () =
  let fig = Harness.Figures.figure3 ~p:small ~cpus () in
  let java = speedup fig "Java HashMap" 16 in
  let txc = speedup fig "Atomos TransactionalMap" 16 in
  Alcotest.(check bool) "coarse lock scales poorly" true (java < 4.0);
  Alcotest.(check bool) "compound transactional ops scale" true (txc > 10.0)

let test_ablation_isempty () =
  let outcomes = Harness.Ablations.isempty ~n_cpus:8 ~ops_per_cpu:16 () in
  match outcomes with
  | [ dedicated; via_size ] ->
      Alcotest.(check int) "dedicated lock aborts nobody" 0
        dedicated.Harness.Ablations.violations;
      Alcotest.(check bool) "size-lock encoding aborts" true
        (via_size.Harness.Ablations.violations > 0)
  | _ -> Alcotest.fail "expected two outcomes"

let test_ablation_blind_put () =
  let outcomes = Harness.Ablations.blind_put ~n_cpus:8 ~ops_per_cpu:16 () in
  match outcomes with
  | [ blind; standard ] ->
      Alcotest.(check int) "blind writers commute" 0
        blind.Harness.Ablations.violations;
      Alcotest.(check bool) "value-returning writers are ordered" true
        (standard.Harness.Ablations.violations > 0)
  | _ -> Alcotest.fail "expected two outcomes"

let test_locktable_traces () =
  (* The traced footprints must match Table 2's prescriptions. *)
  Alcotest.(check (list string))
    "get takes its key lock" [ "key(10)" ]
    (Harness.Locktables.probe_map (fun m ->
         ignore (Harness.Locktables.IM.find m 10)));
  Alcotest.(check (list string))
    "size takes the size lock" [ "size" ]
    (Harness.Locktables.probe_map (fun m ->
         ignore (Harness.Locktables.IM.size m)));
  Alcotest.(check (list string))
    "blind put takes nothing" []
    (Harness.Locktables.probe_map (fun m ->
         Harness.Locktables.IM.put_blind m 10 0))

let suites =
  [
    ( "spec.tables",
      [
        Alcotest.test_case "Table 1/4 conditions exact" `Quick
          test_conditions_exact;
        Alcotest.test_case "Table 2/5 locks sound" `Quick test_locks_sound;
        Alcotest.test_case "reads commute" `Quick test_reads_commute;
        Alcotest.test_case "Table 7 queue conditions" `Quick
          test_queue_conditions;
        Alcotest.test_case "sweep non-vacuous" `Quick
          test_known_conflicts_nonzero;
        Alcotest.test_case "lock-table traces" `Quick test_locktable_traces;
      ] );
    ( "figures.shape",
      [
        Alcotest.test_case "figure 1" `Slow test_fig1_shape;
        Alcotest.test_case "figure 2" `Slow test_fig2_shape;
        Alcotest.test_case "figure 3" `Slow test_fig3_shape;
        Alcotest.test_case "ablation isEmpty" `Quick test_ablation_isempty;
        Alcotest.test_case "ablation blind put" `Quick test_ablation_blind_put;
      ] );
  ]
