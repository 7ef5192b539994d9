(* Tests of the benchmark's own code: the latency summaries, the span
   arithmetic of the tracer, and the output checks, each of which must
   fail on a deliberately corrupted state. *)

open Perfbench
module Hdr = Harness.Hdr
module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar

let close = Alcotest.(check (float 1e-9))

(* ---------------- percentiles and merge ---------------- *)

let test_percentile_merge () =
  let lo = Hdr.create () and hi = Hdr.create () in
  for v = 1 to 50 do
    Hdr.record_ns lo (v * 1000)
  done;
  for v = 51 to 100 do
    Hdr.record_ns hi (v * 1000)
  done;
  let h = Stats.merged [ lo; hi ] in
  Alcotest.(check int) "count" 100 (Hdr.count h);
  let within name got want =
    if Float.abs (got -. want) > want /. 64. then
      Alcotest.failf "%s: %.3f us, want %.3f us within 1/64" name got want
  in
  within "p50" (Stats.p50_us h) 50.;
  within "p99" (Stats.p99_us h) 99.;
  (* merging leaves the sources alone *)
  Alcotest.(check int) "source count" 50 (Hdr.count lo);
  (* a tail of 1% at 1 ms: p50 stays at 1 us, p99 does not reach the tail *)
  let t = Hdr.create () in
  for _ = 1 to 990 do
    Hdr.record_ns t 1_000
  done;
  for _ = 1 to 10 do
    Hdr.record_ns t 1_000_000
  done;
  close "p50" 1. (Stats.p50_us t);
  close "p99" 1. (Stats.p99_us t);
  close "max" 1000. (Hdr.percentile_us t 1.0)

let test_median () =
  close "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  close "one" 7. (Stats.median [ 7. ]);
  close "ratio by zero" 0. (Stats.ratio 1. 0.)

(* The timed-phase medians keep the half of the episodes (rounded up)
   with the highest CPU share. *)
let test_least_disturbed () =
  let ep share tput =
    {
      Coordinator.traced = false;
      values = [ ("cpu_share", share); ("throughput_txn_s", tput) ];
      failed_checks = [];
    }
  in
  let cs = [ ep 0.5 50.; ep 0.9 90.; ep 0.7 70.; ep 0.4 40.; ep 0.8 80. ] in
  Alcotest.(check (list (float 0.)))
    "kept" [ 90.; 80.; 70. ]
    (List.map (Coordinator.get "throughput_txn_s") (Coordinator.least_disturbed cs));
  match Coordinator.metrics ~trace:false ~coll:[] cs with
  | ("throughput_txn_s", v, "1/s") :: _ -> close "median of kept" 80. v
  | _ -> Alcotest.fail "throughput_txn_s is not the first metric"

(* ---------------- span arithmetic ---------------- *)

let span s kind a b =
  let i = Span.open_ s kind ~now:a in
  (i, fun () -> Span.close s i ~now:b)

(* root [0,100]; children a [10,30] and b [20,50] overlap; a has a child
   [12,15]; c [90,120] sticks out of the root. *)
let test_self_time () =
  let s = Span.create () in
  let root, close_root = span s 0 0 100 in
  let a, close_a = span s 1 10 30 in
  let a1, close_a1 = span s 2 12 15 in
  close_a1 ();
  close_a ();
  let b, close_b = span s 1 20 50 in
  close_b ();
  let c, close_c = span s 1 90 120 in
  close_c ();
  close_root ();
  Alcotest.(check int) "root self" (100 - 40 - 10) (Span.self_ns s root);
  Alcotest.(check int) "a self" (20 - 3) (Span.self_ns s a);
  Alcotest.(check int) "leaf self" 3 (Span.self_ns s a1);
  Alcotest.(check int) "b self" 30 (Span.self_ns s b);
  Alcotest.(check int) "c self" 30 (Span.self_ns s c);
  Alcotest.(check (list int)) "children" [ a; b; c ] (Span.children s root)

(* An exception leaves a span open: sealing closes it at its parent's
   stop. *)
let test_seal () =
  let s = Span.create () in
  let root = Span.open_ s 0 ~now:0 in
  let child = Span.open_ s 1 ~now:5 in
  ignore (Span.open_ s 2 ~now:6);
  Span.close s child ~now:9;
  Span.close s root ~now:20;
  Span.seal s;
  Alcotest.(check int) "open grandchild ends with its parent" 9 s.stop.(2);
  Alcotest.(check int) "root self" 16 (Span.self_ns s root)

(* A transaction whose first attempt aborted: atomic [0,100], bodies
   [10,30] (aborted) and [50,80]. *)
let test_account () =
  let t = Trace.create ~on:true in
  let s = t.spans in
  ignore (Span.open_ s Trace.txn ~now:0);
  let at = Span.open_ s Trace.atomic_k ~now:0 in
  let b1 = Span.open_ s Trace.body ~now:10 in
  let f = Span.open_ s Trace.map_find ~now:12 in
  Span.close s f ~now:14;
  Span.close s b1 ~now:30;
  let b2 = Span.open_ s Trace.body ~now:50 in
  let p = Span.open_ s Trace.map_put ~now:60 in
  Span.close s p ~now:64;
  Span.close s b2 ~now:80;
  Span.close s at ~now:100;
  Trace.end_txn t ~now:104;
  Alcotest.(check int) "txns" 1 t.txns;
  Alcotest.(check int) "attempts" 2 t.attempts;
  Alcotest.(check int) "wasted: atomic start to last body" 50 t.wasted_ns;
  Alcotest.(check int) "txcoll time" 6 t.txcoll_ns;
  Alcotest.(check int) "txn time" 104 t.txn_ns;
  Alcotest.(check int) "commit" 20 (Hdr.percentile_ns t.commit_hist 0.5);
  Alcotest.(check int) "body" 30 (Hdr.percentile_ns t.body_hist 0.5);
  Alcotest.(check int) "buffer cleared" 0 s.n

(* ---------------- output checks ---------------- *)

let off = Trace.create ~on:false
let all_ok checks = List.for_all snd checks

let check_fails name checks =
  if all_ok checks then Alcotest.failf "%s: checks passed on a corrupted state" name

let run_all run st inp n =
  for i = 0 to n - 1 do
    if not (run off st inp i) then Alcotest.failf "transaction %d failed" i
  done

let test_kv_hot () =
  let m = Kv_hot.build ~seed:1 in
  run_all Kv_hot.run m (Kv_hot.input ~seed:1 ~domain:0 ~n:200) 200;
  Alcotest.(check bool) "clean" true (all_ok (Kv_hot.checks m ~committed:200));
  ignore (Kv_hot.M.put m 5 1);
  check_fails "sum" (Kv_hot.checks m ~committed:200);
  let m = Kv_hot.build ~seed:1 in
  ignore (Kv_hot.M.remove m 7);
  check_fails "size" (Kv_hot.checks m ~committed:0)

let test_scan_mix () =
  let m = Scan_mix.build ~seed:1 in
  let inp = Scan_mix.input ~seed:1 ~domain:0 ~n:200 in
  run_all Scan_mix.run m inp 200;
  Alcotest.(check bool) "clean" true (all_ok (Scan_mix.checks m ~committed:200));
  ignore (Scan_mix.M.remove m 1000);
  check_fails "size" (Scan_mix.checks m ~committed:200);
  let fold = { Scan_mix.op = [| Fold |]; key = [| 900 |] } in
  Alcotest.(check bool) "short fold" false (Scan_mix.run off m fold 0);
  ignore (Scan_mix.M.put m 1001 0);
  let find = { Scan_mix.op = [| Find |]; key = [| 1001 |] } in
  Alcotest.(check bool) "odd key found" false (Scan_mix.run off m find 0)

let test_worklist () =
  let s = Worklist.build ~seed:1 in
  run_all Worklist.run s 100 100;
  Alcotest.(check bool) "clean" true (all_ok (Worklist.checks s ~committed:100));
  check_fails "counter sum" (Worklist.checks s ~committed:99);
  Worklist.Q.put s.q 42;
  check_fails "items" (Worklist.checks s ~committed:100)

let test_jbb () =
  let s = Jbb_mix.build ~seed:1 in
  run_all Jbb_mix.run s (Jbb_mix.input ~seed:1 ~domain:0 ~n:300) 300;
  Alcotest.(check bool) "clean" true (all_ok (Jbb_mix.checks s ~committed:300));
  Atomic.incr s.new_orders;
  check_fails "order count" (Jbb_mix.checks s ~committed:300);
  Atomic.decr s.new_orders;
  let c = s.t.warehouses.(0).customers.(0) in
  Stm.atomic (fun () -> Tvar.set c (Tvar.get c + 1));
  check_fails "value conserved" (Jbb_mix.checks s ~committed:300)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile and merge" `Quick test_percentile_merge;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "least disturbed half" `Quick test_least_disturbed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "seal" `Quick test_seal;
          Alcotest.test_case "account" `Quick test_account;
        ] );
      ( "checks",
        [
          Alcotest.test_case "kv_hot" `Quick test_kv_hot;
          Alcotest.test_case "scan_mix" `Quick test_scan_mix;
          Alcotest.test_case "worklist" `Quick test_worklist;
          Alcotest.test_case "jbb" `Quick test_jbb;
        ] );
    ]
