(* Multicore hot-path tests: exactness of the sharded (per-domain,
   lazily aggregated) statistics under a multi-domain workload, the
   read-only commit fast path (clock untouched, serializability and chaos
   injection preserved), uniqueness of block-leased transaction ids, the
   one-bump-per-writing-commit clock invariant, and the allocation bounds
   of the pooled retry loop and of commit-plan construction. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Q = Txcoll.Host.Queue

(* Sharded stats must equal the exact event counts of a deterministic
   8-domain mixed workload: each domain performs a known number of
   writing commits, read-only commits and explicit aborts on private
   tvars (no conflicts possible), so the aggregate is exact — any lost or
   double-counted shard increment shows up as an inequality. *)
let test_sharded_stats_exact () =
  Stm.reset_stats ();
  let domains = 8 and writes = 150 and reads = 100 and aborts = 25 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let tv = Tvar.make 0 in
            for i = 1 to writes do
              Stm.atomic (fun () -> Tvar.set tv i)
            done;
            for _ = 1 to reads do
              Stm.atomic (fun () -> ignore (Tvar.get tv))
            done;
            for _ = 1 to aborts do
              try Stm.atomic (fun () -> Stm.self_abort ())
              with Stm.Aborted -> ()
            done))
  in
  List.iter Domain.join ds;
  let s = Stm.global_stats () in
  Alcotest.(check int) "commits" (domains * (writes + reads)) s.commits;
  Alcotest.(check int) "read-only commits" (domains * reads)
    s.read_only_commits;
  Alcotest.(check int) "explicit aborts" (domains * aborts) s.explicit_aborts;
  Alcotest.(check int) "conflict aborts" 0 s.conflict_aborts;
  Alcotest.(check int) "clock bumps" (domains * writes) s.clock_bumps

(* A read-only atomic must not advance the global clock and must be
   counted as a read-only commit — for plain tvar reads and for
   collection getters certifying emptiness of their store buffers. *)
let test_ro_fast_path_no_clock () =
  Stm.reset_stats ();
  let tv = Tvar.make 41 in
  let m = IM.create () in
  ignore (IM.put m 1 10);
  let s0 = Stm.global_stats () in
  for _ = 1 to 50 do
    Stm.atomic (fun () -> ignore (Tvar.get tv))
  done;
  Stm.atomic (fun () ->
      ignore (IM.find m 1);
      ignore (IM.size m);
      ignore (IM.mem m 2));
  let s1 = Stm.global_stats () in
  Alcotest.(check int) "no clock bumps" 0 (s1.clock_bumps - s0.clock_bumps);
  Alcotest.(check int) "all read-only" 51
    (s1.read_only_commits - s0.read_only_commits);
  Alcotest.(check int) "counted as commits too" 51 (s1.commits - s0.commits);
  (* A writing collection transaction must NOT take the fast path. *)
  let s2 = Stm.global_stats () in
  Stm.atomic (fun () -> ignore (IM.put m 2 20));
  let s3 = Stm.global_stats () in
  Alcotest.(check int) "writer not read-only" 0
    (s3.read_only_commits - s2.read_only_commits)

(* Serializability on the fast path: a read-only transaction whose read
   set was invalidated by a concurrent committed write must abort and
   retry, observing the new value. *)
let test_ro_fast_path_aborts_on_conflict () =
  let tv1 = Tvar.make 0 and tv2 = Tvar.make 7 in
  let attempts = ref 0 in
  let v =
    Stm.atomic (fun () ->
        incr attempts;
        let a = Tvar.get tv1 in
        if !attempts = 1 then
          (* Invalidate the recorded read of tv1 from another domain
             while this (read-only) transaction is still running. *)
          Domain.join (Domain.spawn (fun () -> Tvar.set tv1 100));
        let b = Tvar.get tv2 in
        a + b)
  in
  Alcotest.(check bool) "retried at least once" true (!attempts >= 2);
  Alcotest.(check int) "read the committed write" 107 v

(* Chaos injection must keep firing inside read-only commits: the
   Chaos_in_commit hook point is on the fast path too. *)
let test_ro_fast_path_chaos_fires () =
  let in_commit = ref 0 in
  Stm.Chaos.set_hook
    (Some
       (function Stm.Chaos.Chaos_in_commit -> incr in_commit | _ -> ()));
  Fun.protect
    ~finally:(fun () -> Stm.Chaos.set_hook None)
    (fun () ->
      let tv = Tvar.make 1 in
      Stm.atomic (fun () -> ignore (Tvar.get tv));
      Alcotest.(check int) "hook fired in read-only commit" 1 !in_commit;
      let m = IM.create () in
      ignore (IM.put m 1 1);
      in_commit := 0;
      Stm.atomic (fun () -> ignore (IM.find m 1));
      Alcotest.(check int) "hook fired in semantic read-only commit" 1
        !in_commit)

(* Block-leased transaction ids must stay process-unique across domains,
   including across lease-block boundaries (> 1024 ids per domain). *)
let test_leased_txn_ids_unique () =
  let domains = 4 and per_domain = 1500 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.init per_domain (fun _ ->
                Stm.atomic (fun () -> Stm.txn_id (Stm.current ())))))
  in
  let all = List.concat_map Domain.join ds in
  let seen = Hashtbl.create (domains * per_domain) in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "txn id %d unique" id)
        false (Hashtbl.mem seen id);
      Hashtbl.add seen id ())
    all

(* Every writing commit advances the clock exactly once — also under
   multi-domain contention, where a lost CAS is settled by adopting the
   winner's value with a single fetch-and-add rather than re-bumping. *)
let test_one_bump_per_writing_commit () =
  Stm.reset_stats ();
  let domains = 4 and per_domain = 300 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let tv = Tvar.make 0 in
            for i = 1 to per_domain do
              Stm.atomic (fun () -> Tvar.set tv i)
            done))
  in
  List.iter Domain.join ds;
  let s = Stm.global_stats () in
  Alcotest.(check int) "one bump per writing commit" (domains * per_domain)
    s.clock_bumps;
  Alcotest.(check bool) "adoptions never exceed bumps" true
    (s.clock_cas_retries <= s.clock_bumps)

(* Minor words one [Stm.atomic op] allocates, after warm-up. *)
let words_per_atomic op =
  for _ = 1 to 100 do
    Stm.atomic op
  done;
  let iters = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Stm.atomic op
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_budget what per budget =
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.1f words (<= %.0f)" what per budget)
    true (per <= budget)

(* The pooled descriptors and the closure-free retry loop leave an empty
   transaction with the fresh status cell and the pool's cons: ~150 minor
   words before pooling, 34 with the per-call closures. *)
let test_retry_loop_allocation_free () =
  check_budget "empty atomic" (words_per_atomic ignore) 16.

(* Point operations on an existing key inside [Stm.atomic]: the
   bookkeeping around the data (semantic lock owners, stripe lookup,
   handler registration, commit) must stay off the allocator.  The
   budgets sit about 15% above the measured counts, 115/296 (sorted map)
   and 110/287 (hash map) with committed state kept only in the shadows;
   with hashtable lock owners and write set and the per-call retry-loop
   closures they read 285/631 and 233/506, and 119/328 and 112/338 while
   each stripe also kept a mutable shard.  A queue transaction that puts
   one element and polls the committed head measures 389: two persistent
   map path copies (the put's commit and the poll's removal) plus the
   publications of both; the hand-written queue over a FIFO deque and a
   persistent deque image read 209. *)
let test_point_op_allocation_budget () =
  let sm = SM.create () and m = IM.create () and q = Q.create () in
  for k = 0 to 63 do
    ignore (SM.put sm k k);
    ignore (IM.put m k k);
    Q.put q k
  done;
  let per op = words_per_atomic (fun () -> ignore (op ())) in
  check_budget "sorted-map find" (per (fun () -> SM.find sm 7)) 132.;
  check_budget "sorted-map put" (per (fun () -> SM.put sm 7 1)) 340.;
  check_budget "hash-map find" (per (fun () -> IM.find m 7)) 127.;
  check_budget "hash-map put" (per (fun () -> IM.put m 7 1)) 330.;
  check_budget "queue put + poll"
    (per (fun () ->
         Q.put q 7;
         Q.poll q))
    450.

(* Commit-region plan construction must stay O(regions) per commit: one
   transaction writing one present key in each of [n] single-stripe maps
   registers [n] handlers whose merged region plan has [n] regions.
   Minor-heap words per commit growing ~linearly in [n] (ratio bounded
   well under the quadratic blowup) is the micro-assert backing the
   rid-sorted-merge dedup in [commit_regions]. *)
let test_commit_plan_allocation_linear () =
  let mk n =
    Array.init n (fun _ ->
        let m = IM.create ~stripes:1 () in
        ignore (IM.put m 0 0);
        m)
  in
  let words_per_commit maps =
    let body () = Array.iter (fun m -> ignore (IM.put m 0 1)) maps in
    for _ = 1 to 50 do
      Stm.atomic body
    done;
    let reps = 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      Stm.atomic body
    done;
    (Gc.minor_words () -. w0) /. float_of_int reps
  in
  let small = words_per_commit (mk 16) in
  let large = words_per_commit (mk 64) in
  let ratio = large /. small in
  Alcotest.(check bool)
    (Printf.sprintf
       "16 regions %.1f words/commit, 64 regions %.1f (ratio %.2f <= 6.0)"
       small large ratio)
    true (ratio <= 6.0)

let suites =
  [
    ( "stm_scaling",
      [
        Alcotest.test_case "sharded stats exact under 8 domains" `Quick
          test_sharded_stats_exact;
        Alcotest.test_case "read-only commit leaves clock untouched" `Quick
          test_ro_fast_path_no_clock;
        Alcotest.test_case "read-only commit aborts on conflict" `Quick
          test_ro_fast_path_aborts_on_conflict;
        Alcotest.test_case "chaos fires on read-only fast path" `Quick
          test_ro_fast_path_chaos_fires;
        Alcotest.test_case "leased txn ids unique across domains" `Quick
          test_leased_txn_ids_unique;
        Alcotest.test_case "one clock bump per writing commit" `Quick
          test_one_bump_per_writing_commit;
        Alcotest.test_case "pooled retry loop is allocation-free" `Quick
          test_retry_loop_allocation_free;
        Alcotest.test_case "commit-plan allocation linear in regions" `Quick
          test_commit_plan_allocation_linear;
        Alcotest.test_case "point-operation allocation budgets" `Quick
          test_point_op_allocation_budget;
      ] );
  ]
