(* The closed-loop driver behind every host-side commits/s, retries and
   p99 figure (stmscale, derived, hostmap, jbbhost, the redo-vs-undo
   ablation and the JBB runs): N domains each run one transaction after
   another, as fast as they complete.

   [run ~label ~domains ~txns_per_domain body] spawns [domains] domains.
   Domain [d] applies [body d] once, outside the measurement loop (where a
   workload builds its per-domain state), then calls the returned closure
   with [i = 0 .. txns_per_domain - 1], timing each call into a
   preallocated latency array and reading [Gc.minor_words] (domain-local)
   around the loop, so the driver itself allocates nothing per
   transaction.  Around spawn and join it takes deltas of
   [Stm.global_stats] and [Stm.commit_region_waits]; the counters are
   exact once the domains have been joined, and retries are the row's
   [aborts] rather than a counter in the transaction body.

   Schedules that are not closed loops (the chaos soaks, the open-loop
   generator, forced starvation, the parked commit-order helper) keep
   their own domains. *)

module Stm = Tcc_stm.Stm

type row = {
  label : string;
  domains : int;
  txns : int;  (* [domains * txns_per_domain] closure calls *)
  commits_per_s : float;  (* [txns] over spawn-to-join wall time *)
  p99_us : float;  (* exact, over every call's latency *)
  region_waits : int;
  aborts : int;  (* conflict + remote + explicit *)
  minor_words_per_txn : float;
  clock_bumps : int;
}

let stat_aborts (s : Stm.stats) =
  s.conflict_aborts + s.remote_aborts + s.explicit_aborts

let run ~label ~domains ~txns_per_domain body =
  let waits0 = Stm.commit_region_waits () in
  let s0 = Stm.global_stats () in
  let t0 = Unix.gettimeofday () in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let f = body d in
            let lat = Array.make txns_per_domain 0. in
            let w0 = Gc.minor_words () in
            for i = 0 to txns_per_domain - 1 do
              let s = Unix.gettimeofday () in
              f i;
              lat.(i) <- Unix.gettimeofday () -. s
            done;
            (Gc.minor_words () -. w0, lat)))
  in
  let results = List.map Domain.join ds in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let s1 = Stm.global_stats () in
  let txns = domains * txns_per_domain in
  let words = List.fold_left (fun acc (w, _) -> acc +. w) 0. results in
  {
    label;
    domains;
    txns;
    commits_per_s = float_of_int txns /. elapsed_s;
    p99_us = Hdr.p99_us (List.map snd results);
    region_waits = Stm.commit_region_waits () - waits0;
    aborts = stat_aborts s1 - stat_aborts s0;
    minor_words_per_txn = words /. float_of_int txns;
    clock_bumps = s1.clock_bumps - s0.clock_bumps;
  }

let header =
  Printf.sprintf "%-26s %7s %8s %12s %8s %12s %7s %8s %11s" "label" "domains"
    "txns" "commits/s" "p99(us)" "region_waits" "aborts" "mw/txn"
    "clock_bumps"

let pp_row ppf r =
  Fmt.pf ppf "%-26s %7d %8d %12.0f %8.1f %12d %7d %8.1f %11d" r.label
    r.domains r.txns r.commits_per_s r.p99_us r.region_waits r.aborts
    r.minor_words_per_txn r.clock_bumps

(* First quartile, median and third quartile of a non-empty sample (the
   order statistics at n/4, n/2 and 3n/4). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

(* Busy-work that makes a transaction long, as in the paper's
   micro-benchmarks ("each operation is surrounded by computation"). *)
let busy n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x + (i land 7)
  done;
  ignore (Sys.opaque_identity !x)
