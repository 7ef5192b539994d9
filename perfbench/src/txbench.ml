(* The benchmark command: one workload, one seed, one run.

     txbench.exe --workload <jbb|kv_hot|scan_mix|worklist> --seed <n>
                 --seconds <s> --trace <0|1> [--git-rev <rev>]
                 [--src-digest <hex>]

   Prints a human-readable report, a provenance line, and as its last
   line one JSON object: correct, attempted, failed and the metrics
   (end-to-end with --trace 0, per-layer with --trace 1).  Each episode
   runs in a child process, this executable started with --episode. *)

open Perfbench

let workloads : (module Workload.S) list =
  [ (module Jbb_mix); (module Kv_hot); (module Scan_mix); (module Worklist) ]

let name (module W : Workload.S) = W.name

let json_float v = Printf.sprintf "%.12g" (if Float.is_finite v then v else 0.)
let json_string s = Printf.sprintf "%S" s

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.
  and trace = ref 0 and episode = ref (-1) in
  let git_rev = ref "unknown" and src_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time of the run");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, " provenance: source revision");
      ("--src-digest", Arg.Set_string src_digest, " provenance: source digest");
      ("--episode", Arg.Set_int episode, " internal: run one episode (1: traced)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "txbench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> name w = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "txbench: unknown workload %S (one of %s)\n" !workload
          (String.concat ", " (List.map name workloads));
        exit 2
  in
  let (module W : Workload.S) = w in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "txbench: need --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  if !episode >= 0 then begin
    Coordinator.print_episode w ~seed:!seed ~traced:(!episode = 1);
    exit 0
  end;
  let trace = !trace = 1 in
  let args =
    [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
      string_of_float !seconds ]
  in
  let cs = Coordinator.episodes ~exe:Sys.executable_name ~args ~seconds:!seconds ~trace in
  let coll =
    if not trace then []
    else
      let n = W.warm + W.per_domain in
      W.replay ~seed:!seed
        (Array.init Runner.n_domains (fun domain -> W.input ~seed:!seed ~domain ~n))
  in
  let metrics = Coordinator.metrics ~trace ~coll cs in
  let untraced = List.filter (fun (c : Coordinator.child) -> not c.traced) cs in
  let attempted = Coordinator.total "attempted" cs and failed = Coordinator.total "failed" cs in
  let kept = Coordinator.least_disturbed untraced in
  let samples = Coordinator.total "latency_samples" kept in
  Printf.printf
    "%s seed %d: %d episodes (%s), each in its own process: %d warm-up + %d \
     timed txns on %d closed-loop client domains\n"
    W.name !seed (List.length cs)
    (if trace then "alternately untraced and traced" else "untraced")
    (Runner.n_domains * W.warm)
    (Runner.n_domains * W.per_domain)
    Runner.n_domains;
  List.iteri
    (fun k (c : Coordinator.child) ->
      let g key = Coordinator.get key c in
      Printf.printf
        "  episode %2d%s: setup %.4f s, %.1f txn/s, p50 %.3f us, p99 %.3f us, \
         live %.3f MB, cpu share %.3f%s\n"
        k (if c.traced then " (traced)" else "") (g "setup_s")
        (g "throughput_txn_s") (g "latency_p50_us") (g "latency_p99_us")
        (g "heap_live_mb") (g "cpu_share")
        (if List.memq c kept then " *" else "");
      List.iter (Printf.printf "    CHECK FAILED: %s\n") c.failed_checks;
      if g "lost_events" > 0. then
        Printf.printf "    runtime events lost: %.0f\n" (g "lost_events"))
    cs;
  Printf.printf "  medians (%s):\n"
    (if trace then "traced episodes"
     else "timed phase: episodes marked *, the least disturbed half");
  List.iter (fun (k, v, u) -> Printf.printf "  %-34s %14.4f %s\n" k v u) metrics;
  Printf.printf "  latency samples (episodes marked *): %d\n" samples;
  Printf.printf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"nproc\": %d, \
     \"recommended_domain_count\": %d, \"ocaml_version\": %s, \"git_rev\": %s, \
     \"src_digest\": %s, \"episodes\": %d, \"txns_per_episode\": %d, \
     \"warmup_txns_per_episode\": %d, \"latency_samples\": %d, \"trace\": %b}}\n"
    (json_string W.name) !seed Runner.n_domains
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string !git_rev)
    (json_string !src_digest) (List.length cs)
    (Runner.n_domains * W.per_domain)
    (Runner.n_domains * W.warm)
    samples trace;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string k)
              (json_float v) (json_string u))
          metrics))
