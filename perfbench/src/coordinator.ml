(* One benchmark run: episodes in child processes until the run's time is
   up, then the medians.

   A child is this same executable started with [--episode]; it runs one
   {!Runner.episode} and prints [value <name> <float>] and
   [check_failed <name>] lines.  The traced run alternates untraced and
   traced children: end-to-end numbers come only from untraced episodes,
   per-layer numbers only from traced ones, and the ratio of their
   throughput medians is the tracing overhead. *)

type child = {
  traced : bool;
  values : (string * float) list;
  failed_checks : string list;
}

(* The child side: run one episode and print it. *)
let print_episode w ~seed ~traced =
  let (module W : Workload.S) = w in
  let e = Runner.episode (module W) ~seed ~traced in
  let pr (k, v) = Printf.printf "value %s %.17g\n" k v in
  List.iter pr (Metrics.end_to_end_values e);
  if traced then List.iter pr (Metrics.layer_values e);
  List.iter pr
    [
      ("attempted", float_of_int e.attempted);
      ("failed", float_of_int e.failed);
      ("latency_samples", float_of_int (Harness.Hdr.count e.lat));
      ("lost_events", float_of_int e.lost_events);
      ("cpu_share", e.cpu_share);
    ];
  List.iter (Printf.printf "check_failed %s\n") e.failed_checks

let parse ~traced lines =
  List.fold_left
    (fun c line ->
      match String.split_on_char ' ' line with
      | [ "value"; k; v ] -> { c with values = (k, float_of_string v) :: c.values }
      | [ "check_failed"; k ] -> { c with failed_checks = k :: c.failed_checks }
      | _ -> failwith ("unexpected episode output: " ^ line))
    { traced; values = []; failed_checks = [] }
    lines

let run_child ~exe ~args ~traced =
  let argv = Array.of_list (exe :: args @ [ "--episode"; (if traced then "1" else "0") ]) in
  let ic = Unix.open_process_args_in exe argv in
  let rec read acc =
    match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> parse ~traced lines
  | _ -> failwith "episode process failed"

let min_episodes ~trace = if trace then 4 else 3

(* Run children until [seconds] have passed and at least the minimum
   number of episodes is done. *)
let episodes ~exe ~args ~seconds ~trace =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop k acc =
    if k >= min_episodes ~trace && Clock.now_ns () >= deadline then List.rev acc
    else
      let traced = trace && k mod 2 = 1 in
      loop (k + 1) (run_child ~exe ~args ~traced :: acc)
  in
  loop 0 []

let get k c = try List.assoc k c.values with Not_found -> 0.
let median_of k cs = Stats.median (List.map (get k) cs)
let total k cs = int_of_float (List.fold_left (fun a c -> a +. get k c) 0. cs)

(* The half of [cs] (rounded up) in which the clients were on a CPU for
   the largest share of the timed phase.  On a shared VM an episode's
   throughput follows that share closely: when the hypervisor deschedules
   one client, the other soon waits for it at a stop-the-world minor
   collection or a commit-region handoff.  Ranking by the share drops the
   episodes the host disturbed most. *)
let least_disturbed cs =
  let ranked =
    List.stable_sort
      (fun a b -> Float.compare (get "cpu_share" b) (get "cpu_share" a))
      cs
  in
  List.filteri (fun i _ -> 2 * i < List.length cs) ranked

(* Name, value and unit of every reported metric.  Timed-phase metrics
   are medians over the least disturbed untraced episodes, set-up time and
   live heap medians over all untraced ones.  [coll] holds the raw replay
   values, measured in the calling process. *)
let metrics ~trace ~coll cs =
  let traced, untraced = List.partition (fun c -> c.traced) cs in
  let tput cs = median_of "throughput_txn_s" (least_disturbed cs) in
  if not trace then
    List.map
      (fun (k, u) ->
        let eps =
          if k = "setup_s" || k = "heap_live_mb" then untraced
          else least_disturbed untraced
        in
        (k, median_of k eps, u))
      Metrics.end_to_end
  else
    List.map
      (fun (k, u) ->
        let v =
          if k = "trace.overhead_pct" then
            100. *. (Stats.ratio (tput untraced) (tput traced) -. 1.)
          else if String.starts_with ~prefix:"coll." k then
            Option.value (List.assoc_opt k coll) ~default:0.
          else median_of k traced
        in
        (k, v, u))
      Metrics.per_layer
