(* txcoll_lab: command-line laboratory for the transactional collection
   classes reproduction.  Unlike bench/main.exe (which regenerates the
   paper's experiments with fixed parameters), this tool exposes the
   workload and machine parameters for exploration:

     txcoll_lab fig 1 --cpus 1,2,4,8,16,32 --ops 2048 --think 4000
     txcoll_lab jbb --cpus 16 --tasks 1024 --variant txcoll
     txcoll_lab jbb-host --domains 2 --tasks 5000
     txcoll_lab queue --cpus 1,4,16 --items 512
     txcoll_lab tables
     txcoll_lab validate *)

open Cmdliner

let ppf = Fmt.stdout

let cpus_arg =
  let doc = "Comma-separated simulated CPU counts." in
  Arg.(value & opt (list int) [ 1; 2; 4; 8; 16; 32 ] & info [ "cpus" ] ~doc)

let ops_arg =
  let doc = "Total operations across all CPUs." in
  Arg.(value & opt int 1024 & info [ "ops" ] ~doc)

let think_arg =
  let doc = "Computation cycles surrounding each operation." in
  Arg.(value & opt int 6000 & info [ "think" ] ~doc)

let keyspace_arg =
  let doc = "Key space size of the shared map." in
  Arg.(value & opt int 512 & info [ "keys" ] ~doc)

(* ---------------- fig ---------------- *)

let run_fig n cpus ops think keys csv =
  let p =
    {
      Harness.Workloads.default_params with
      total_ops = ops;
      think;
      key_space = keys;
    }
  in
  let fig =
    match n with
    | 1 -> Harness.Figures.figure1 ~p ~cpus ()
    | 2 -> Harness.Figures.figure2 ~p ~cpus ()
    | 3 -> Harness.Figures.figure3 ~p ~cpus ()
    | 4 -> Jbb.Sim_jbb.figure4 ~cpus ()
    | _ -> Fmt.failwith "fig: expected 1..4"
  in
  if csv then Harness.Figures.render_csv ppf fig
  else Harness.Figures.render ppf fig

let fig_cmd =
  let n =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Figure 1-4.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the table.")
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures")
    Term.(const run_fig $ n $ cpus_arg $ ops_arg $ think_arg $ keyspace_arg $ csv)

(* ---------------- jbb (simulated) ---------------- *)

let jbb_variant =
  let alts =
    [
      ("java", `Java);
      ("baseline", `Atomos_baseline);
      ("open", `Atomos_open);
      ("txcoll", `Atomos_txcoll);
    ]
  in
  let doc = "Parallelisation variant: java, baseline, open or txcoll." in
  Arg.(value & opt (enum alts) `Atomos_txcoll & info [ "variant" ] ~doc)

let run_jbb variant n_cpus tasks warehouses =
  let p = { Jbb.Model.default_params with Jbb.Model.total_tasks = tasks } in
  let stats = Jbb.Sim_jbb.run ~p ~warehouses ~variant ~n_cpus () in
  Fmt.pf ppf "variant: %s  cpus: %d  tasks: %d@."
    (Jbb.Sim_jbb.variant_name variant)
    n_cpus tasks;
  Fmt.pf ppf "cycles: %d  violations: %d  commits: %d@."
    stats.Sim.Machine.cycles stats.Sim.Machine.total_violations
    stats.Sim.Machine.total_commits;
  Fmt.pf ppf "bus wait: %d  token wait: %d@." stats.Sim.Machine.total_bus_wait
    stats.Sim.Machine.total_token_wait

let jbb_cmd =
  let n_cpus =
    Arg.(value & opt int 16 & info [ "cpus" ] ~doc:"Simulated CPU count.")
  in
  let tasks =
    Arg.(value & opt int 768 & info [ "tasks" ] ~doc:"Total TPC-C-style tasks.")
  in
  let warehouses =
    let alts = [ ("single", `Single); ("per-cpu", `Per_cpu) ] in
    Arg.(
      value
      & opt (enum alts) `Single
      & info [ "warehouses" ]
          ~doc:"single (the paper's high-contention config) or per-cpu \
                (standard SPECjbb2000).")
  in
  Cmd.v
    (Cmd.info "jbb" ~doc:"Run the SPECjbb2000 model (simulated)")
    Term.(const run_jbb $ jbb_variant $ n_cpus $ tasks $ warehouses)

(* ---------------- jbb-host ---------------- *)

let run_jbb_host n_domains tasks =
  let t = Jbb.Multi_jbb.create ~warehouses:1 () in
  let r = Jbb.Multi_jbb.run_closed t ~n_domains ~tasks_per_domain:tasks in
  Fmt.pf ppf "domains: %d  tasks/domain: %d@." n_domains tasks;
  Fmt.pf ppf "new orders: %d  payments: %d  other: %d@." r.Jbb.Model.new_orders
    r.payments r.others;
  Fmt.pf ppf "throughput: %.0f ops/s@." r.row.commits_per_s;
  Fmt.pf ppf "audit: %b@." r.consistent

let jbb_host_cmd =
  let n_domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~doc:"OCaml domains to spawn.")
  in
  let tasks =
    Arg.(value & opt int 2000 & info [ "tasks" ] ~doc:"Tasks per domain.")
  in
  Cmd.v
    (Cmd.info "jbb-host"
       ~doc:"Run the SPECjbb2000 model on real domains over the host STM")
    Term.(const run_jbb_host $ n_domains $ tasks)

(* ---------------- queue ---------------- *)

let run_queue cpus items =
  Harness.Queue_bench.(render ppf (sweep ~cpus ~items ()))

let queue_cmd =
  let items =
    Arg.(value & opt int 256 & info [ "items" ] ~doc:"Initial work items.")
  in
  let cpus =
    Arg.(value & opt (list int) [ 1; 4; 16 ] & info [ "cpus" ] ~doc:"CPU counts.")
  in
  Cmd.v
    (Cmd.info "queue" ~doc:"Delaunay-style work-queue benchmark (simulated)")
    Term.(const run_queue $ cpus $ items)

(* ---------------- tables / validate ---------------- *)

let run_tables () =
  Harness.Commute_spec.render_map_table ppf ();
  Harness.Commit_order.(render ppf (measure ()));
  Harness.Locktables.render_table2 ppf ();
  Harness.Locktables.render_table5 ppf ();
  Harness.Locktables.render_table8 ppf ()

let tables_cmd =
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Verify and print the semantic analysis and lock tables (1/2/4/5/7/8)")
    Term.(const run_tables $ const ())

let run_validate () = Harness.Host_validation.(render ppf (run ()))

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Host-STM validation: retry counts of naive vs wrapped maps")
    Term.(const run_validate $ const ())

(* ---------------- main ---------------- *)

let () =
  let info =
    Cmd.info "txcoll_lab" ~version:"1.0"
      ~doc:
        "Laboratory for the OCaml reproduction of Transactional Collection \
         Classes (PPoPP 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fig_cmd; jbb_cmd; jbb_host_cmd; queue_cmd; tables_cmd; validate_cmd ]))
