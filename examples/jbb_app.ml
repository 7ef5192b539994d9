(* The high-contention SPECjbb2000 variant on real OCaml domains: every
   TPC-C-style operation is one long transaction over shared transactional
   collections, with open-nested counters and order-ID generation — the
   paper's "Atomos Transactional" configuration as a host application
   ([Multi_jbb] with one warehouse, the configuration perfbench's jbb
   workload runs).

   Run with: dune exec examples/jbb_app.exe [n_domains] [tasks_per_domain] *)

let () =
  let n_domains =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2
  in
  let tasks = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 2000 in
  let t = Jbb.Multi_jbb.create ~warehouses:1 () in
  let r = Jbb.Multi_jbb.run_closed t ~n_domains ~tasks_per_domain:tasks in
  Printf.printf "domains: %d, tasks/domain: %d\n" n_domains tasks;
  Printf.printf "new orders: %d  payments: %d  other ops: %d\n"
    r.Jbb.Model.new_orders r.payments r.others;
  Printf.printf "throughput: %.0f ops/s\n" r.row.commits_per_s;
  Printf.printf "audit (tables agree with counters): %b\n" r.consistent;
  assert r.consistent;
  print_endline "jbb_app: OK"
