(* Validation of the paper's central claim on the REAL host STM (not the
   simulator): long transactions over a naively transactional hash map
   retry constantly because of size-field conflicts, while the same
   workload over the TransactionalMap wrapper almost never retries.

   Speedup curves need the 32-CPU simulator; retry counts and wall-clock
   throughput on the host machine demonstrate the same mechanism with real
   parallelism. *)

module Stm = Tcc_stm.Stm
module Naive = Stm_ds.Stm_hashmap
module Wrapped = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

type ops = { find : int -> unit; put : int -> unit; remove : int -> unit }

(* Retries are the row's [aborts]: every retried attempt of a body. *)
let run_variant ~label ~ops ~n_domains ~ops_per_domain ~key_space ~work =
  Closed_loop.run ~label ~domains:n_domains ~txns_per_domain:ops_per_domain
    (fun d ->
      let rng = Random.State.make [| 0x40A; d |] in
      fun _ ->
        let k = Random.State.int rng key_space in
        let dice = Random.State.int rng 100 in
        Stm.atomic (fun () ->
            Closed_loop.busy (work / 2);
            if dice < 80 then ops.find k
            else if dice < 90 then ops.put k
            else ops.remove k;
            Closed_loop.busy (work / 2)))

let run ?(n_domains = 2) ?(ops_per_domain = 4000) ?(key_space = 512)
    ?(work = 20_000) () =
  let naive = Naive.create ~initial_capacity:(key_space / 2) () in
  for i = 0 to (key_space / 2) - 1 do
    Naive.add naive (2 * i) i
  done;
  let naive_row =
    run_variant ~label:"naive tvar hash map" ~n_domains ~ops_per_domain
      ~key_space ~work
      ~ops:
        {
          find = (fun k -> ignore (Naive.find naive k));
          put = (fun k -> Naive.add naive k k);
          remove = (fun k -> Naive.remove naive k);
        }
  in
  let wrapped = Wrapped.create () in
  for i = 0 to (key_space / 2) - 1 do
    ignore (Wrapped.put wrapped (2 * i) i)
  done;
  let wrapped_row =
    run_variant ~label:"TransactionalMap wrapper" ~n_domains ~ops_per_domain
      ~key_space ~work
      ~ops:
        {
          find = (fun k -> ignore (Wrapped.find wrapped k));
          put = (fun k -> ignore (Wrapped.put wrapped k k));
          remove = (fun k -> ignore (Wrapped.remove wrapped k));
        }
  in
  [ naive_row; wrapped_row ]

let render ppf rows =
  Fmt.pf ppf
    "@.Host-STM validation (real domains): retries (aborts) caused by the map \
     itself@.";
  Fmt.pf ppf "  %s@." Closed_loop.header;
  List.iter (Fmt.pf ppf "  %a@." Closed_loop.pp_row) rows
