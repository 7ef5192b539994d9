(* Host (real OCaml domains) version of the high-contention SPECjbb2000
   variant: the same single-warehouse entity model as {!Sim_jbb}, in the
   paper's four parallelisations:

   - [`Lock]: plain structures, each protected by its own mutex — the
     lock-based Java baseline;
   - [`Baseline]: every operation one long transaction over tvar-based
     structures (fully isolated counters and tables) — conflict-heavy;
   - [`Open]: the order-ID generator and counters become open-nested;
   - [`Txcoll]: additionally, the three shared tables are transactional
     collection classes.

   A run's closed-loop row counts transaction retries as its [aborts],
   the host-level analogue of the simulator's violation counts in
   Figure 4. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Counter = Stm_ds.Stm_counter
module Uidgen = Stm_ds.Stm_uidgen
module OrderMap = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module HistMap = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module StmSorted = Stm_ds.Stm_avlmap
module StmHash = Stm_ds.Stm_hashmap
module Closed_loop = Harness.Closed_loop
open Model

type variant = [ `Lock | `Baseline | `Open | `Txcoll ]

let variant_name = function
  | `Lock -> "Java (locks)"
  | `Baseline -> "Atomos Baseline"
  | `Open -> "Atomos Open"
  | `Txcoll -> "Atomos Transactional"

(* Variant-independent operations interface, mirroring {!Sim_jbb.api}. *)
type api = {
  in_op : (unit -> unit) -> unit;
  uid_next : unit -> int;
  uid_peek : unit -> int;
  hid_next : unit -> int;
  ytd_add : int -> unit;
  order_count_incr : unit -> unit;
  stock_dec : int -> unit;
  balance_add : int -> int -> unit;
  balance_get : int -> int;
  order_put : int -> int -> unit;
  order_get : int -> int option;
  order_last : unit -> int option;
  order_range_count : int -> int -> int;
  neworder_put : int -> int -> unit;
  neworder_first : unit -> int option;
  neworder_remove : int -> unit;
  history_put : int -> int -> unit;
  audit : new_orders:int -> payments:int -> bool;
}

let preload put_order put_neworder = function
  | p ->
      for uid = 1 to 64 do
        put_order uid (encode_order ~customer:(uid mod p.n_customers) ~lines:6);
        if uid mod 2 = 0 then put_neworder uid (uid mod p.n_customers)
      done

(* ---------------- lock-based variant ---------------- *)

let make_lock (p : params) : api =
  let order : (int, int) Coll.Ordmap.t = Coll.Ordmap.create ~compare:Int.compare () in
  let neworder : (int, int) Coll.Ordmap.t =
    Coll.Ordmap.create ~compare:Int.compare ()
  in
  let history : (int, int) Coll.Chain_hashmap.t = Coll.Chain_hashmap.create () in
  preload (Coll.Ordmap.add order) (Coll.Ordmap.add neworder) p;
  let next_order = ref 65 and next_history = ref 1 in
  let ytd = ref 0 and order_count = ref 0 in
  let stock = Array.make p.n_items 1000 in
  let customers = Array.make p.n_customers 0 in
  let district_m = Mutex.create () in
  let order_m = Mutex.create () in
  let neworder_m = Mutex.create () in
  let history_m = Mutex.create () in
  let stock_m = Array.init 16 (fun _ -> Mutex.create ()) in
  let cust_m = Array.init 16 (fun _ -> Mutex.create ()) in
  {
    in_op = (fun f -> f ());
    uid_next =
      (fun () ->
        Mutex.protect district_m (fun () ->
            let v = !next_order in
            incr next_order;
            v));
    uid_peek = (fun () -> Mutex.protect district_m (fun () -> !next_order));
    hid_next =
      (fun () ->
        Mutex.protect history_m (fun () ->
            let v = !next_history in
            incr next_history;
            v));
    ytd_add = (fun d -> Mutex.protect district_m (fun () -> ytd := !ytd + d));
    order_count_incr =
      (fun () -> Mutex.protect district_m (fun () -> incr order_count));
    stock_dec =
      (fun i ->
        Mutex.protect stock_m.(i mod 16) (fun () -> stock.(i) <- stock.(i) - 1));
    balance_add =
      (fun c d ->
        Mutex.protect cust_m.(c mod 16) (fun () ->
            customers.(c) <- customers.(c) + d));
    balance_get =
      (fun c -> Mutex.protect cust_m.(c mod 16) (fun () -> customers.(c)));
    order_put =
      (fun k v -> Mutex.protect order_m (fun () -> Coll.Ordmap.add order k v));
    order_get =
      (fun k -> Mutex.protect order_m (fun () -> Coll.Ordmap.find order k));
    order_last =
      (fun () ->
        Mutex.protect order_m (fun () ->
            Option.map fst (Coll.Ordmap.max_binding order)));
    order_range_count =
      (fun lo hi ->
        Mutex.protect order_m (fun () ->
            let n = ref 0 in
            Coll.Ordmap.iter_range
              (fun _ _ -> incr n)
              order ~lo:(Some lo) ~hi:(Some hi);
            !n));
    neworder_put =
      (fun k v ->
        Mutex.protect neworder_m (fun () -> Coll.Ordmap.add neworder k v));
    neworder_first =
      (fun () ->
        Mutex.protect neworder_m (fun () ->
            Option.map fst (Coll.Ordmap.min_binding neworder)));
    neworder_remove =
      (fun k -> Mutex.protect neworder_m (fun () -> Coll.Ordmap.remove neworder k));
    history_put =
      (fun k v ->
        Mutex.protect history_m (fun () -> Coll.Chain_hashmap.add history k v));
    audit =
      (fun ~new_orders ~payments ->
        Coll.Ordmap.size order = 64 + new_orders
        && Coll.Chain_hashmap.size history = payments
        && !order_count = new_orders);
  }

(* ---------------- transactional variants ---------------- *)

let make_stm (p : params) ~(counters : [ `Isolated | `Open ]) : api =
  let order = StmSorted.create ~compare:Int.compare () in
  let neworder = StmSorted.create ~compare:Int.compare () in
  let history = StmHash.create () in
  preload (StmSorted.add order) (StmSorted.add neworder) p;
  let next_order = Uidgen.create ~first:65 () in
  let next_history = Uidgen.create ~first:1 () in
  let ytd = Counter.create () in
  let order_count = Counter.create () in
  let stock = Array.init p.n_items (fun _ -> Tvar.make 1000) in
  let customers = Array.init p.n_customers (fun _ -> Tvar.make 0) in
  let uid g =
    match counters with `Isolated -> Uidgen.next_isolated g | `Open -> Uidgen.next g
  in
  let incr_counter ?by c =
    match counters with
    | `Isolated -> Counter.incr ?by c
    | `Open -> Counter.incr_open ?by c
  in
  {
    in_op = (fun f -> Stm.atomic f);
    uid_next = (fun () -> uid next_order);
    uid_peek = (fun () -> Uidgen.peek next_order);
    hid_next = (fun () -> uid next_history);
    ytd_add = (fun d -> incr_counter ~by:d ytd);
    order_count_incr = (fun () -> incr_counter order_count);
    stock_dec = (fun i -> Tvar.set stock.(i) (Tvar.get stock.(i) - 1));
    balance_add = (fun c d -> Tvar.set customers.(c) (Tvar.get customers.(c) + d));
    balance_get = (fun c -> Tvar.get customers.(c));
    order_put = (fun k v -> StmSorted.add order k v);
    order_get = (fun k -> StmSorted.find order k);
    order_last = (fun () -> Option.map fst (StmSorted.max_binding order));
    order_range_count =
      (fun lo hi ->
        let n = ref 0 in
        StmSorted.iter_range (fun _ _ -> incr n) order ~lo:(Some lo) ~hi:(Some hi);
        !n);
    neworder_put = (fun k v -> StmSorted.add neworder k v);
    neworder_first = (fun () -> Option.map fst (StmSorted.min_binding neworder));
    neworder_remove = (fun k -> StmSorted.remove neworder k);
    history_put = (fun k v -> StmHash.add history k v);
    audit =
      (fun ~new_orders ~payments ->
        StmSorted.size order = 64 + new_orders
        && StmHash.size history = payments
        && Counter.get order_count = new_orders);
  }

let make_txcoll (p : params) : api =
  let order = OrderMap.create () in
  let neworder = OrderMap.create () in
  let history = HistMap.create () in
  preload
    (fun k v -> ignore (OrderMap.put order k v))
    (fun k v -> ignore (OrderMap.put neworder k v))
    p;
  let next_order = Uidgen.create ~first:65 () in
  let next_history = Uidgen.create ~first:1 () in
  let ytd = Counter.create () in
  let order_count = Counter.create () in
  let stock = Array.init p.n_items (fun _ -> Tvar.make 1000) in
  let customers = Array.init p.n_customers (fun _ -> Tvar.make 0) in
  {
    in_op = (fun f -> Stm.atomic f);
    uid_next = (fun () -> Uidgen.next next_order);
    uid_peek = (fun () -> Uidgen.peek next_order);
    hid_next = (fun () -> Uidgen.next next_history);
    ytd_add = (fun d -> Counter.incr_open ~by:d ytd);
    order_count_incr = (fun () -> Counter.incr_open order_count);
    stock_dec = (fun i -> Tvar.set stock.(i) (Tvar.get stock.(i) - 1));
    balance_add = (fun c d -> Tvar.set customers.(c) (Tvar.get customers.(c) + d));
    balance_get = (fun c -> Tvar.get customers.(c));
    order_put = (fun k v -> ignore (OrderMap.put order k v));
    order_get = (fun k -> OrderMap.find order k);
    order_last = (fun () -> OrderMap.last_key order);
    order_range_count =
      (fun lo hi ->
        OrderMap.fold_range (fun _ _ n -> n + 1) order 0 ~lo:(Some lo)
          ~hi:(Some hi));
    neworder_put = (fun k v -> ignore (OrderMap.put neworder k v));
    neworder_first = (fun () -> OrderMap.first_key neworder);
    neworder_remove = (fun k -> ignore (OrderMap.remove neworder k));
    history_put = (fun k v -> ignore (HistMap.put history k v));
    audit =
      (fun ~new_orders ~payments ->
        OrderMap.size order = 64 + new_orders
        && HistMap.size history = payments
        && Counter.get order_count = new_orders);
  }

let make (p : params) = function
  | `Lock -> make_lock p
  | `Baseline -> make_stm p ~counters:`Isolated
  | `Open -> make_stm p ~counters:`Open
  | `Txcoll -> make_txcoll p

(* ---------------- the five operations ---------------- *)

let new_order (p : params) (api : api) rng =
  let lines = 5 + Random.State.int rng 6 in
  let customer = Random.State.int rng p.n_customers in
  let items = Array.init lines (fun _ -> Random.State.int rng p.n_items) in
  api.in_op (fun () ->
      Closed_loop.busy p.base_work;
      let uid = api.uid_next () in
      Array.iter api.stock_dec items;
      api.order_put uid (encode_order ~customer ~lines);
      api.neworder_put uid customer;
      api.order_count_incr ())

let payment (p : params) (api : api) rng =
  let customer = Random.State.int rng p.n_customers in
  let amount = 1 + Random.State.int rng 50 in
  api.in_op (fun () ->
      Closed_loop.busy p.base_work;
      api.ytd_add amount;
      api.balance_add customer (-amount);
      let hid = api.hid_next () in
      api.history_put hid amount)

let order_status (p : params) (api : api) rng =
  let customer = Random.State.int rng p.n_customers in
  api.in_op (fun () ->
      Closed_loop.busy (p.base_work / 2);
      ignore (api.balance_get customer);
      match api.order_last () with
      | None -> ()
      | Some uid -> ignore (api.order_get uid))

let delivery (p : params) (api : api) _rng =
  api.in_op (fun () ->
      Closed_loop.busy p.base_work;
      match api.neworder_first () with
      | None -> ()
      | Some uid -> (
          api.neworder_remove uid;
          match api.order_get uid with
          | None -> ()
          | Some o -> api.balance_add (order_customer o) 1))

let stock_level (p : params) (api : api) _rng =
  api.in_op (fun () ->
      Closed_loop.busy (p.base_work / 2);
      let hi = api.uid_peek () in
      ignore (api.order_range_count (max 1 (hi - 20)) hi))

let run_op p api rng = function
  | New_order -> new_order p api rng
  | Payment -> payment p api rng
  | Order_status -> order_status p api rng
  | Delivery -> delivery p api rng
  | Stock_level -> stock_level p api rng

(* ---------------- driver ---------------- *)

let run_variant ?(p = default_params) ~variant ~n_domains ~tasks_per_domain () =
  let api = make p variant in
  run_mix ~label:(variant_name variant) ~seed:0x7BB ~n_domains
    ~tasks_per_domain ~op:(run_op p api) ~audit:api.audit

let compare_variants ?(p = default_params) ?(n_domains = 2)
    ?(tasks_per_domain = 1500) () =
  List.map
    (fun variant -> run_variant ~p ~variant ~n_domains ~tasks_per_domain ())
    [ `Lock; `Baseline; `Open; `Txcoll ]

let render ppf results =
  Fmt.pf ppf "@.SPECjbb2000 on real domains (host STM; aborts = retries)@.";
  Fmt.pf ppf "  %s %6s@." Closed_loop.header "audit";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %a %6b@." Closed_loop.pp_row r.row r.consistent)
    results
