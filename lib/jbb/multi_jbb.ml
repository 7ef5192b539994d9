(* Multi-warehouse SPECjbb2000: the paper's Figure 4 setup generalised
   from one warehouse to W.

   One global order table and one global new-order table hold every
   warehouse's records, keyed [w * span + uid] and interval-partitioned
   with a splitter at each warehouse boundary — so each warehouse's keys
   live in their own semantic-lock stripe and warehouse-local
   transactions only serialise against their own interval, while
   cross-warehouse transactions pick up exactly the two intervals they
   touch.  Per-warehouse scalars (order-ID generator, ytd, order count,
   stock, customer balances) are separate structures.

   Cross-warehouse traffic (the contention gradient knob): with
   probability [remote_fraction] a new-order sources its items from a
   remote warehouse's stock, and a payment becomes a pure transfer from
   the home customer to a remote customer.  Every balance-moving
   operation conserves value:

   - local payment:   customer -amount, home ytd +amount
   - remote payment:  home customer -amount, remote customer +amount
   - delivery:        home ytd -1, delivered order's customer +1

   so [Sum over warehouses (ytd + Sum customer balances) = 0] is an
   invariant under any interleaving — the conservation property the
   QCheck test drives over W in {1,4,8} and a range of remote
   fractions. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Counter = Stm_ds.Stm_counter
module Uidgen = Stm_ds.Stm_uidgen
module OrderMap = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module HistMap = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
open Model

(* Key span reserved per warehouse; uids stay far below it. *)
let span = 1 lsl 20

let key ~warehouse uid = (warehouse * span) + uid

type warehouse = {
  next_order : Uidgen.t;
  next_history : Uidgen.t;
  ytd : Counter.t;
  order_count : Counter.t;
  stock : int Tvar.t array;
  customers : int Tvar.t array;
}

type t = {
  p : params;
  remote_fraction : float;
  warehouses : warehouse array;
  order : int OrderMap.t;
  neworder : int OrderMap.t;
  history : int HistMap.t;
}

let n_warehouses t = Array.length t.warehouses

let create ?(p = default_params) ?(remote_fraction = 0.1) ~warehouses ()
    =
  if warehouses < 1 then invalid_arg "Multi_jbb.create: warehouses >= 1";
  if remote_fraction < 0. || remote_fraction > 1. then
    invalid_arg "Multi_jbb.create: remote_fraction in [0,1]";
  let splitters =
    List.init (warehouses - 1) (fun i -> (i + 1) * span)
  in
  let order = OrderMap.create ~splitters () in
  let neworder = OrderMap.create ~splitters () in
  let history = HistMap.create () in
  let mk w =
    for uid = 1 to 64 do
      ignore
        (OrderMap.put order
           (key ~warehouse:w uid)
           (encode_order ~customer:(uid mod p.n_customers) ~lines:6));
      if uid mod 2 = 0 then
        ignore
          (OrderMap.put neworder (key ~warehouse:w uid)
             (uid mod p.n_customers))
    done;
    {
      next_order = Uidgen.create ~first:65 ();
      next_history = Uidgen.create ~first:1 ();
      ytd = Counter.create ();
      order_count = Counter.create ();
      stock = Array.init p.n_items (fun _ -> Tvar.make 1000);
      customers = Array.init p.n_customers (fun _ -> Tvar.make 0);
    }
  in
  {
    p;
    remote_fraction;
    warehouses = Array.init warehouses mk;
    order;
    neworder;
    history;
  }

(* A random warehouse, and (maybe) a distinct remote one.  All random
   draws happen before the transaction body so retries replay the same
   operation. *)
let pick_home t rng = Random.State.int rng (n_warehouses t)

let pick_remote t rng ~home =
  let n = n_warehouses t in
  if n > 1 && Random.State.float rng 1.0 < t.remote_fraction then
    Some ((home + 1 + Random.State.int rng (n - 1)) mod n)
  else None

(* ---------------- the five operations ----------------

   Each takes [run], the top-level transaction runner — [Stm.atomic] by
   default, [Harness.Admission.run] when the bench turns the admission
   gate on (so [Harness.Admission.Overloaded] propagates to the open-loop
   generator). *)

let new_order ?(run = fun f -> Stm.atomic f) t rng =
  let home = pick_home t rng in
  let remote = pick_remote t rng ~home in
  let lines = 5 + Random.State.int rng 6 in
  let customer = Random.State.int rng t.p.n_customers in
  let items =
    Array.init lines (fun _ -> Random.State.int rng t.p.n_items)
  in
  let w = t.warehouses.(home) in
  let supply =
    match remote with Some r -> t.warehouses.(r) | None -> w
  in
  run (fun () ->
      Host_jbb.busy t.p.base_work;
      let uid = Uidgen.next w.next_order in
      Array.iter
        (fun i -> Tvar.set supply.stock.(i) (Tvar.get supply.stock.(i) - 1))
        items;
      ignore
        (OrderMap.put t.order
           (key ~warehouse:home uid)
           (encode_order ~customer ~lines));
      ignore (OrderMap.put t.neworder (key ~warehouse:home uid) customer);
      Counter.incr_open w.order_count)

let payment ?(run = fun f -> Stm.atomic f) t rng =
  let home = pick_home t rng in
  let remote = pick_remote t rng ~home in
  let customer = Random.State.int rng t.p.n_customers in
  let remote_customer = Random.State.int rng t.p.n_customers in
  let amount = 1 + Random.State.int rng 50 in
  let w = t.warehouses.(home) in
  run (fun () ->
      Host_jbb.busy t.p.base_work;
      Tvar.set w.customers.(customer)
        (Tvar.get w.customers.(customer) - amount);
      (match remote with
      | None -> Counter.incr_open ~by:amount w.ytd
      | Some r ->
          let rw = t.warehouses.(r) in
          Tvar.set rw.customers.(remote_customer)
            (Tvar.get rw.customers.(remote_customer) + amount));
      let hid = Uidgen.next w.next_history in
      ignore (HistMap.put t.history (key ~warehouse:home hid) amount))

let order_status ?(run = fun f -> Stm.atomic f) t rng =
  let home = pick_home t rng in
  let customer = Random.State.int rng t.p.n_customers in
  let w = t.warehouses.(home) in
  let view =
    OrderMap.sub_map t.order
      ~lo:(key ~warehouse:home 0)
      ~hi:(key ~warehouse:(home + 1) 0)
  in
  run (fun () ->
      Host_jbb.busy (t.p.base_work / 2);
      ignore (Tvar.get w.customers.(customer));
      match OrderMap.View.last_key view with
      | None -> ()
      | Some k -> ignore (OrderMap.find t.order k))

let delivery ?(run = fun f -> Stm.atomic f) t rng =
  let home = pick_home t rng in
  let w = t.warehouses.(home) in
  let view =
    OrderMap.sub_map t.neworder
      ~lo:(key ~warehouse:home 0)
      ~hi:(key ~warehouse:(home + 1) 0)
  in
  run (fun () ->
      Host_jbb.busy t.p.base_work;
      match OrderMap.View.first_key view with
      | None -> ()
      | Some k -> (
          ignore (OrderMap.remove t.neworder k);
          match OrderMap.find t.order k with
          | None -> ()
          | Some o ->
              (* Delivery credit is funded from the home district's ytd,
                 keeping total value conserved. *)
              Counter.incr_open ~by:(-1) w.ytd;
              let c = w.customers.(order_customer o mod t.p.n_customers) in
              Tvar.set c (Tvar.get c + 1)))

let stock_level ?(run = fun f -> Stm.atomic f) t rng =
  let home = pick_home t rng in
  let w = t.warehouses.(home) in
  run (fun () ->
      Host_jbb.busy (t.p.base_work / 2);
      let hi = Uidgen.peek w.next_order in
      let lo = max 1 (hi - 20) in
      ignore
        (OrderMap.fold_range
           (fun _ _ n -> n + 1)
           t.order 0
           ~lo:(Some (key ~warehouse:home lo))
           ~hi:(Some (key ~warehouse:home hi))))

let run_op ?run t rng = function
  | New_order -> new_order ?run t rng
  | Payment -> payment ?run t rng
  | Order_status -> order_status ?run t rng
  | Delivery -> delivery ?run t rng
  | Stock_level -> stock_level ?run t rng

(* One weighted-mix task: draw an op kind and run it. *)
let task ?run t rng = run_op ?run t rng (pick_op rng)

(* ---------------- invariants ---------------- *)

(* Total value across every customer balance and every district ytd;
   conserved at 0 by construction (see header).  Read outside any
   transaction, at quiescence. *)
let total_value t =
  Array.fold_left
    (fun acc w ->
      let acc = acc + Counter.get w.ytd in
      Array.fold_left (fun acc c -> acc + Tvar.get c) acc w.customers)
    0 t.warehouses

let conserved t = total_value t = 0

let audit t ~new_orders ~payments =
  let wn = n_warehouses t in
  let counted =
    Array.fold_left
      (fun acc w -> acc + Counter.get w.order_count)
      0 t.warehouses
  in
  OrderMap.size t.order = (wn * 64) + new_orders
  && HistMap.size t.history = payments
  && counted = new_orders
  && conserved t

(* ---------------- closed-loop driver (tests) ---------------- *)

type result = {
  new_orders : int;
  payments : int;
  others : int;
  elapsed : float;
  consistent : bool;
}

let run_closed ?(seed = 0x3bb) t ~n_domains ~tasks_per_domain =
  let new_orders = Atomic.make 0 in
  let payments = Atomic.make 0 in
  let others = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker d () =
    let rng = Random.State.make [| seed; d |] in
    for _ = 1 to tasks_per_domain do
      let kind = pick_op rng in
      run_op t rng kind;
      match kind with
      | New_order -> Atomic.incr new_orders
      | Payment -> Atomic.incr payments
      | Order_status | Delivery | Stock_level -> Atomic.incr others
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let elapsed = Unix.gettimeofday () -. t0 in
  let no = Atomic.get new_orders and pa = Atomic.get payments in
  {
    new_orders = no;
    payments = pa;
    others = Atomic.get others;
    elapsed;
    consistent = audit t ~new_orders:no ~payments:pa;
  }
