(* Parameters of the high-contention SPECjbb2000 variant (paper §6.3): a
   single warehouse serves all threads, so the district's order-ID
   generator, the global counters and the three shared tables
   (historyTable, orderTable, newOrderTable) are touched by every thread.

   The operation mix follows SPECjbb2000's TPC-C-style weights. *)

type op_kind = New_order | Payment | Order_status | Delivery | Stock_level

let op_mix = [ (43, New_order); (43, Payment); (4, Order_status); (5, Delivery); (5, Stock_level) ]

let pick_op rng =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 op_mix in
  let r = Random.State.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (w, k) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 op_mix

type params = {
  total_tasks : int;
  n_items : int;
  n_customers : int;
  base_work : int; (* computation cycles per operation *)
  item_work : int; (* extra cycles per order line *)
  cfg : Sim.Config.t;
}

let default_params =
  {
    total_tasks = 768;
    n_items = 4096;
    n_customers = 512;
    base_work = 1500;
    item_work = 120;
    cfg = Sim.Config.default;
  }

let per_cpu total n_cpus cpu =
  (total / n_cpus) + if cpu < total mod n_cpus then 1 else 0

(* Encode an order record in one word: customer id and line count. *)
let encode_order ~customer ~lines = (customer * 100) + lines
let order_lines order = order mod 100
let order_customer order = order / 100

(* A closed-loop run of the weighted mix: each domain draws op kinds from
   its own [Random.State.make [| seed; d |]] and runs them through [op];
   the committed new-order and payment counts then feed [audit]. *)
type result = {
  row : Harness.Closed_loop.row;
  new_orders : int;
  payments : int;
  others : int;
  consistent : bool;
}

let run_mix ~label ~seed ~n_domains ~tasks_per_domain ~op ~audit =
  let new_orders = Atomic.make 0 in
  let payments = Atomic.make 0 in
  let others = Atomic.make 0 in
  let row =
    Harness.Closed_loop.run ~label ~domains:n_domains
      ~txns_per_domain:tasks_per_domain (fun d ->
        let rng = Random.State.make [| seed; d |] in
        fun _ ->
          let kind = pick_op rng in
          op rng kind;
          Atomic.incr
            (match kind with
            | New_order -> new_orders
            | Payment -> payments
            | Order_status | Delivery | Stock_level -> others))
  in
  let no = Atomic.get new_orders and pa = Atomic.get payments in
  {
    row;
    new_orders = no;
    payments = pa;
    others = Atomic.get others;
    consistent = audit ~new_orders:no ~payments:pa;
  }
