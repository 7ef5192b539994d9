(* jbb: the paper's Figure 4 application — [Multi_jbb] with one warehouse
   and the 43/43/4/5/5 new-order/payment/order-status/delivery/stock-level
   mix.  Each transaction touches several collections and the sorted-map
   views.  order_status reads the last key of a [sub_map] view, whose cost
   grows with the order table, so the run is a fixed number of
   transactions from a freshly built state: a fixed-duration run would
   measure its own length.

   Checks: [Multi_jbb.audit] (order, history and order-count totals match
   the committed new-orders and payments, and value is conserved). *)

module Model = Jbb.Model
module Multi_jbb = Jbb.Multi_jbb

let name = "jbb"
let warm = 500
let per_domain = 5_000

type state = {
  t : Multi_jbb.t;
  new_orders : int Atomic.t;
  payments : int Atomic.t;
}

type input = { kind : Model.op_kind array; rng : Random.State.t }

let build ~seed:_ =
  {
    t = Multi_jbb.create ~warehouses:1 ();
    new_orders = Atomic.make 0;
    payments = Atomic.make 0;
  }

let input ~seed ~domain ~n =
  let r = Workload.rng ~seed ~domain 3 in
  let kind = Array.init n (fun _ -> Model.pick_op r) in
  { kind; rng = Workload.rng ~seed ~domain 4 }

let span_kind : Model.op_kind -> int = function
  | New_order -> Trace.jbb_new_order
  | Payment -> Trace.jbb_payment
  | Order_status -> Trace.jbb_order_status
  | Delivery -> Trace.jbb_delivery
  | Stock_level -> Trace.jbb_stock_level

let run tr s inp i =
  let kind = inp.kind.(i) in
  Trace.call tr (span_kind kind) (fun () ->
      Multi_jbb.run_op ~run:(Trace.atomic tr) s.t inp.rng kind);
  (match kind with
  | New_order -> Atomic.incr s.new_orders
  | Payment -> Atomic.incr s.payments
  | Order_status | Delivery | Stock_level -> ());
  true

let checks s ~committed:_ =
  [
    ( "jbb.audit",
      Multi_jbb.audit s.t ~new_orders:(Atomic.get s.new_orders)
        ~payments:(Atomic.get s.payments) );
  ]

(* The order-table inserts (sequential order ids after the 64 preloaded)
   and the history inserts, replayed on the raw structures. *)
let replay ~seed:_ (inputs : input array) =
  let count k =
    Array.fold_left
      (fun n i -> n + Array.fold_left (fun n x -> if x = k then n + 1 else n) 0 i.kind)
      0 inputs
  in
  let orders = count Model.New_order and payments = count Model.Payment in
  let order () =
    let t = Coll.Ordmap.create ~compare:Int.compare () in
    for k = 1 to 64 + orders do
      Coll.Ordmap.add t k k
    done
  in
  let history () =
    let h = Coll.Chain_hashmap.create ~hash:Hashtbl.hash ~equal:Int.equal () in
    for k = 1 to payments do
      Coll.Chain_hashmap.add h k k
    done
  in
  [
    ("coll.ordmap_replace_ns", Workload.ns_per_op ~ops:(64 + orders) order);
    ("coll.hashmap_replace_ns", Workload.ns_per_op ~ops:payments history);
  ]
