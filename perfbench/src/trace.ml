(* Spans placed around the benchmark's calls into each layer's public
   functions, one recorder per client domain.

   Layers and their spans:
   - benchmark: [Txn], the whole transaction call including retries;
   - app:       the [Multi_jbb.run_op] call, one kind per jbb operation;
   - stm:       [Atomic] / [Snapshot] around [Stm.atomic] / [Stm.snapshot],
                and [Body] around each execution of the body closure
                passed to them (one per attempt);
   - txcoll:    the [Txcoll.Host.*] collection calls made from bodies.

   A recorder whose [on] is false adds one branch per call and records
   nothing.  A traced transaction's spans are folded into histograms and
   counters when it ends, then cleared. *)

module Hdr = Harness.Hdr
module Stm = Tcc_stm.Stm

let txn = 0
let atomic_k = 1
let snapshot_k = 2
let body = 3
let map_find = 4
let map_put = 5
let sorted_put = 6
let sorted_find = 7
let sorted_fold_range = 8
let queue_poll = 9
let queue_put = 10
let jbb_new_order = 11
let jbb_payment = 12
let jbb_order_status = 13
let jbb_delivery = 14
let jbb_stock_level = 15
let n_kinds = 16

let is_txcoll k = k >= map_find && k <= queue_put
let is_jbb k = k >= jbb_new_order

type t = {
  on : bool;
  spans : Span.t;
  dur : Hdr.t array;  (** duration of every closed span, per kind *)
  body_hist : Hdr.t;  (** body of the committed attempt of [atomic] *)
  commit_hist : Hdr.t;  (** committed body's return to [atomic]'s return *)
  pin_hist : Hdr.t;  (** [snapshot] span minus its body *)
  mutable txns : int;
  mutable attempts : int;
  mutable wasted_ns : int;  (** aborted attempts and backoff *)
  mutable txn_ns : int;
  mutable txcoll_ns : int;
  mutable jbb_ns : int;
  mutable order_status_ns : int;
}

let create ~on =
  {
    on;
    spans = Span.create ();
    dur = Array.init n_kinds (fun _ -> Hdr.create ());
    body_hist = Hdr.create ();
    commit_hist = Hdr.create ();
    pin_hist = Hdr.create ();
    txns = 0;
    attempts = 0;
    wasted_ns = 0;
    txn_ns = 0;
    txcoll_ns = 0;
    jbb_ns = 0;
    order_status_ns = 0;
  }

let[@inline] enter t kind = Span.open_ t.spans kind ~now:(Clock.now_ns ())
let[@inline] leave t i = Span.close t.spans i ~now:(Clock.now_ns ())

(* [call t kind f] runs [f ()] inside a span of [kind]. *)
let call t kind f =
  if not t.on then f ()
  else begin
    let i = enter t kind in
    let r = f () in
    leave t i;
    r
  end

(* The body closure handed to the STM, wrapped so that every attempt —
   committed or aborted by an exception — closes its [Body] span. *)
let traced_body t f () =
  let i = enter t body in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let atomic t f =
  if not t.on then Stm.atomic f
  else begin
    let i = enter t atomic_k in
    let r = Stm.atomic (traced_body t f) in
    leave t i;
    r
  end

let snapshot t f =
  if not t.on then Stm.snapshot f
  else begin
    let i = enter t snapshot_k in
    let r = Stm.snapshot (traced_body t f) in
    leave t i;
    r
  end

let begin_txn t ~now = if t.on then ignore (Span.open_ t.spans txn ~now)

(* The [Body] children of span [i]: their count and the last one. *)
let bodies s i =
  let count = ref 0 and last = ref (-1) in
  for j = i + 1 to s.Span.n - 1 do
    if s.parent.(j) = i && s.kind.(j) = body then begin
      incr count;
      last := j
    end
  done;
  (!count, !last)

(* Fold the finished transaction's spans into the recorder. *)
let account t =
  let s = t.spans in
  Span.seal s;
  for i = 0 to s.n - 1 do
    let k = s.kind.(i) and d = Span.duration s i in
    Hdr.record_ns t.dur.(k) d;
    if k = txn then begin
      t.txns <- t.txns + 1;
      t.txn_ns <- t.txn_ns + d
    end
    else if k = atomic_k || k = snapshot_k then begin
      let count, last = bodies s i in
      t.attempts <- t.attempts + count;
      if last >= 0 then
        if k = atomic_k then begin
          t.wasted_ns <- t.wasted_ns + (s.start.(last) - s.start.(i));
          Hdr.record_ns t.body_hist (Span.duration s last);
          Hdr.record_ns t.commit_hist (s.stop.(i) - s.stop.(last))
        end
        else Hdr.record_ns t.pin_hist (Span.self_ns s i)
    end
    else if is_txcoll k then t.txcoll_ns <- t.txcoll_ns + d
    else if is_jbb k then begin
      t.jbb_ns <- t.jbb_ns + d;
      if k = jbb_order_status then t.order_status_ns <- t.order_status_ns + d
    end
  done;
  Span.clear s

(* [now] closes the [Txn] span, always the buffer's root. *)
let end_txn t ~now =
  if t.on then begin
    Span.close t.spans 0 ~now;
    account t
  end

(* Sum [src] into [into]. *)
let merge ~into src =
  Array.iteri (fun k h -> Hdr.merge ~into:into.dur.(k) h) src.dur;
  Hdr.merge ~into:into.body_hist src.body_hist;
  Hdr.merge ~into:into.commit_hist src.commit_hist;
  Hdr.merge ~into:into.pin_hist src.pin_hist;
  into.txns <- into.txns + src.txns;
  into.attempts <- into.attempts + src.attempts;
  into.wasted_ns <- into.wasted_ns + src.wasted_ns;
  into.txn_ns <- into.txn_ns + src.txn_ns;
  into.txcoll_ns <- into.txcoll_ns + src.txcoll_ns;
  into.jbb_ns <- into.jbb_ns + src.jbb_ns;
  into.order_status_ns <- into.order_status_ns + src.order_status_ns
