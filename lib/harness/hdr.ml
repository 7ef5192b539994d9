(* HDR-style log-bucketed latency histogram.

   The open-loop harness records one latency per request at rates that can
   reach millions per second, so the recorder must be O(1), allocation-free
   and mergeable across domains.  The classic HdrHistogram layout does
   exactly that: values (here: nanoseconds) are binned into a linear range
   of [sub_count] slots followed by one 32-slot half-range per power of
   two, giving a worst-case relative error of 1/64 (~1.6%) over the whole
   range 1 ns .. ~146 hours with a counts array of under 2k words.

   Layout.  [msb] is the 0-based position of the value's highest set bit.

     bucket 0  : values [0, 64)            -> slots 0..63 (exact)
     bucket b>0: values [32*2^b, 64*2^b)   -> 32 slots, width 2^b each
                 slot index = (b + 1) * 32 + (v >> b) - 32

   [percentile] walks the cumulative counts and returns the recorded
   bucket's midpoint, so a reported p99 is within the bucket error of the
   true order statistic.  The true maximum is tracked exactly on the side.

   The module also owns the exact sort-based percentile of the
   closed-loop driver ([p99_us] over per-domain latency arrays, read by
   {!Closed_loop.run}). *)

type t = {
  counts : int array;
  mutable total : int;
  mutable max_ns : int;
  mutable sum_ns : float;
}

let sub_bits = 6
let sub_count = 1 lsl sub_bits (* 64 linear slots, then 32 per octave *)
let half = sub_count / 2

(* Enough buckets for any int64-nanosecond latency on a 63-bit int. *)
let n_buckets = 58
let array_len = sub_count + (n_buckets * half)

let create () = { counts = Array.make array_len 0; total = 0; max_ns = 0; sum_ns = 0. }

let reset t =
  Array.fill t.counts 0 array_len 0;
  t.total <- 0;
  t.max_ns <- 0;
  t.sum_ns <- 0.

let msb_pos v =
  (* 0-based position of the highest set bit of [v] > 0. *)
  let rec go v p = if v = 1 then p else go (v lsr 1) (p + 1) in
  go v 0

let index_of_ns v =
  if v < sub_count then v
  else
    let b = msb_pos v - sub_bits + 1 in
    let b = if b >= n_buckets then n_buckets - 1 else b in
    ((b + 1) * half) + ((v lsr b) - half)

(* Midpoint of the slot at [i]: the value reported back by [percentile]. *)
let value_at_index i =
  if i < sub_count then i
  else
    let b = (i / half) - 1 in
    let sub = (i mod half) + half in
    (sub lsl b) + (1 lsl (b - 1))

let record_ns t ns =
  let ns = if ns < 0 then 0 else ns in
  let i = index_of_ns ns in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum_ns <- t.sum_ns +. float_of_int ns;
  if ns > t.max_ns then t.max_ns <- ns

let record_s t seconds = record_ns t (int_of_float (seconds *. 1e9))

let count t = t.total

let merge ~into src =
  for i = 0 to array_len - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.total <- into.total + src.total;
  into.sum_ns <- into.sum_ns +. src.sum_ns;
  if src.max_ns > into.max_ns then into.max_ns <- src.max_ns

(* The latency at quantile [q] (0 < q <= 1) in nanoseconds; 0 on an empty
   histogram.  For q high enough to land in the last occupied slot the
   exact tracked maximum is returned instead of the slot midpoint, so
   p100 (and a p999 of a small sample) never over-reports. *)
let percentile_ns t q =
  if t.total = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let acc = ref 0 and i = ref 0 and found = ref (-1) in
    while !found < 0 && !i < array_len do
      acc := !acc + t.counts.(!i);
      if !acc >= rank then found := !i;
      incr i
    done;
    let slot = if !found < 0 then array_len - 1 else !found in
    let v = value_at_index slot in
    if v > t.max_ns then t.max_ns else v
  end

let percentile_us t q = float_of_int (percentile_ns t q) /. 1e3
let max_us t = float_of_int t.max_ns /. 1e3
let mean_us t =
  if t.total = 0 then 0. else t.sum_ns /. float_of_int t.total /. 1e3

(* ------------------------------------------------------------------ *)
(* Exact percentile over per-domain closed-loop latency arrays (seconds),
   reported in microseconds.  The index formula is kept bit-for-bit
   ([n * 99 / 100] for p99) so recorded p99 figures stay comparable
   across refactors. *)

let percentile_us_exact ~num ~den lats =
  let all = Array.concat lats in
  let n = Array.length all in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare all;
    all.(min (n - 1) (n * num / den)) *. 1e6
  end

let p99_us lats = percentile_us_exact ~num:99 ~den:100 lats
