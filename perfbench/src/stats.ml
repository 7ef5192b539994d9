(* Order statistics over per-episode values, and the latency summary of
   one episode read from [Harness.Hdr] histograms. *)

module Hdr = Harness.Hdr

(* Median of a non-empty list; the mean of the two middle values when the
   count is even. *)
let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Merge per-domain histograms into a fresh one. *)
let merged hs =
  let into = Hdr.create () in
  List.iter (fun h -> Hdr.merge ~into h) hs;
  into

let p50_us h = Hdr.percentile_us h 0.50
let p99_us h = Hdr.percentile_us h 0.99

(* [ratio a b] is [a / b], 0 when nothing was counted. *)
let ratio a b = if b = 0. then 0. else a /. b
