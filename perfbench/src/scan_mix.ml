(* scan_mix: a sorted map over [0, 65 536) cut into four intervals, holding
   the 32 768 even keys.  90% of transactions are [Stm.atomic] point
   operations, half a put on an even key and half a find on an odd key;
   10% are [Stm.snapshot] range folds over 256 keys.  Snapshot reads
   bypass semantic locks and validation and read the version chains,
   while the writes pay for publishing versions: a gain for one side at
   the other's expense shows as scans (p99) against writes (p50).

   Checks: every fold counts exactly 128 keys and every odd find misses
   (both per transaction); the size stays 32 768. *)

module Stm = Tcc_stm.Stm
module M = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

let name = "scan_mix"
let span = 65_536
let width = 256
let warm = 1_000
let per_domain = 30_000

type state = int M.t
type op = Put | Find | Fold
type input = { op : op array; key : int array }

let build_with ~splitters =
  let m = M.create ~splitters () in
  let chunk = 1024 in
  for c = 0 to (span / chunk) - 1 do
    Stm.atomic (fun () ->
        for k = c * chunk / 2 to (((c + 1) * chunk) / 2) - 1 do
          M.put_blind m (2 * k) 0
        done)
  done;
  m

let build ~seed:_ = build_with ~splitters:[ 16_384; 32_768; 49_152 ]

let input ~seed ~domain ~n =
  let r = Workload.rng ~seed ~domain 2 in
  let op =
    Array.init n (fun _ ->
        match Random.State.int r 20 with
        | 0 | 1 -> Fold
        | x when x mod 2 = 0 -> Put
        | _ -> Find)
  in
  let key =
    Array.map
      (function
        | Put -> 2 * Random.State.int r (span / 2)
        | Find -> (2 * Random.State.int r (span / 2)) + 1
        | Fold -> Random.State.int r (span - width + 1))
      op
  in
  { op; key }

let count_range tr m lo =
  Trace.call tr Trace.sorted_fold_range (fun () ->
      M.fold_range (fun _ _ n -> n + 1) m 0 ~lo:(Some lo) ~hi:(Some (lo + width)))

let run tr m inp i =
  let k = inp.key.(i) in
  match inp.op.(i) with
  | Put ->
      Trace.atomic tr (fun () ->
          Trace.call tr Trace.sorted_put (fun () -> ignore (M.put m k i)));
      true
  | Find ->
      Trace.atomic tr (fun () ->
          Trace.call tr Trace.sorted_find (fun () -> M.find m k))
      = None
  | Fold -> Trace.snapshot tr (fun () -> count_range tr m k) = width / 2

let checks m ~committed:_ = [ ("scan_mix.size", M.size m = span / 2) ]

let replay ~seed:_ (inputs : input array) =
  let t = Coll.Ordmap.create ~compare:Int.compare () in
  for k = 0 to (span / 2) - 1 do
    Coll.Ordmap.add t (2 * k) 0
  done;
  let count op =
    Array.fold_left
      (fun n i -> n + Array.fold_left (fun n o -> if o = op then n + 1 else n) 0 i.op)
      0 inputs
  in
  let each op f () =
    Array.iter
      (fun i -> Array.iteri (fun j o -> if o = op then f i.key.(j)) i.op)
      inputs
  in
  let fold lo =
    let n = ref 0 in
    Coll.Ordmap.iter_range (fun _ _ -> incr n) t ~lo:(Some lo)
      ~hi:(Some (lo + width));
    ignore (Sys.opaque_identity !n)
  in
  [
    ( "coll.ordmap_replace_ns",
      Workload.ns_per_op ~ops:(count Put) (each Put (fun k -> Coll.Ordmap.add t k 1)) );
    ( "coll.ordmap_fold256_us",
      Workload.ns_per_op ~ops:(count Fold) (each Fold fold) /. 1e3 );
  ]
