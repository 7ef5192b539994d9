(* Regenerate the semantic-lock tables (Tables 2, 5 and 8) by tracing the
   actual host implementation: run each operation inside a transaction,
   inspect which locks the transaction holds, then abort so nothing leaks.
   Whether the commits' write conflicts catch every non-commuting pair is
   measured on the same classes by {!Commit_order} (bench [table1]). *)

module Stm = Tcc_stm.Stm
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Q = Txcoll.Host.Queue

(* [stripes] exercises the striped lock manager: the traced lock rows must
   be identical for every K (striping changes contention, never which
   semantic locks an operation takes) — the K ∈ {1, 4, 16} soundness
   re-check drives these probes. *)
let probe_map ?stripes op =
  let m = IM.create ?stripes () in
  List.iter (fun k -> ignore (IM.put m k k)) [ 10; 20; 30 ];
  let held = ref [] in
  (try
     Stm.atomic (fun () ->
         op m;
         if IM.holds_key_lock m 10 then held := "key(10)" :: !held;
         if IM.holds_key_lock m 77 then held := "key(77)" :: !held;
         if IM.holds_size_lock m then held := "size" :: !held;
         if IM.holds_isempty_lock m then held := "isEmpty" :: !held;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  List.rev !held

(* [splitters] exercises the interval-partitioned lock manager the same
   way: lock rows must be invariant in the partition. *)
let probe_sorted ?splitters op =
  let m = SM.create ?splitters () in
  List.iter (fun k -> ignore (SM.put m k k)) [ 10; 20; 30 ];
  let held = ref [] in
  (try
     Stm.atomic (fun () ->
         op m;
         if SM.holds_key_lock m 10 then held := "key(10)" :: !held;
         if SM.holds_key_lock m 77 then held := "key(77)" :: !held;
         if SM.holds_size_lock m then held := "size" :: !held;
         if SM.holds_range_lock m then held := "range" :: !held;
         if SM.holds_first_lock m then held := "first" :: !held;
         if SM.holds_last_lock m then held := "last" :: !held;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  List.rev !held

let probe_queue ~empty op =
  let q = Q.create () in
  if not empty then Q.put q 1;
  let held = ref [] in
  (try
     Stm.atomic (fun () ->
         op q;
         if Q.holds_empty_lock q then held := "empty" :: !held;
         Stm.self_abort ())
   with Stm.Aborted -> ());
  List.rev !held

let show locks = if locks = [] then "(none)" else String.concat ", " locks

let render_table2 ppf () =
  Fmt.pf ppf "@.Table 2 — semantic locks taken by Map operations (traced)@.";
  let rows =
    [
      ("containsKey(10) [present]", probe_map (fun m -> ignore (IM.mem m 10)));
      ("containsKey(77) [absent]", probe_map (fun m -> ignore (IM.mem m 77)));
      ("get(10)", probe_map (fun m -> ignore (IM.find m 10)));
      ("size", probe_map (fun m -> ignore (IM.size m)));
      ("isEmpty [dedicated lock]", probe_map (fun m -> ignore (IM.is_empty m)));
      ("entrySet iteration", probe_map (fun m -> ignore (IM.to_list m)));
      ("put(10, v)", probe_map (fun m -> ignore (IM.put m 10 0)));
      ("put(77, v) [new key]", probe_map (fun m -> ignore (IM.put m 77 0)));
      ("putBlind(10, v)", probe_map (fun m -> IM.put_blind m 10 0));
      ("remove(10)", probe_map (fun m -> ignore (IM.remove m 10)));
      ("removeBlind(10)", probe_map (fun m -> IM.remove_blind m 10));
    ]
  in
  List.iter (fun (n, locks) -> Fmt.pf ppf "  %-28s read locks: %s@." n (show locks)) rows;
  Fmt.pf ppf
    "  write conflicts at commit: key lock on every written key; size lock@.";
  Fmt.pf ppf
    "  when the size changes; isEmpty lock when emptiness flips (verified@.";
  Fmt.pf ppf "  sound against brute-force commutativity, see table1).@."

let render_table5 ppf () =
  Fmt.pf ppf
    "@.Table 5 — semantic locks taken by SortedMap operations (traced)@.";
  let rows =
    [
      ("firstKey", probe_sorted (fun m -> ignore (SM.first_key m)));
      ("lastKey", probe_sorted (fun m -> ignore (SM.last_key m)));
      ("entrySet iteration", probe_sorted (fun m -> ignore (SM.to_list m)));
      ( "subMap(15,25) iteration",
        probe_sorted (fun m ->
            ignore (SM.fold_range (fun _ _ a -> a) m () ~lo:(Some 15) ~hi:(Some 25)))
      );
      ( "headMap(25) iteration",
        probe_sorted (fun m ->
            ignore (SM.View.to_list (SM.head_map m ~hi:25))) );
      ( "tailMap(15).firstKey",
        probe_sorted (fun m ->
            ignore (SM.View.first_key (SM.tail_map m ~lo:15))) );
      ("get(10)", probe_sorted (fun m -> ignore (SM.find m 10)));
      ("put(77, v) [new key]", probe_sorted (fun m -> ignore (SM.put m 77 0)));
      ("remove(10)", probe_sorted (fun m -> ignore (SM.remove m 10)));
    ]
  in
  List.iter (fun (n, locks) -> Fmt.pf ppf "  %-28s read locks: %s@." n (show locks)) rows;
  Fmt.pf ppf
    "  write conflicts at commit: key & range conflicts on the written key;@.";
  Fmt.pf ppf
    "  first/last conflicts on endpoint changes; size/isEmpty as for Map.@."

let render_table8 ppf () =
  Fmt.pf ppf
    "@.Table 8 — semantic locks taken by Channel operations (traced)@.";
  let rows =
    [
      ("peek [non-empty]", probe_queue ~empty:false (fun q -> ignore (Q.peek q)));
      ("peek [empty]", probe_queue ~empty:true (fun q -> ignore (Q.peek q)));
      ("poll [non-empty]", probe_queue ~empty:false (fun q -> ignore (Q.poll q)));
      ("poll [empty]", probe_queue ~empty:true (fun q -> ignore (Q.poll q)));
      ("put", probe_queue ~empty:true (fun q -> Q.put q 9));
      ("take", probe_queue ~empty:false (fun q -> ignore (Q.take q)));
    ]
  in
  List.iter (fun (n, locks) -> Fmt.pf ppf "  %-28s read locks: %s@." n (show locks)) rows;
  Fmt.pf ppf
    "  write conflicts at commit: a put aborts the transactions that@.";
  Fmt.pf ppf "  observed emptiness (\"if now non-empty\"); takes never conflict.@."
