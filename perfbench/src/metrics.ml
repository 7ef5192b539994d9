(* The benchmark's metrics: names, units, and their values for one
   episode.  End-to-end values come from untraced episodes only; per-layer
   values from traced ones.  The [coll.*] values come from the raw
   replays and [trace.overhead_pct] from comparing the two kinds of
   episode, so neither is computed here. *)

let end_to_end =
  [
    ("throughput_txn_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("heap_live_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("stm.attempts_per_txn", "1/txn");
    ("stm.conflict_aborts_per_ktxn", "1/ktxn");
    ("stm.remote_aborts_per_ktxn", "1/ktxn");
    ("stm.wasted_us_per_txn", "us/txn");
    ("stm.region_waits_per_ktxn", "1/ktxn");
    ("stm.body_us_p50", "us");
    ("stm.commit_us_p50", "us");
    ("stm.commit_us_p99", "us");
    ("stm.clock_bumps_per_txn", "1/txn");
    ("stm.read_only_share", "ratio");
    ("stm.versions_reclaimed_per_ktxn", "1/ktxn");
    ("stm.snapshot_pin_us_p50", "us");
    ("txcoll.map_find_us_p50", "us");
    ("txcoll.map_put_us_p50", "us");
    ("txcoll.sorted_put_us_p50", "us");
    ("txcoll.sorted_find_us_p50", "us");
    ("txcoll.sorted_fold_range_us_p50", "us");
    ("txcoll.queue_poll_us_p50", "us");
    ("txcoll.queue_put_us_p50", "us");
    ("txcoll.self_share", "ratio");
    ("jbb.new_order_us_p50", "us");
    ("jbb.payment_us_p50", "us");
    ("jbb.order_status_us_p50", "us");
    ("jbb.delivery_us_p50", "us");
    ("jbb.stock_level_us_p50", "us");
    ("jbb.order_status_time_share", "ratio");
    ("coll.hashmap_find_ns", "ns");
    ("coll.hashmap_replace_ns", "ns");
    ("coll.ordmap_replace_ns", "ns");
    ("coll.ordmap_fold256_us", "us");
    ("coll.deque_pop_push_ns", "ns");
    ("gc.minor_words_per_txn", "words/txn");
    ("gc.promoted_words_per_txn", "words/txn");
    ("gc.minor_collections_per_ktxn", "1/ktxn");
    ("gc.major_collections_per_ktxn", "1/ktxn");
    ("gc.pause_ms_total", "ms");
    ("trace.overhead_pct", "%");
  ]

let end_to_end_values (e : Runner.episode) =
  [
    ("throughput_txn_s", e.throughput);
    ("latency_p50_us", Stats.p50_us e.lat);
    ("latency_p99_us", Stats.p99_us e.lat);
    ("heap_live_mb", e.heap_live_mb);
    ("setup_s", e.setup_s);
  ]

let layer_values (e : Runner.episode) =
  let tr = e.trace in
  let stm f = float_of_int (f e.stm1 - f e.stm0) in
  let gcd f = f e.gc1 -. f e.gc0 in
  let txns = float_of_int tr.txns in
  let per_txn x = Stats.ratio x txns and per_ktxn x = Stats.ratio (1e3 *. x) txns in
  let p50 k = Stats.p50_us tr.dur.(k) in
  let share a b = Stats.ratio (float_of_int a) (float_of_int b) in
  [
    ("stm.attempts_per_txn", per_txn (float_of_int tr.attempts));
    ("stm.conflict_aborts_per_ktxn", per_ktxn (stm (fun s -> s.conflict_aborts)));
    ("stm.remote_aborts_per_ktxn", per_ktxn (stm (fun s -> s.remote_aborts)));
    ("stm.wasted_us_per_txn", per_txn (float_of_int tr.wasted_ns /. 1e3));
    ("stm.region_waits_per_ktxn", per_ktxn (float_of_int e.region_waits));
    ("stm.body_us_p50", Stats.p50_us tr.body_hist);
    ("stm.commit_us_p50", Stats.p50_us tr.commit_hist);
    ("stm.commit_us_p99", Stats.p99_us tr.commit_hist);
    ("stm.clock_bumps_per_txn", per_txn (stm (fun s -> s.clock_bumps)));
    ( "stm.read_only_share",
      Stats.ratio (stm (fun s -> s.read_only_commits)) (stm (fun s -> s.commits)) );
    ("stm.versions_reclaimed_per_ktxn", per_ktxn (stm (fun s -> s.versions_reclaimed)));
    ("stm.snapshot_pin_us_p50", Stats.p50_us tr.pin_hist);
    ("txcoll.map_find_us_p50", p50 Trace.map_find);
    ("txcoll.map_put_us_p50", p50 Trace.map_put);
    ("txcoll.sorted_put_us_p50", p50 Trace.sorted_put);
    ("txcoll.sorted_find_us_p50", p50 Trace.sorted_find);
    ("txcoll.sorted_fold_range_us_p50", p50 Trace.sorted_fold_range);
    ("txcoll.queue_poll_us_p50", p50 Trace.queue_poll);
    ("txcoll.queue_put_us_p50", p50 Trace.queue_put);
    ("txcoll.self_share", share tr.txcoll_ns tr.txn_ns);
    ("jbb.new_order_us_p50", p50 Trace.jbb_new_order);
    ("jbb.payment_us_p50", p50 Trace.jbb_payment);
    ("jbb.order_status_us_p50", p50 Trace.jbb_order_status);
    ("jbb.delivery_us_p50", p50 Trace.jbb_delivery);
    ("jbb.stock_level_us_p50", p50 Trace.jbb_stock_level);
    ("jbb.order_status_time_share", share tr.order_status_ns tr.jbb_ns);
    ("gc.minor_words_per_txn", per_txn (gcd (fun g -> g.minor_words)));
    ("gc.promoted_words_per_txn", per_txn (gcd (fun g -> g.promoted_words)));
    ( "gc.minor_collections_per_ktxn",
      per_ktxn (gcd (fun g -> float_of_int g.minor_collections)) );
    ( "gc.major_collections_per_ktxn",
      per_ktxn (gcd (fun g -> float_of_int g.major_collections)) );
    ("gc.pause_ms_total", float_of_int e.pause_ns /. 1e6);
  ]
