let () =
  Alcotest.run "txcoll"
    (Test_stm.suites @ Test_coll.suites @ Test_stm_ds.suites
   @ Test_txcoll_map.suites @ Test_txcoll_sorted.suites
   @ Test_txcoll_queue.suites @ Test_cursors.suites @ Test_sim.suites
   @ Test_sim_ds.suites @ Test_harness.suites @ Test_jbb.suites @ Test_alt_underlying.suites @ Test_alternatives.suites @ Test_serializability.suites @ Test_key_leak.suites @ Test_stm_advanced.suites @ Test_stm_readset.suites @ Test_sim_deeper.suites @ Test_equivalence.suites @ Test_soak.suites @ Test_semlock.suites @ Test_sets.suites
   @ Test_contention.suites @ Test_chaos.suites @ Test_stm_scaling.suites
   @ Test_striping.suites @ Test_snapshot.suites @ Test_places.suites
   @ Test_openloop.suites @ Test_derive.suites
   @ Test_txn_local.suites)
