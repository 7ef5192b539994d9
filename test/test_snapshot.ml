(* Multi-version snapshot reads: abort-free read-only sections over tvars
   and the transactional collections, plus the version-chain reclamation
   properties (a pinned reader never observes a reclaimed version; chains
   shrink back to the bound once the oldest reader epoch advances) and the
   allocation budget of the snapshot-read commit path. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Q = Txcoll.Host.Queue
module DS = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module Counter = Txcoll.Host.Counter
module UM = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed)

(* ---------------- basic semantics ---------------- *)

(* The undo-logging map updates its shards in place, yet serves snapshots
   from the same shadow chains as the redo map: reads inside
   [Stm.snapshot] see the pinned prefix while another domain commits, and
   a pending (then aborted) in-place write is never visible. *)
let test_snapshot_undo_map () =
  let m = UM.create () in
  for k = 0 to 9 do
    ignore (UM.put m k k)
  done;
  let sum () = UM.fold (fun _ v acc -> acc + v) m 0 in
  let pinned =
    Stm.snapshot (fun () ->
        let before = (UM.find m 3, UM.size m, sum ()) in
        let d =
          Domain.spawn (fun () ->
              for i = 1 to 50 do
                Stm.atomic (fun () ->
                    ignore (UM.put m 3 (100 + i));
                    ignore (UM.put m (10 + i) i))
              done)
        in
        Domain.join d;
        (before, (UM.find m 3, UM.size m, sum ())))
  in
  Alcotest.(check bool) "pinned prefix before and after the commits" true
    (pinned = ((Some 3, 10, 45), (Some 3, 10, 45)));
  Alcotest.(check bool) "a later snapshot sees them" true
    (Stm.snapshot (fun () -> (UM.find m 3, UM.size m)) = (Some 150, 60));
  (* An eager write stays invisible while pending and after its abort. *)
  let phase = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        try
          Stm.atomic (fun () ->
              ignore (UM.put m 0 999);
              ignore (UM.put m 1000 999);
              ignore (UM.remove m 1);
              Atomic.set phase 1;
              while Atomic.get phase < 2 do
                Domain.cpu_relax ()
              done;
              Stm.self_abort ())
        with Stm.Aborted -> ())
  in
  while Atomic.get phase < 1 do
    Domain.cpu_relax ()
  done;
  let read () =
    Stm.snapshot (fun () ->
        (UM.find m 0, UM.find m 1000, UM.find m 1, UM.size m, sum ()))
  in
  let committed = (Some 0, None, Some 1, 60, 45 - 3 + 150 + (50 * 51 / 2)) in
  let pending = read () in
  let outside = (UM.find m 0, UM.find m 1000, UM.find m 1) in
  Atomic.set phase 2;
  Domain.join d;
  Alcotest.(check bool) "pending in-place write not in a snapshot" true
    (pending = committed);
  Alcotest.(check bool) "nor in a read outside a transaction" true
    (outside = (Some 0, None, Some 1));
  Alcotest.(check bool) "aborted write not in a snapshot" true
    (read () = committed);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks m)

let test_snapshot_tvar_reads () =
  let a = Tvar.make 1 and b = Tvar.make 10 in
  Stm.atomic (fun () ->
      Tvar.set a 2;
      Tvar.set b 20);
  let sum = Stm.snapshot (fun () -> Tvar.get a + Tvar.get b) in
  Alcotest.(check int) "snapshot sees committed state" 22 sum

let test_snapshot_counts_as_ro_commit () =
  let tv = Tvar.make 0 in
  let s0 = Stm.global_stats () in
  for _ = 1 to 5 do
    ignore (Stm.snapshot (fun () -> Tvar.get tv))
  done;
  let s1 = Stm.global_stats () in
  Alcotest.(check int) "snapshot_reads counted" 5
    (s1.snapshot_reads - s0.snapshot_reads);
  Alcotest.(check int) "each snapshot is a read-only commit" 5
    (s1.read_only_commits - s0.read_only_commits);
  Alcotest.(check int) "no clock interaction" 0 (s1.clock_bumps - s0.clock_bumps);
  Alcotest.(check int) "no aborts" 0
    (s1.conflict_aborts + s1.remote_aborts + s1.explicit_aborts
    - (s0.conflict_aborts + s0.remote_aborts + s0.explicit_aborts))

let test_snapshot_rejects_writes_and_atomics () =
  let tv = Tvar.make 0 in
  let m = IM.create () in
  Stm.snapshot (fun () ->
      Alcotest.check_raises "Tvar.set raises"
        (Invalid_argument "Tvar.set: inside a snapshot read section")
        (fun () -> Tvar.set tv 1);
      Alcotest.check_raises "atomic raises"
        (Invalid_argument "Stm.atomic: inside a snapshot read section")
        (fun () -> Stm.atomic ignore);
      Alcotest.check_raises "map write raises"
        (Invalid_argument
           "Transactional_map: write inside a snapshot read section")
        (fun () -> ignore (IM.put m 1 1)))

let test_snapshot_rejects_every_top_level_entry () =
  (* [serialised] and [open_nested] used to start a top-level transaction
     inside the section and return the snapshot's value; every entry must
     reject the call as [atomic] does, the admission gate included. *)
  let tv = Tvar.make 1 in
  let rejects name entry =
    match entry (fun () -> Tvar.get tv) with
    | v -> Alcotest.failf "%s ran inside a snapshot and returned %d" name v
    | exception Invalid_argument _ -> ()
  in
  let module Admission = Harness.Admission in
  Fun.protect ~finally:Admission.disable (fun () ->
      Admission.configure ~rate:1e-3 ~burst:1 ~policy:Admission.Shed ();
      Stm.snapshot (fun () ->
          rejects "atomic" (fun f -> Stm.atomic f);
          rejects "serialised" Stm.serialised;
          rejects "open_nested" Stm.open_nested;
          rejects "Admission.run" (fun f -> Admission.run f)));
  Alcotest.(check int) "no commit region left held" 0 (Stm.regions_held ());
  Alcotest.(check int) "no transaction left in flight" 0
    (Stm.in_flight_transactions ())

let test_snapshot_nesting () =
  let tv = Tvar.make 7 in
  let v =
    Stm.snapshot (fun () ->
        Alcotest.(check bool) "in_snapshot" true (Stm.in_snapshot ());
        Stm.snapshot (fun () -> Tvar.get tv))
  in
  Alcotest.(check bool) "left" false (Stm.in_snapshot ());
  Alcotest.(check int) "nested read" 7 v

(* The pinned stamp is stable: writes committed by another domain while
   the snapshot is open stay invisible to it, and the pre-pin values keep
   resolving even after their versions become reclamation candidates. *)
let test_snapshot_isolation_across_domains () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  Stm.snapshot (fun () ->
      let a0 = Tvar.get a and b0 = Tvar.get b in
      let d =
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              Stm.atomic (fun () ->
                  Tvar.set a i;
                  Tvar.set b (-i))
            done)
      in
      Domain.join d;
      Alcotest.(check int) "a unchanged" a0 (Tvar.get a);
      Alcotest.(check int) "b unchanged" b0 (Tvar.get b));
  Alcotest.(check int) "live read sees the writes" 50
    (Stm.snapshot (fun () -> Tvar.get a))

(* ---------------- collections ---------------- *)

let test_snapshot_map_ops () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      for i = 1 to 20 do
        ignore (IM.put m i (i * 10))
      done);
  Stm.snapshot (fun () ->
      Alcotest.(check int) "size" 20 (IM.size m);
      Alcotest.(check bool) "not empty" false (IM.is_empty m);
      Alcotest.(check (option int)) "find" (Some 70) (IM.find m 7);
      Alcotest.(check (option int)) "miss" None (IM.find m 21);
      let sum = IM.fold (fun _ v acc -> acc + v) m 0 in
      Alcotest.(check int) "fold" 2100 sum;
      let c = IM.cursor m in
      let n = ref 0 in
      let rec drain () =
        match IM.next c with
        | Some _ ->
            incr n;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check int) "cursor count" 20 !n);
  Alcotest.(check int) "no stranded locks" 0 (IM.outstanding_locks m)

let test_snapshot_sorted_map_cross_interval () =
  let m = SM.create ~splitters:[ 100; 200; 300 ] () in
  Stm.atomic (fun () ->
      for i = 1 to 40 do
        ignore (SM.put m (i * 10) i)
      done);
  Stm.snapshot (fun () ->
      Alcotest.(check int) "size" 40 (SM.size m);
      Alcotest.(check (option int)) "first key" (Some 10)
        (SM.first_key m);
      Alcotest.(check (option int)) "last key" (Some 400) (SM.last_key m);
      (* Cross-interval range fold: [50, 350) spans all four intervals. *)
      let keys =
        List.rev
          (SM.fold_range
             (fun k _ acc -> k :: acc)
             m [] ~lo:(Some 50) ~hi:(Some 350))
      in
      Alcotest.(check int) "range count" 30 (List.length keys);
      Alcotest.(check bool) "ascending across intervals" true
        (List.sort compare keys = keys);
      (* Cursor across interval boundaries. *)
      let c = SM.cursor m in
      let rec drain last n =
        match SM.cursor_next c with
        | Some (k, _) ->
            Alcotest.(check bool) "cursor ascending" true (k > last);
            drain k (n + 1)
        | None -> n
      in
      Alcotest.(check int) "cursor count" 40 (drain min_int 0));
  Alcotest.(check int) "no stranded locks" 0 (SM.outstanding_locks m)

let test_snapshot_queue () =
  let q = Q.create () in
  Stm.atomic (fun () ->
      Q.put q 1;
      Q.put q 2;
      Q.put q 3);
  Stm.snapshot (fun () ->
      Alcotest.(check (option int)) "peek" (Some 1) (Q.peek q);
      Alcotest.(check int) "length" 3 (Q.committed_length q);
      Alcotest.check_raises "poll raises"
        (Invalid_argument
           "Transactional_queue: write inside a snapshot read section")
        (fun () -> ignore (Q.poll q)));
  (* An op-time take published before the pin is visible; one after is
     not (single-domain sequencing). *)
  ignore (Q.poll q);
  Stm.snapshot (fun () ->
      Alcotest.(check (option int)) "post-take peek" (Some 2) (Q.peek q))

(* Pinned sorted-map snapshot stays on its cut while another domain
   commits cross-interval writes. *)
let test_snapshot_sorted_map_pinned_vs_writers () =
  let m = SM.create ~splitters:[ 100; 200 ] () in
  Stm.atomic (fun () ->
      for i = 1 to 30 do
        ignore (SM.put m (i * 10) 0)
      done);
  Stm.snapshot (fun () ->
      let size0 = SM.size m in
      let keys0 = SM.fold (fun k _ acc -> k :: acc) m [] in
      let d =
        Domain.spawn (fun () ->
            for i = 31 to 60 do
              Stm.atomic (fun () -> ignore (SM.put m (i * 10) 0))
            done)
      in
      Domain.join d;
      Alcotest.(check int) "size pinned" size0 (SM.size m);
      Alcotest.(check (list int)) "fold pinned" keys0
        (SM.fold (fun k _ acc -> k :: acc) m []));
  Alcotest.(check int) "live size" 60 (Stm.snapshot (fun () -> SM.size m))

(* The snapshot rows of the stmscale bench, at its sizes (20 000 sections
   per domain): snapshot finds on one shared un-striped map, and
   cross-interval folds on an 8-interval sorted map, take no commit region
   and never abort at any domain count. *)
let sections_per_domain = 20_000

let aborts () =
  let s = Stm.global_stats () in
  s.conflict_aborts + s.remote_aborts + s.explicit_aborts

let check_region_and_abort_free label ~domains section =
  let a0 = aborts () and w0 = Stm.commit_region_waits () in
  List.init domains (fun d ->
      Domain.spawn (fun () ->
          for i = 1 to sections_per_domain do
            Stm.snapshot (fun () -> section d i)
          done))
  |> List.iter Domain.join;
  Alcotest.(check int)
    (Printf.sprintf "%s, %d domains: aborts" label domains)
    0
    (aborts () - a0);
  Alcotest.(check int)
    (Printf.sprintf "%s, %d domains: region waits" label domains)
    0
    (Stm.commit_region_waits () - w0)

let test_snapshot_rows_region_and_abort_free () =
  let keys = 1024 in
  let m = IM.create ~stripes:1 () in
  for k = 0 to keys - 1 do
    ignore (IM.put m k k)
  done;
  List.iter
    (fun domains ->
      check_region_and_abort_free "map find" ~domains (fun d i ->
          ignore (IM.find m (((d * 37) + i) land (keys - 1)))))
    [ 1; 2; 4; 8 ];
  (* Domain d's keys [d*K, (d+1)*K) form interval d; each fold reads a
     window straddling the upper boundary of its domain's interval. *)
  let per_domain = 1024 and intervals = 8 in
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun domains ->
      let sm =
        SM.create
          ~splitters:(List.init (intervals - 1) (fun i -> (i + 1) * per_domain))
          ()
      in
      for k = 0 to (domains * per_domain) - 1 do
        ignore (SM.put sm k 0)
      done;
      check_region_and_abort_free "sorted cross-interval fold" ~domains
        (fun d i ->
          let edge = min ((d + 1) * per_domain) ((domains * per_domain) - 16) in
          ignore (SM.find sm ((d * per_domain) + (i land (per_domain - 1))));
          ignore
            (SM.fold_range
               (fun _ _ n -> n + 1)
               sm 0
               ~lo:(Some (edge - 16))
               ~hi:(Some (edge + 16)))))
    (List.filter (fun d -> d <= max 4 cores) [ 1; 2; 4; 8 ])

(* ---------------- reclamation properties (QCheck) ---------------- *)

(* A pinned reader keeps resolving its pinned version no matter how many
   writes land meanwhile, and once the pin is released the next publish
   trims the chain back to the bound. *)
let test_tvar_reclamation_property () =
  let prop =
    QCheck.Test.make
      ~name:"pinned tvar version survives; chain rebounds after unpin"
      ~count:40
      QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) small_int))
      (fun (v0, writes) ->
        let tv = Tvar.make v0 in
        let ok =
          Stm.snapshot (fun () ->
              let pinned = Tvar.get tv in
              let d =
                Domain.spawn (fun () ->
                    List.iter (fun v -> Stm.atomic (fun () -> Tvar.set tv v)) writes)
              in
              Domain.join d;
              (* Every re-read inside the pin resolves the pinned version,
                 never a newer or reclaimed one. *)
              Tvar.get tv = pinned && pinned = v0)
        in
        (* Unpinned: the next publishes trim the chain to the bound. *)
        Stm.atomic (fun () -> Tvar.set tv 424242);
        Stm.atomic (fun () -> Tvar.set tv 424243);
        ok
        && Tvar.history_length tv <= Stm.version_chain_bound
        && Stm.snapshot (fun () -> Tvar.get tv) = 424243)
  in
  QCheck.Test.check_exn prop

(* Same property at the collection layer: the map's shadow chains never
   lose the pinned cut, and rebound once the reader epoch advances. *)
let test_map_reclamation_property () =
  let prop =
    QCheck.Test.make
      ~name:"pinned map cut survives; shadow chains rebound after unpin"
      ~count:25
      QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair small_nat small_int))
      (fun writes ->
        let m = IM.create ~stripes:4 () in
        Stm.atomic (fun () -> ignore (IM.put m 0 0));
        let ok =
          Stm.snapshot (fun () ->
              let size0 = IM.size m in
              let v0 = IM.find m 0 in
              let d =
                Domain.spawn (fun () ->
                    List.iter
                      (fun (k, v) ->
                        Stm.atomic (fun () -> ignore (IM.put m (k mod 16) v)))
                      writes)
              in
              Domain.join d;
              IM.size m = size0 && IM.find m 0 = v0)
        in
        (* Advance past the reader epoch: publishes on every stripe trim
           each chain back to the bound. *)
        Stm.atomic (fun () ->
            for k = 0 to 15 do
              ignore (IM.put m k (-1))
            done);
        Stm.atomic (fun () -> ignore (IM.put m 0 (-2)));
        ok && IM.snapshot_history_length m <= Stm.version_chain_bound)
  in
  QCheck.Test.check_exn prop

(* Leak probe alongside test_key_leak: sustained write traffic with
   snapshots opening and closing must leave every chain at the bound, not
   growing with the write count.  Once traffic goes quiescent (no reader
   pinned, one commit at a time), every chain kind settles at exactly two
   entries: the newest version and the one it replaced. *)
let test_chains_bounded_under_traffic () =
  let tv = Tvar.make 0 in
  let m = SM.create ~splitters:[ 50 ] () in
  for round = 1 to 200 do
    Stm.atomic (fun () ->
        Tvar.set tv round;
        ignore (SM.put m (round mod 100) round));
    if round mod 10 = 0 then
      Stm.snapshot (fun () -> ignore (SM.size m + Tvar.get tv))
  done;
  Alcotest.(check bool) "tvar chain bounded" true
    (Tvar.history_length tv <= Stm.version_chain_bound);
  Alcotest.(check bool) "sorted-map chains bounded" true
    (SM.snapshot_history_length m <= Stm.version_chain_bound);
  let hm = IM.create ~stripes:4 () and q = Q.create () in
  let ds = DS.create ~stripes:4 () and c = Counter.create ~shards:4 () in
  let um = UM.create () in
  for round = 1 to 20 do
    Stm.atomic (fun () ->
        Tvar.set tv round;
        ignore (SM.put m (round mod 100) round);
        for k = 0 to 7 do
          ignore (IM.put hm k round);
          ignore (UM.put um k round);
          ignore (DS.add ds (k + (round mod 2 * 8)))
        done;
        Q.put q round;
        Counter.incr c)
  done;
  Alcotest.(check int) "quiescent tvar chain" 2 (Tvar.history_length tv);
  Alcotest.(check int) "quiescent sorted-map chains" 2
    (SM.snapshot_history_length m);
  Alcotest.(check int) "quiescent striped-map chains" 2
    (IM.snapshot_history_length hm);
  Alcotest.(check int) "quiescent queue chain" 2 (Q.snapshot_history_length q);
  Alcotest.(check int) "quiescent derived-set chains" 2
    (DS.snapshot_history_length ds);
  Alcotest.(check int) "quiescent counter chains" 2
    (Counter.snapshot_history_length c);
  Alcotest.(check int) "quiescent undo-map chains" 2
    (UM.snapshot_history_length um)

(* Two domains commit into disjoint stripes of one map and of one
   counter, with no reader pinned: each publishes only into its own
   chains, and after every commit those chains hold at most the bound.
   Another domain's open publication window must not hold back the
   reclamation of this domain's chains (it did: 161 versions on average
   at two domains). *)
let test_disjoint_publishers_chains_bounded () =
  let m = IM.create ~stripes:16 () and c = Counter.create ~shards:16 () in
  (* Keys 0 and 1 hash to different stripes of 16. *)
  assert (Hashtbl.hash 0 mod 16 <> Hashtbl.hash 1 mod 16);
  let commits = 2_000 in
  let worker key () =
    let worst = ref 0 in
    for i = 1 to commits do
      Stm.atomic (fun () ->
          ignore (IM.put m key i);
          Counter.incr c);
      worst :=
        max !worst (max (IM.key_history_length m key) (Counter.own_history_length c))
    done;
    !worst
  in
  let d = Domain.spawn (worker 1) in
  let here = worker 0 () in
  let there = Domain.join d in
  Alcotest.(check bool)
    (Printf.sprintf "own chains after every commit: %d and %d (<= %d)" here
       there Stm.version_chain_bound)
    true
    (max here there <= Stm.version_chain_bound)

(* An exited domain's epoch slots leave the registries: 600 short-lived
   domains, one live at a time, each running a writing commit
   (publication slot) and a snapshot (reader slot), grow the registries
   that every reclamation epoch and every pin scan by at most the one
   slot a second live domain needs, not by one slot per domain. *)
let test_dead_domain_slots_released () =
  let module T = Tcc_stm.Types in
  let tv = Tvar.make 0 in
  Stm.atomic (fun () -> Tvar.set tv 0);
  ignore (Stm.snapshot (fun () -> Tvar.get tv));
  let len reg = List.length (Atomic.get reg) in
  let readers0 = len T.reader_slots and publishers0 = len T.publish_slots in
  for i = 1 to 600 do
    Domain.join
      (Domain.spawn (fun () ->
           Stm.atomic (fun () -> Tvar.set tv i);
           ignore (Stm.snapshot (fun () -> Tvar.get tv))))
  done;
  let check name reg before =
    let bound = before + 1 in
    Alcotest.(check bool)
      (Printf.sprintf "%s slots %d <= %d" name (len reg) bound)
      true
      (len reg <= bound)
  in
  check "reader" T.reader_slots readers0;
  check "publication" T.publish_slots publishers0;
  Alcotest.(check int) "last domain's write visible" 600
    (Stm.snapshot (fun () -> Tvar.get tv))

(* ---------------- in-place trimming under concurrent readers ---------------- *)

(* A writer domain publishes tvar, sorted-map and bare chain versions —
   each publication cutting its chain in place — while reader domains sit
   pinned in [Stm.snapshot] across many of those publications.  The bare
   chain is published the way the collections publish theirs
   ([begin_publish] stamp, [reclaim_epoch] trim), so the readers can probe
   it with [read_at_opt] directly.  Every read at a pin must resolve (no
   [None]) and show the committed prefix at the pin: write [i] sets the
   tvar to [i] and key [i mod keys] to [i], so a reader that sees tvar [t]
   must see, for every key, the last write to it at or below [t], and a
   bare-chain value of [t - 1] or [t] (published between writes [t] and
   [t + 1]).  After the readers unpin, one more round trims every chain
   back to the bound. *)
let test_inplace_trim_race () =
  let module Tm = Stm.Tm_ops in
  let keys = 8 and writes = 3000 and readers = 2 in
  let tv = Tvar.make 0 in
  let m = SM.create ~splitters:[ keys / 2 ] () in
  let chain = Coll.Vchain.make 0 0 in
  let publish_bare i =
    let wv = Tm.begin_publish () in
    Tm.note_reclaimed
      (Coll.Vchain.publish chain ~min_epoch:(Tm.reclaim_epoch ()) wv i);
    Tm.end_publish ()
  in
  let done_ = Atomic.make false in
  let progress = Atomic.make 0 in
  let misses = Atomic.make 0 and torn = Atomic.make 0 in
  let max_len = Atomic.make 0 and snapshots = Atomic.make 0 in
  let check_prefix () =
    let t = Tvar.get tv in
    (match Coll.Vchain.read_at_opt chain (Stm.snapshot_stamp ()) with
    | None -> Atomic.incr misses
    | Some b -> if b <> t && b <> t - 1 then Atomic.incr torn);
    for k = 0 to keys - 1 do
      let last = if t < k then None else Some (t - ((t - k) mod keys)) in
      let expect = match last with Some 0 | None -> None | v -> v in
      if SM.find m k <> expect then Atomic.incr torn
    done;
    t
  in
  let reader () =
    while not (Atomic.get done_) do
      Stm.snapshot (fun () ->
          let t0 = check_prefix () in
          (* Stay pinned while the writer publishes past the bound. *)
          let target = Atomic.get progress + (2 * Stm.version_chain_bound) in
          while Atomic.get progress < target && not (Atomic.get done_) do
            Domain.cpu_relax ()
          done;
          let l = Coll.Vchain.length chain in
          if l > Atomic.get max_len then Atomic.set max_len l;
          if check_prefix () <> t0 then Atomic.incr torn);
      Atomic.incr snapshots
    done
  in
  let rs = List.init readers (fun _ -> Domain.spawn reader) in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to writes do
          Stm.atomic (fun () ->
              Tvar.set tv i;
              ignore (SM.put m (i mod keys) i));
          publish_bare i;
          Atomic.set progress i
        done;
        Atomic.set done_ true)
  in
  Domain.join writer;
  List.iter Domain.join rs;
  Alcotest.(check bool) "readers took snapshots" true (Atomic.get snapshots > 0);
  Alcotest.(check bool) "pinned readers grew the chain past the bound" true
    (Atomic.get max_len > Stm.version_chain_bound);
  Alcotest.(check int) "read_at_opt never None at a pin" 0 (Atomic.get misses);
  Alcotest.(check int) "committed prefix at every pin" 0 (Atomic.get torn);
  (* Unpinned: one more publication per chain trims it to the bound (the
     new key moves the size, so the structure chain publishes too). *)
  Stm.atomic (fun () ->
      Tvar.set tv 0;
      for k = 0 to keys do
        ignore (SM.put m k 0)
      done);
  publish_bare 0;
  let bound = Stm.version_chain_bound in
  Alcotest.(check bool) "tvar chain back to bound" true
    (Tvar.history_length tv <= bound);
  Alcotest.(check bool) "sorted-map chains back to bound" true
    (SM.snapshot_history_length m <= bound);
  Alcotest.(check bool) "bare chain back to bound" true
    (Coll.Vchain.length chain <= bound)

(* ---------------- allocation budget ---------------- *)

(* The snapshot-read commit path is pin + chain reads + unpin: after
   warm-up it must stay within the issue's 215 minor-words budget per
   snapshot commit. *)
let test_snapshot_allocation_budget () =
  let tv = Tvar.make 1 and tw = Tvar.make 2 in
  for _ = 1 to 100 do
    ignore (Stm.snapshot (fun () -> Tvar.get tv + Tvar.get tw))
  done;
  let iters = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Stm.snapshot (fun () -> Tvar.get tv + Tvar.get tw))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot commit allocates %.1f words (<= 215)" per)
    true (per <= 215.)

(* A writing commit publishes one version per written tvar.  After
   warm-up, a commit writing 8 distinct tvars must stay within 150 minor
   words: rebuilding each chain's retained prefix on every publication
   (the list-copy chains) cost about 690, and the hashtable write set
   with the per-call retry-loop closures about 170. *)
let test_commit_8_tvars_allocation_budget () =
  let tvs = Array.init 8 Tvar.make in
  let commit i = Stm.atomic (fun () -> Array.iter (fun tv -> Tvar.set tv i) tvs) in
  for i = 1 to 100 do
    commit i
  done;
  let iters = 2000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    commit i
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "8-tvar commit allocates %.1f words (<= 150)" per)
    true (per <= 150.)

let suites =
  [
    ( "snapshot",
      [
        Alcotest.test_case "tvar reads" `Quick test_snapshot_tvar_reads;
        Alcotest.test_case "counts as abort-free ro commit" `Quick
          test_snapshot_counts_as_ro_commit;
        Alcotest.test_case "rejects writes and nested atomics" `Quick
          test_snapshot_rejects_writes_and_atomics;
        Alcotest.test_case "every top-level entry rejected inside" `Quick
          test_snapshot_rejects_every_top_level_entry;
        Alcotest.test_case "nesting" `Quick test_snapshot_nesting;
        Alcotest.test_case "isolation across domains" `Quick
          test_snapshot_isolation_across_domains;
        Alcotest.test_case "map point/aggregate/cursor ops" `Quick
          test_snapshot_map_ops;
        Alcotest.test_case "sorted map cross-interval reads" `Quick
          test_snapshot_sorted_map_cross_interval;
        Alcotest.test_case "queue peek/length" `Quick test_snapshot_queue;
        Alcotest.test_case "sorted map pinned vs writers" `Quick
          test_snapshot_sorted_map_pinned_vs_writers;
        Alcotest.test_case "undo map pinned vs writers and aborts" `Quick
          test_snapshot_undo_map;
        Alcotest.test_case "multi-domain rows region- and abort-free" `Quick
          test_snapshot_rows_region_and_abort_free;
      ] );
    ( "snapshot.reclamation",
      [
        Alcotest.test_case "tvar chain property" `Quick
          test_tvar_reclamation_property;
        Alcotest.test_case "map shadow chain property" `Quick
          test_map_reclamation_property;
        Alcotest.test_case "chains bounded under traffic" `Quick
          test_chains_bounded_under_traffic;
        Alcotest.test_case "disjoint publishers' chains bounded" `Quick
          test_disjoint_publishers_chains_bounded;
        Alcotest.test_case "dead domains' epoch slots released" `Quick
          test_dead_domain_slots_released;
        Alcotest.test_case "snapshot commit allocation budget" `Quick
          test_snapshot_allocation_budget;
        Alcotest.test_case "in-place trim vs pinned readers" `Quick
          test_inplace_trim_race;
        Alcotest.test_case "8-tvar commit allocation budget" `Quick
          test_commit_8_tvars_allocation_budget;
      ] );
  ]
