(* Tests for TransactionalMap over the host STM. *)

module Stm = Tcc_stm.Stm
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

(* Two-domain conflict scenario: [reader] runs inside a transaction and
   takes semantic locks, then [writer] commits in another domain; we return
   how many attempts the reader needed (1 = no semantic conflict, 2 = it was
   aborted and retried). *)
let conflict_scenario ~reader ~writer =
  let phase = Atomic.make 0 in
  let signal n = if Atomic.get phase < n then Atomic.set phase n in
  let await n =
    while Atomic.get phase < n do
      Domain.cpu_relax ()
    done
  in
  let attempts = ref 0 in
  let d1 =
    Domain.spawn (fun () ->
        Stm.atomic (fun () ->
            incr attempts;
            reader ();
            signal 1;
            if !attempts = 1 then await 2))
  in
  let d2 =
    Domain.spawn (fun () ->
        await 1;
        Stm.atomic writer;
        signal 2)
  in
  Domain.join d1;
  Domain.join d2;
  !attempts

let test_compose_and_commit () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      ignore (IM.put m 1 "one");
      ignore (IM.put m 2 "two");
      Alcotest.(check (option string)) "read own write" (Some "one") (IM.find m 1);
      Alcotest.(check int) "size sees buffer" 2 (IM.size m));
  Alcotest.(check (option string)) "committed" (Some "two") (IM.find m 2);
  Alcotest.(check int) "size committed" 2 (IM.size m);
  Alcotest.(check int) "no lock leak" 0 (IM.outstanding_locks m)

let test_abort_discards_buffer () =
  let m = IM.create () in
  ignore (IM.put m 1 "committed");
  (try
     Stm.atomic (fun () ->
         ignore (IM.put m 1 "doomed");
         ignore (IM.put m 2 "also doomed");
         ignore (IM.remove m 1);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check (option string)) "overwrite rolled back" (Some "committed")
    (IM.find m 1);
  Alcotest.(check (option string)) "insert rolled back" None (IM.find m 2);
  Alcotest.(check int) "size intact" 1 (IM.size m);
  Alcotest.(check int) "locks released by abort handler" 0 (IM.outstanding_locks m)

let test_remove_then_get () =
  let m = IM.create () in
  ignore (IM.put m 7 "x");
  Stm.atomic (fun () ->
      ignore (IM.remove m 7);
      Alcotest.(check (option string)) "own remove visible" None (IM.find m 7);
      Alcotest.(check int) "size reflects remove" 0 (IM.size m);
      ignore (IM.put m 7 "y");
      Alcotest.(check (option string)) "re-put visible" (Some "y") (IM.find m 7));
  Alcotest.(check (option string)) "final" (Some "y") (IM.find m 7)

let test_put_returns_old () =
  let m = IM.create () in
  ignore (IM.put m 1 "a");
  Stm.atomic (fun () ->
      Alcotest.(check (option string)) "old committed value" (Some "a")
        (IM.put m 1 "b");
      Alcotest.(check (option string)) "old buffered value" (Some "b")
        (IM.put m 1 "c");
      Alcotest.(check (option string)) "remove returns current" (Some "c")
        (IM.remove m 1);
      Alcotest.(check (option string)) "put after remove" None (IM.put m 1 "d"))

(* ---------------- Table 2 lock footprints ---------------- *)

let test_lock_footprint_get () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      ignore (IM.find m 5);
      Alcotest.(check bool) "get takes key lock" true (IM.holds_key_lock m 5);
      Alcotest.(check bool) "get takes no size lock" false (IM.holds_size_lock m));
  Alcotest.(check int) "released after commit" 0 (IM.outstanding_locks m)

let test_lock_footprint_size () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      ignore (IM.size m);
      Alcotest.(check bool) "size takes size lock" true (IM.holds_size_lock m))

let test_lock_footprint_put_vs_blind () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      ignore (IM.put m 1 "x");
      Alcotest.(check bool) "put takes key lock" true (IM.holds_key_lock m 1);
      IM.put_blind m 2 "y";
      Alcotest.(check bool) "blind put takes no key lock" false
        (IM.holds_key_lock m 2))

let test_lock_footprint_isempty () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      ignore (IM.is_empty m);
      Alcotest.(check bool) "dedicated isEmpty lock" true
        (IM.holds_isempty_lock m);
      Alcotest.(check bool) "no size lock" false (IM.holds_size_lock m));
  let m' = IM.create ~isempty_policy:IM.Via_size () in
  Stm.atomic (fun () ->
      ignore (IM.is_empty m');
      Alcotest.(check bool) "via-size policy takes size lock" true
        (IM.holds_size_lock m'))

(* ---------------- semantic conflicts (two domains) ---------------- *)

let test_conflict_get_vs_put_same_key () =
  let m = IM.create () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.find m 1))
      ~writer:(fun () -> ignore (IM.put m 1 "w"))
  in
  Alcotest.(check int) "reader aborted once" 2 n

let test_no_conflict_disjoint_keys () =
  let m = IM.create () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.find m 1))
      ~writer:(fun () -> ignore (IM.put m 2 "w"))
  in
  Alcotest.(check int) "no abort" 1 n

let test_conflict_size_vs_insert () =
  let m = IM.create () in
  ignore (IM.put m 50 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.size m))
      ~writer:(fun () -> ignore (IM.put m 1 "new key grows size"))
  in
  Alcotest.(check int) "size reader aborted" 2 n

let test_no_conflict_size_vs_overwrite () =
  let m = IM.create () in
  ignore (IM.put m 50 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.size m))
      ~writer:(fun () -> ignore (IM.put m 50 "overwrite, same size"))
  in
  (* The overwrite writes key 50, which the size reader never locked. *)
  Alcotest.(check int) "size reader survives overwrite" 1 n

let test_isempty_dedicated_no_transition_no_conflict () =
  (* §5.1: "if (!map.isEmpty()) map.put(key, value)" — two such transactions
     on different keys should commute with a dedicated isEmpty lock. *)
  let m = IM.create () in
  ignore (IM.put m 99 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.is_empty m))
      ~writer:(fun () -> ignore (IM.put m 1 "no emptiness transition"))
  in
  Alcotest.(check int) "isEmpty reader survives" 1 n

let test_isempty_via_size_conflicts () =
  let m = IM.create ~isempty_policy:IM.Via_size () in
  ignore (IM.put m 99 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.is_empty m))
      ~writer:(fun () -> ignore (IM.put m 1 "size change"))
  in
  Alcotest.(check int) "via-size reader aborted" 2 n

let test_isempty_transition_conflicts () =
  let m = IM.create () in
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.is_empty m))
      ~writer:(fun () -> ignore (IM.put m 1 "empty -> non-empty"))
  in
  Alcotest.(check int) "transition aborts isEmpty reader" 2 n

let test_blind_puts_do_not_conflict () =
  let m = IM.create () in
  ignore (IM.put m 1 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> IM.put_blind m 1 "mine")
      ~writer:(fun () -> IM.put_blind m 1 "theirs")
  in
  (* The "LastModified" example: two blind writers of the same existing key
     need no ordering. *)
  Alcotest.(check int) "no ordering between blind writers" 1 n

let test_regular_puts_same_key_conflict () =
  let m = IM.create () in
  ignore (IM.put m 1 "seed");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.put m 1 "mine"))
      ~writer:(fun () -> ignore (IM.put m 1 "theirs"))
  in
  Alcotest.(check int) "value-returning puts are ordered" 2 n

let test_iteration_conflicts_with_insert () =
  let m = IM.create () in
  ignore (IM.put m 10 "a");
  ignore (IM.put m 20 "b");
  let n =
    conflict_scenario
      ~reader:(fun () -> ignore (IM.to_list m))
      ~writer:(fun () -> ignore (IM.put m 30 "new"))
  in
  Alcotest.(check int) "full enumeration aborted by insert" 2 n

(* ---------------- serializability end-to-end ---------------- *)

let test_write_skew_prevented () =
  (* T1: if mem k2 then remove k1;  T2: if mem k1 then remove k2.
     Serial outcomes leave at least one key present; write skew would remove
     both. *)
  for _ = 1 to 20 do
    let m = IM.create () in
    ignore (IM.put m 1 "a");
    ignore (IM.put m 2 "b");
    let body this other () =
      Stm.atomic (fun () ->
          if IM.mem m other then ignore (IM.remove m this))
    in
    let d1 = Domain.spawn (body 1 2) and d2 = Domain.spawn (body 2 1) in
    Domain.join d1;
    Domain.join d2;
    Alcotest.(check bool) "not both removed" true (IM.mem m 1 || IM.mem m 2)
  done

let test_empty_check_then_put_race () =
  (* Two "if empty then put" transactions: exactly one insert must win. *)
  for _ = 1 to 20 do
    let m = IM.create () in
    let body k () =
      Stm.atomic (fun () -> if IM.is_empty m then ignore (IM.put m k "winner"))
    in
    let d1 = Domain.spawn (body 1) and d2 = Domain.spawn (body 2) in
    Domain.join d1;
    Domain.join d2;
    Alcotest.(check int) "exactly one winner" 1 (IM.size m)
  done

let test_parallel_disjoint_inserts_scale_correctly () =
  let m = IM.create () in
  let worker base () =
    for i = 0 to 199 do
      Stm.atomic (fun () -> ignore (IM.put m (base + i) "v"))
    done
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 10_000) ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "all inserts present" 400 (IM.size m);
  Alcotest.(check int) "no stale locks" 0 (IM.outstanding_locks m)

(* ---------------- property tests ---------------- *)

type op = Put of int * int | PutBlind of int * int | Remove of int | Find of int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Put (k mod 16, v)) small_nat small_int);
        (2, map2 (fun k v -> PutBlind (k mod 16, v)) small_nat small_int);
        (2, map (fun k -> Remove (k mod 16)) small_nat);
        (3, map (fun k -> Find (k mod 16)) small_nat);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | Put (k, v) -> Printf.sprintf "put(%d,%d)" k v
             | PutBlind (k, v) -> Printf.sprintf "putb(%d,%d)" k v
             | Remove k -> Printf.sprintf "rm(%d)" k
             | Find k -> Printf.sprintf "get(%d)" k)
           l))
    QCheck.Gen.(list_size (int_bound 60) gen_op)

module IntMap = Map.Make (Int)

let apply_model model = function
  | Put (k, v) | PutBlind (k, v) -> IntMap.add k v model
  | Remove k -> IntMap.remove k model
  | Find _ -> model

let map_matches_model m model =
  IM.size m = IntMap.cardinal model
  && IntMap.for_all (fun k v -> IM.find m k = Some v) model

module IIM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let prop_committed_txn_equals_model =
  QCheck.Test.make ~name:"one committed transaction applies all buffered ops"
    ~count:100 arb_ops (fun ops ->
      let m = IIM.create () in
      let model = ref IntMap.empty in
      Stm.atomic (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Put (k, v) -> ignore (IIM.put m k v)
              | PutBlind (k, v) -> IIM.put_blind m k v
              | Remove k -> ignore (IIM.remove m k)
              | Find k -> ignore (IIM.find m k));
              model := apply_model !model op)
            ops);
      IIM.size m = IntMap.cardinal !model
      && IntMap.for_all (fun k v -> IIM.find m k = Some v) !model
      && IIM.outstanding_locks m = 0)

let prop_aborted_txn_is_noop =
  QCheck.Test.make ~name:"aborted transaction leaves no trace" ~count:100
    arb_ops (fun ops ->
      let m = IIM.create () in
      ignore (IIM.put m 3 111);
      ignore (IIM.put m 8 222);
      (try
         Stm.atomic (fun () ->
             List.iter
               (fun op ->
                 match op with
                 | Put (k, v) -> ignore (IIM.put m k v)
                 | PutBlind (k, v) -> IIM.put_blind m k v
                 | Remove k -> ignore (IIM.remove m k)
                 | Find k -> ignore (IIM.find m k))
               ops;
             Stm.self_abort ())
       with Stm.Aborted -> ());
      IIM.find m 3 = Some 111
      && IIM.find m 8 = Some 222
      && IIM.size m = 2
      && IIM.outstanding_locks m = 0)

let prop_reads_inside_txn_consistent =
  QCheck.Test.make ~name:"reads merge buffer over committed state" ~count:100
    arb_ops (fun ops ->
      let m = IIM.create () in
      ignore (IIM.put m 0 42);
      let model = ref (IntMap.singleton 0 42) in
      let ok = ref true in
      Stm.atomic (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Put (k, v) -> ignore (IIM.put m k v)
              | PutBlind (k, v) -> IIM.put_blind m k v
              | Remove k -> ignore (IIM.remove m k)
              | Find k ->
                  if IIM.find m k <> IntMap.find_opt k !model then ok := false);
              model := apply_model !model op)
            ops;
          if IIM.size m <> IntMap.cardinal !model then ok := false);
      !ok)

let _ = map_matches_model

(* ---------------- aborted open-nested attempts ---------------- *)

(* An open-nested attempt that aborts releases the semantic locks its map
   operations took: they were taken in critical sections, which no abort
   rolls back.  The program handlers its body registered are discarded
   (paper §4).  Conflict path: another domain overwrites a tvar the open
   attempt read, so its commit validation fails and it retries. *)
let test_open_nested_conflict_releases_locks () =
  let m = IM.create () in
  let probe = Tcc_stm.Tvar.make 0 in
  let attempts = ref 0 and compensations = ref 0 in
  Stm.atomic (fun () ->
      Stm.open_nested (fun () ->
          incr attempts;
          ignore (Tcc_stm.Tvar.get probe);
          ignore (IM.put m 1 !attempts);
          Stm.on_abort (fun () -> incr compensations);
          if !attempts = 1 then
            Domain.join (Domain.spawn (fun () -> Tcc_stm.Tvar.set probe 1))));
  Alcotest.(check int) "open attempt retried" 2 !attempts;
  Alcotest.(check int) "aborted attempt's own handler discarded" 0
    !compensations;
  Alcotest.(check int) "locks released" 0 (IM.outstanding_locks m);
  Alcotest.(check (option int)) "retry's write applied" (Some 2) (IM.find m 1)

(* Exception path: the open body raises, the outer transaction catches it
   and commits.  The aborted attempt's locks are released and its buffered
   write is dropped — including what an inner open transaction, which
   committed into it, handed over. *)
let test_open_nested_exception_releases_locks () =
  let m = IM.create () in
  let compensations = ref 0 in
  Stm.atomic (fun () ->
      try
        Stm.open_nested (fun () ->
            ignore (IM.put m 2 2);
            Stm.open_nested (fun () -> ignore (IM.put m 3 3));
            Stm.on_abort (fun () -> incr compensations);
            failwith "open body failed")
      with Failure _ -> ());
  Alcotest.(check int) "aborted attempt's own handler discarded" 0
    !compensations;
  Alcotest.(check int) "locks released" 0 (IM.outstanding_locks m);
  Alcotest.(check (option int)) "write dropped" None (IM.find m 2);
  Alcotest.(check (option int)) "inner open's write dropped" None (IM.find m 3)

let suites =
  [
    ( "txmap.single",
      [
        Alcotest.test_case "compose and commit" `Quick test_compose_and_commit;
        Alcotest.test_case "abort discards buffer" `Quick
          test_abort_discards_buffer;
        Alcotest.test_case "remove then get" `Quick test_remove_then_get;
        Alcotest.test_case "put returns old" `Quick test_put_returns_old;
      ] );
    ( "txmap.locks",
      [
        Alcotest.test_case "get footprint" `Quick test_lock_footprint_get;
        Alcotest.test_case "size footprint" `Quick test_lock_footprint_size;
        Alcotest.test_case "put vs blind put" `Quick
          test_lock_footprint_put_vs_blind;
        Alcotest.test_case "isEmpty policies" `Quick test_lock_footprint_isempty;
      ] );
    ( "txmap.conflicts",
      [
        Alcotest.test_case "get vs put same key" `Quick
          test_conflict_get_vs_put_same_key;
        Alcotest.test_case "disjoint keys commute" `Quick
          test_no_conflict_disjoint_keys;
        Alcotest.test_case "size vs insert" `Quick test_conflict_size_vs_insert;
        Alcotest.test_case "size vs overwrite" `Quick
          test_no_conflict_size_vs_overwrite;
        Alcotest.test_case "isEmpty dedicated lock commutes" `Quick
          test_isempty_dedicated_no_transition_no_conflict;
        Alcotest.test_case "isEmpty via size conflicts" `Quick
          test_isempty_via_size_conflicts;
        Alcotest.test_case "isEmpty transition conflicts" `Quick
          test_isempty_transition_conflicts;
        Alcotest.test_case "blind puts commute" `Quick
          test_blind_puts_do_not_conflict;
        Alcotest.test_case "regular puts conflict" `Quick
          test_regular_puts_same_key_conflict;
        Alcotest.test_case "enumeration vs insert" `Quick
          test_iteration_conflicts_with_insert;
      ] );
    ( "txmap.serializability",
      [
        Alcotest.test_case "write skew prevented" `Quick test_write_skew_prevented;
        Alcotest.test_case "empty-check-then-put race" `Quick
          test_empty_check_then_put_race;
        Alcotest.test_case "parallel disjoint inserts" `Quick
          test_parallel_disjoint_inserts_scale_correctly;
      ] );
    ( "txmap.open_nested",
      [
        Alcotest.test_case "conflict retry releases locks" `Quick
          test_open_nested_conflict_releases_locks;
        Alcotest.test_case "exception releases locks" `Quick
          test_open_nested_exception_releases_locks;
      ] );
    ( "txmap.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_committed_txn_equals_model;
          prop_aborted_txn_is_noop;
          prop_reads_inside_txn_consistent;
        ] );
  ]
