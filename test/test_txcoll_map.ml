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

(* ---------------- key equality of the hashed classes ---------------- *)

(* The hash-map twin of txsorted.comparator: keys equal under the key
   module's [equal] are one key to the stripes, the store buffer and the
   semantic locks of Map, Set, Bag and the undo-logging map.  Under a
   case-insensitive key
   module, a binding put as "apple" is found as "APPLE", one transaction
   writing "pear" and "PEAR" leaves one binding, and a writer of "K"
   aborts a transaction that read "k".  Stripes, buffers and lock tables
   keyed by structural hashing lost all three. *)
module Ci_string = struct
  type t = string

  let hash s = Hashtbl.hash (String.lowercase_ascii s)
  let equal a b = String.equal (String.lowercase_ascii a) (String.lowercase_ascii b)
end

module CM = Txcoll.Host.Map (Ci_string)
module CS = Txcoll.Host.Set (Ci_string)
module CB = Txcoll.Host.Bag (Ci_string)
module CU = Txcoll.Host.Map_undo (Ci_string)

let fruits = [ "apple"; "pear"; "kiwi"; "plum"; "fig"; "lime"; "date"; "yuzu" ]

let test_equal_keys_found () =
  List.iter
    (fun k ->
      let up = String.uppercase_ascii k in
      let m = CM.create () in
      ignore (CM.put m k 1);
      Alcotest.(check (option int)) ("map finds " ^ up) (Some 1) (CM.find m up);
      let s = CS.create () in
      ignore (CS.add s k);
      Alcotest.(check bool) ("set has " ^ up) true (CS.mem s up);
      let b = CB.create () in
      CB.add b k;
      Alcotest.(check int) ("bag counts " ^ up) 1 (CB.count b up);
      let u = CU.create () in
      ignore (CU.put u k 1);
      Alcotest.(check (option int)) ("undo map finds " ^ up) (Some 1)
        (Stm.atomic (fun () -> CU.find u up)))
    fruits

let test_equal_keys_counted_once () =
  let m = CM.create () and s = CS.create () and b = CB.create () in
  let u = CU.create () in
  Stm.atomic (fun () ->
      List.iter
        (fun k ->
          ignore (CM.put m k 1);
          ignore (CM.put m (String.uppercase_ascii k) 2);
          ignore (CU.put u k 1);
          ignore (CU.put u (String.uppercase_ascii k) 2);
          ignore (CS.add s k);
          ignore (CS.add s (String.uppercase_ascii k));
          CB.add b k;
          CB.add b (String.uppercase_ascii k))
        fruits);
  let n = List.length fruits in
  Alcotest.(check int) "map size" n (CM.size m);
  Alcotest.(check (option int)) "map: last write wins" (Some 2)
    (CM.find m "pear");
  Alcotest.(check int) "set size" n (CS.size s);
  Alcotest.(check int) "bag elements" n (List.length (CB.to_list b));
  Alcotest.(check int) "bag multiplicity" 2 (CB.count b "Pear");
  Alcotest.(check int) "undo map size" n (CU.size u);
  Alcotest.(check (option int)) "undo map: last write wins" (Some 2)
    (CU.find u "pear");
  Alcotest.(check int) "undo map bindings" n (List.length (CU.to_list u));
  Alcotest.(check int) "undo map: no leaks" 0 (CU.outstanding_locks u)

let test_equal_keys_conflict () =
  let m = CM.create () and s = CS.create () and b = CB.create () in
  let u = CU.create () in
  ignore (CM.put m "k" 0);
  ignore (CU.put u "k" 0);
  List.iter
    (fun (label, reader, writer) ->
      Alcotest.(check int) (label ^ ": reader of k re-ran") 2
        (conflict_scenario ~reader ~writer))
    [
      ( "map",
        (fun () -> ignore (CM.find m "k")),
        fun () -> ignore (CM.put m "K" 1) );
      ( "set",
        (fun () -> ignore (CS.mem s "k")),
        fun () -> ignore (CS.add s "K") );
      ( "bag",
        (fun () -> ignore (CB.count b "k")),
        fun () -> CB.add b "K" );
      ( "undo map",
        (fun () -> ignore (CU.find u "k")),
        fun () -> ignore (CU.put u "K" 1) );
    ]

(* ---------------- undo-logging map ---------------- *)

(* A write outside a transaction waits out a transaction that has its key
   updated in place: were it to land first, that transaction's abort
   would write its prior back over it. *)
let test_undo_nontxn_write_waits_pending_writer () =
  let module UM = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed) in
  let u = UM.create () in
  ignore (UM.put u 0 0);
  let phase = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        try
          Stm.atomic (fun () ->
              ignore (UM.put u 0 1);
              if Atomic.get phase = 0 then Atomic.set phase 1;
              while Atomic.get phase < 2 do
                Domain.cpu_relax ()
              done;
              (* Give the write below time to land, were it not to wait. *)
              Unix.sleepf 0.02;
              Stm.self_abort ())
        with Stm.Aborted -> ())
  in
  while Atomic.get phase < 1 do
    Domain.cpu_relax ()
  done;
  Atomic.set phase 2;
  ignore (UM.put u 0 2);
  Domain.join writer;
  Alcotest.(check (option int)) "the later write survives the abort" (Some 2)
    (Stm.atomic (fun () -> UM.find u 0));
  Alcotest.(check (option int)) "and reads the same outside" (Some 2)
    (UM.find u 0);
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks u)

(* Two domains move units between keys of one undo map, one transaction
   in ten aborting after its in-place writes, while both check the total
   inside transactions and snapshots: a read or write that did not wait
   out another transaction's in-place write sees its uncommitted state,
   and a restored prior can overwrite a committed update. *)
let test_undo_transfers_keep_sum () =
  let module UM = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed) in
  let keys = 8 in
  let u = UM.create () in
  for k = 0 to keys - 1 do
    ignore (UM.put u k 100)
  done;
  let total = 100 * keys in
  let sum () = UM.fold (fun _ v acc -> acc + v) u 0 in
  let worker d () =
    let rng = Random.State.make [| d |] in
    let bad = ref 0 in
    for i = 1 to 1_000 do
      let a = Random.State.int rng keys and b = Random.State.int rng keys in
      (try
         Stm.atomic (fun () ->
             let take k f = ignore (UM.put u k (f (Option.get (UM.find u k)))) in
             take a pred;
             take b succ;
             if i mod 10 = 0 then Stm.self_abort ())
       with Stm.Aborted -> ());
      if i mod 5 = 0 then begin
        if Stm.atomic sum <> total then incr bad;
        if Stm.snapshot sum <> total then incr bad
      end
    done;
    !bad
  in
  let ds = List.init 2 (fun d -> Domain.spawn (worker d)) in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
  Alcotest.(check int) "sums that missed the total" 0 bad;
  Alcotest.(check int) "final total" total (sum ());
  Alcotest.(check int) "no leaks" 0 (UM.outstanding_locks u)

let suites =
  suites
  @ [
      ( "txmap.undo",
        [
          Alcotest.test_case "write outside waits out a pending writer"
            `Quick test_undo_nontxn_write_waits_pending_writer;
          Alcotest.test_case "transfers keep the sum" `Quick
            test_undo_transfers_keep_sum;
        ] );
      ( "txmap.key_equality",
        [
          Alcotest.test_case "equal keys found" `Quick test_equal_keys_found;
          Alcotest.test_case "equal keys counted once" `Quick
            test_equal_keys_counted_once;
          Alcotest.test_case "equal keys conflict" `Quick
            test_equal_keys_conflict;
        ] );
    ]
