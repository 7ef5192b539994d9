(* Direct tests of the semantic lock manager: acquisition/release balance,
   conflict targeting, range overlap, and a randomized consistency property
   against a reference model. *)

module L = struct
  include Txcoll.Semlock.Make (Tcc_stm.Stm.Tm_ops)

  let create ?stripes () = create ?stripes ~hash:Hashtbl.hash ~equal:Int.equal ()

  (* Range locks live in interval tables; one interval holds them all. *)
  let one_interval () = create_intervals ~splitters:[||] ~compare:Int.compare ()
end

module Stm = Tcc_stm.Stm

(* The facets of [L.locked_by] and [L.locker_count]. *)
type facet = Txcoll.Semlock.facet =
  | Keys
  | Size
  | Isempty
  | First
  | Last
  | Ranges

(* The lock table over a TM whose [remote_abort] records its victim
   instead of aborting it, so a conflict check's verdict is observable. *)
module Recording_tm = struct
  include Stm.Tm_ops

  let victims = ref []

  let remote_abort owner =
    victims := txn_id owner :: !victims;
    true
end

module RL = Txcoll.Semlock.Make (Recording_tm)

(* Fabricate distinct transaction handles.  [Stm.current] outside a
   transaction returns a per-domain cached auto-commit handle, and
   top-level descriptors are pooled per domain — a handle minted by a
   finished transaction on this domain would be recycled (with a fresh
   txn_id) by the next transaction here.  Minting in a throwaway domain
   pins the descriptor: its pool dies with the domain, so the handle's
   identity is stable, as it is for any live lock owner. *)
let handle () =
  Domain.join (Domain.spawn (fun () -> Stm.atomic (fun () -> Stm.current ())))

(* Read- and write-lock one key as [Derive] does: find its stripe, then
   register through the stripe-taking form. *)
let lock_key t txn k =
  ignore (L.lock_key_at t (L.stripe_index t k) txn ~copy:Fun.id k)

let lock_key_write t txn k =
  L.lock_key_write_at t (L.stripe_index t k) txn ~copy:Fun.id k

let test_acquire_release_balance () =
  let t : int L.t = L.one_interval () in
  let a = handle () and b = handle () in
  lock_key t a 1;
  lock_key t b 1;
  lock_key t a 2;
  L.lock_size t a;
  L.lock_range t b ~compare:Int.compare { L.lo = Some 0; hi = Some 10 };
  Alcotest.(check int) "five locks held" 5 (L.total_lockers t);
  L.release_all t a ~keys:[ 1; 2 ];
  Alcotest.(check int) "a's locks gone" 2 (L.total_lockers t);
  Alcotest.(check bool) "b still holds key 1" true (L.key_locked_by t b 1);
  L.release_all t b ~keys:[ 1 ];
  Alcotest.(check int) "empty" 0 (L.total_lockers t)

let test_idempotent_acquire () =
  let t : int L.t = L.create () in
  let a = handle () in
  lock_key t a 1;
  lock_key t a 1;
  L.lock_size t a;
  L.lock_size t a;
  Alcotest.(check int) "deduplicated" 2 (L.total_lockers t)

let test_range_overlap_semantics () =
  let t : int L.t = L.one_interval () in
  let a = handle () in
  L.lock_range t a ~compare:Int.compare { L.lo = Some 10; hi = Some 20 };
  let contains k = L.range_contains Int.compare { L.lo = Some 10; hi = Some 20 } k in
  Alcotest.(check bool) "lo inclusive" true (contains 10);
  Alcotest.(check bool) "hi exclusive" false (contains 20);
  Alcotest.(check bool) "inside" true (contains 15);
  Alcotest.(check bool) "below" false (contains 9);
  let unbounded = { L.lo = None; hi = None } in
  Alcotest.(check bool) "unbounded contains all" true
    (L.range_contains Int.compare unbounded min_int)

let test_writer_entry () =
  let t : int L.t = L.create () in
  let a = handle () and b = handle () in
  let si = L.stripe_index t 5 in
  lock_key_write t a 5;
  Alcotest.(check bool) "writer recorded" true (L.key_writer_at t si 5 <> None);
  Alcotest.(check bool) "writer counts as locked_by" true (L.key_locked_by t a 5);
  Alcotest.(check bool) "not for others" false (L.key_locked_by t b 5);
  L.release_all t a ~keys:[ 5 ];
  Alcotest.(check bool) "writer released" true (L.key_writer_at t si 5 = None);
  Alcotest.(check int) "table empty" 0 (L.total_lockers t)

(* Regression: a second transaction write-locking the same key must not
   displace the first — both stay registered, so the displaced writer's
   write-write conflict is still visible at commit time (the pre-fix code
   silently deregistered the first writer). *)
let test_multiple_writers_tracked () =
  let t : int L.t = L.create () in
  let a = handle () and b = handle () in
  let si = L.stripe_index t 5 in
  lock_key_write t a 5;
  lock_key_write t b 5;
  Alcotest.(check int) "both writers registered" 2 (L.total_lockers t);
  Alcotest.(check bool) "a still locked_by" true (L.key_locked_by t a 5);
  Alcotest.(check bool) "b locked_by" true (L.key_locked_by t b 5);
  Alcotest.(check bool) "a sees a foreign writer" true
    (L.key_has_foreign_writer_at t si ~self:a 5);
  Alcotest.(check bool) "b sees a foreign writer" true
    (L.key_has_foreign_writer_at t si ~self:b 5);
  (* Releasing b must leave a's write lock intact (pre-fix, a's entry was
     already gone and the table leaked b's writer count instead). *)
  L.release_all t b ~keys:[ 5 ];
  Alcotest.(check bool) "a survives b's release" true (L.key_locked_by t a 5);
  Alcotest.(check bool) "a is the remaining writer" true
    (L.key_writer_at t si 5 <> None);
  Alcotest.(check bool) "no foreign writer for a now" false
    (L.key_has_foreign_writer_at t si ~self:a 5);
  L.release_all t a ~keys:[ 5 ];
  Alcotest.(check int) "table empty" 0 (L.total_lockers t);
  Alcotest.(check int) "no key entries leak" 0 (L.locker_count t Keys)

(* One probe pair reads every facet: [locked_by] per owner (keys are
   probed one at a time, by [key_locked_by]), and [locker_count] as key
   entries, coalesced ranges or structural owners. *)
let test_facet_introspection () =
  let t : int L.t = L.one_interval () in
  let a = handle () and b = handle () in
  lock_key t a 1;
  lock_key t b 1;
  lock_key t b 2;
  L.lock_size t a;
  L.lock_isempty t b;
  L.lock_first t a;
  L.lock_first t b;
  L.lock_last t b;
  L.lock_range t a ~compare:Int.compare { L.lo = Some 0; hi = Some 5 };
  let facets = [ Keys; Size; Isempty; First; Last; Ranges ] in
  let held owner = List.filter (L.locked_by t owner) (List.tl facets) in
  Alcotest.(check int) "a's facets" 3 (List.length (held a));
  Alcotest.(check bool) "a: no isEmpty" false (L.locked_by t a Isempty);
  Alcotest.(check bool) "b: no range" false (L.locked_by t b Ranges);
  Alcotest.(check (list int)) "counts" [ 2; 1; 1; 2; 1; 1 ]
    (List.map (L.locker_count t) facets);
  L.release_all t a ~keys:[ 1 ];
  L.release_all t b ~keys:[ 1; 2 ];
  Alcotest.(check (list int)) "released" [ 0; 0; 0; 0; 0; 0 ]
    (List.map (L.locker_count t) facets)

let test_range_coalescing () =
  let t : int L.t = L.one_interval () in
  let a = handle () and b = handle () in
  let lock owner r = L.lock_range t owner ~compare:Int.compare r in
  (* Duplicate and overlapping ranges collapse into one entry. *)
  lock a { L.lo = Some 0; hi = Some 10 };
  lock a { L.lo = Some 0; hi = Some 10 };
  lock a { L.lo = Some 5; hi = Some 15 };
  Alcotest.(check int) "duplicates+overlaps coalesce" 1
    (L.locker_count t Ranges);
  (* Adjacent half-open ranges ([10,20) after [0,15)->[0,15)) merge too. *)
  lock a { L.lo = Some 15; hi = Some 20 };
  Alcotest.(check int) "adjacent ranges merge" 1 (L.locker_count t Ranges);
  Alcotest.(check bool) "merged range covers the union" true
    (L.range_contains Int.compare { L.lo = Some 0; hi = Some 20 } 17);
  (* A separated range stays its own entry... *)
  lock a { L.lo = Some 100; hi = Some 110 };
  Alcotest.(check int) "gap keeps two entries" 2 (L.locker_count t Ranges);
  (* ...until a bridging range connects everything (one pass must absorb
     both existing entries). *)
  lock a { L.lo = Some 10; hi = Some 105 };
  Alcotest.(check int) "bridge collapses to one" 1 (L.locker_count t Ranges);
  (* Unbounded swallows everything. *)
  lock a { L.lo = None; hi = None };
  Alcotest.(check int) "unbounded coalesces" 1 (L.locker_count t Ranges);
  (* Per-owner isolation: another owner's range is a separate entry. *)
  lock b { L.lo = Some 0; hi = Some 1 };
  Alcotest.(check int) "per-owner entries" 2 (L.locker_count t Ranges);
  L.release_all t a ~keys:[];
  L.release_all t b ~keys:[];
  Alcotest.(check int) "released" 0 (L.locker_count t Ranges)

let test_striped_geometry () =
  let t : int L.t = L.create ~stripes:4 () in
  Alcotest.(check int) "stripe count" 4 (L.stripe_count t);
  for k = 0 to 100 do
    let i = L.stripe_index t k in
    Alcotest.(check bool) "index in range" true (i >= 0 && i < 4)
  done;
  (* Lock bookkeeping is unchanged by striping. *)
  let a = handle () and b = handle () in
  lock_key t a 1;
  lock_key t b 1;
  lock_key t a 2;
  L.lock_size t a;
  Alcotest.(check int) "four locks held" 4 (L.total_lockers t);
  Alcotest.(check bool) "a holds key 1" true (L.key_locked_by t a 1);
  L.release_all t a ~keys:[ 1; 2 ];
  Alcotest.(check int) "b's lock remains" 1 (L.total_lockers t);
  L.release_all t b ~keys:[ 1 ];
  Alcotest.(check int) "empty" 0 (L.total_lockers t);
  (* K = 1 shares the structure region with its only stripe; K > 1 has
     distinct regions per stripe. *)
  let t1 : int L.t = L.create ~stripes:1 () in
  Alcotest.(check bool) "K=1 stripe region is the struct region" true
    (L.stripe_region t1 0 == L.struct_region t1);
  Alcotest.(check bool) "K>1 stripes are distinct regions" true
    (L.stripe_region t 0 != L.stripe_region t 1)

let test_interval_geometry () =
  (* Splitters arrive unsorted with duplicates: table sorts/dedups to
     [10; 20; 30] = 4 intervals. *)
  let t : int L.t =
    L.create_intervals ~splitters:[| 30; 10; 20; 20 |] ~compare:Int.compare ()
  in
  Alcotest.(check int) "four intervals" 4 (L.stripe_count t);
  Alcotest.(check int) "below first splitter" 0 (L.stripe_index t 9);
  Alcotest.(check int) "splitter starts its interval" 1 (L.stripe_index t 10);
  Alcotest.(check int) "mid interval" 2 (L.stripe_index t 25);
  Alcotest.(check int) "last splitter" 3 (L.stripe_index t 30);
  Alcotest.(check int) "unbounded top" 3 (L.stripe_index t 1000);
  let span lo hi = L.interval_span t ~lo ~hi in
  Alcotest.(check (pair int int)) "unbounded span" (0, 3) (span None None);
  Alcotest.(check (pair int int)) "inside one" (1, 1) (span (Some 12) (Some 18));
  Alcotest.(check (pair int int)) "boundary-aligned stays inside" (1, 1)
    (span (Some 10) (Some 20));
  Alcotest.(check (pair int int)) "crossing" (0, 2) (span (Some 5) (Some 21));
  Alcotest.(check (pair int int)) "unbounded hi hits the edge" (2, 3)
    (span (Some 20) None);
  Alcotest.(check (pair int int)) "empty range clamps to one stripe" (2, 2)
    (span (Some 25) (Some 5));
  let t1 : int L.t = L.create_intervals ~splitters:[||] ~compare:Int.compare () in
  Alcotest.(check bool) "B=1 stripe region is the struct region" true
    (L.stripe_region t1 0 == L.struct_region t1)

(* Under coalescing, [conflict_range_at] must pick the owner of the
   registered ranges as its abort victim for exactly the keys the raw
   fragments cover: identical coverage means identical abort verdicts.
   And the registered count must return to zero after each lock/release
   cycle (no drift), on one interval and on four. *)
let prop_range_coalescing_exact =
  QCheck.Test.make ~name:"coalesced ranges match raw-fragment verdicts"
    ~count:80
    QCheck.(list (pair (option (int_bound 100)) (option (int_bound 100))))
    (fun script ->
      let tables : (string * int RL.t) list =
        [
          ( "one interval",
            RL.create_intervals ~splitters:[||] ~compare:Int.compare () );
          ( "intervals",
            RL.create_intervals ~splitters:[| 25; 50; 75 |] ~compare:Int.compare
              () );
        ]
      in
      let a = handle () and b = handle () in
      let raw = List.map (fun (lo, hi) -> { RL.lo; hi }) script in
      let covered t k =
        Recording_tm.victims := [];
        RL.conflict_range_at t (RL.stripe_index t k) ~self:b
          ~compare:Int.compare k;
        List.mem (Stm.txn_id a) !Recording_tm.victims
      in
      List.for_all
        (fun (_name, t) ->
          let ok = ref true in
          (* Two cycles: counts must not drift across lock/release. *)
          for _cycle = 1 to 2 do
            List.iter (fun r -> RL.lock_range t a ~compare:Int.compare r) raw;
            for k = -2 to 102 do
              let expected =
                List.exists (fun r -> RL.range_contains Int.compare r k) raw
              in
              if covered t k <> expected then ok := false
            done;
            RL.release_all t a ~keys:[];
            if RL.locker_count t Ranges <> 0 then ok := false
          done;
          !ok)
        tables)

let prop_model_consistency =
  QCheck.Test.make ~name:"lock table agrees with reference model" ~count:150
    QCheck.(list (triple (int_bound 3) (int_bound 7) bool))
    (fun script ->
      let t : int L.t = L.create () in
      let owners = Array.init 4 (fun _ -> handle ()) in
      (* model: (owner_index, key) set for key locks *)
      let model = Hashtbl.create 16 in
      List.iter
        (fun (o, k, acquire) ->
          if acquire then begin
            lock_key t owners.(o) k;
            Hashtbl.replace model (o, k) ()
          end
          else begin
            (* release everything owner [o] holds *)
            let keys =
              Hashtbl.fold
                (fun (o', k') () acc -> if o' = o then k' :: acc else acc)
                model []
            in
            L.release_all t owners.(o) ~keys;
            List.iter (fun k' -> Hashtbl.remove model (o, k')) keys
          end)
        script;
      Hashtbl.length model = L.total_lockers t
      && Hashtbl.fold
           (fun (o, k) () ok -> ok && L.key_locked_by t owners.(o) k)
           model true)

let suites =
  [
    ( "semlock",
      [
        Alcotest.test_case "acquire/release balance" `Quick
          test_acquire_release_balance;
        Alcotest.test_case "idempotent acquire" `Quick test_idempotent_acquire;
        Alcotest.test_case "range semantics" `Quick test_range_overlap_semantics;
        Alcotest.test_case "range coalescing" `Quick test_range_coalescing;
        Alcotest.test_case "striped geometry" `Quick test_striped_geometry;
        Alcotest.test_case "interval geometry" `Quick test_interval_geometry;
        Alcotest.test_case "writer entries" `Quick test_writer_entry;
        Alcotest.test_case "multiple writers tracked" `Quick
          test_multiple_writers_tracked;
        Alcotest.test_case "facet introspection" `Quick
          test_facet_introspection;
        QCheck_alcotest.to_alcotest prop_range_coalescing_exact;
        QCheck_alcotest.to_alcotest prop_model_consistency;
      ] );
  ]
