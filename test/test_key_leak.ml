(* §5.1 "Leaking uncommitted data": keys inserted into the shared semantic
   lock table are visible to other transactions; if the key object is
   mutable (or not yet committed), that is a leak — and mutation after the
   operation corrupts the hash-table placement of the lock entry.  The
   [copy_key] option stores an independent committed copy instead. *)

module Stm = Tcc_stm.Stm

(* A deliberately mutable key type, hashed by contents. *)
module Ref_key = struct
  type t = string ref

  let hash r = Hashtbl.hash !r
  let equal a b = !a = !b
end

module RM = Txcoll.Transactional_map.Make (Tcc_stm.Stm.Tm_ops) (Ref_key)

let test_mutable_key_without_copy_leaks () =
  let m = RM.create () in
  let k = ref "alpha" in
  Stm.atomic (fun () ->
      ignore (RM.put m k 1);
      (* The client mutates the key object before commit: the lock-table
         entry was hashed under "alpha" and can no longer be found for
         release. *)
      k := "beta");
  Alcotest.(check bool) "lock entry stranded" true (RM.outstanding_locks m > 0)

let test_mutable_key_with_copy_is_safe () =
  let m = RM.create ~copy_key:(fun r -> ref !r) () in
  let k = ref "alpha" in
  Stm.atomic (fun () ->
      ignore (RM.put m k 1);
      k := "beta");
  Alcotest.(check int) "no stranded locks" 0 (RM.outstanding_locks m);
  (* The map binding itself is under the caller's control (the committed
     shadow stores the original key, as java.util.HashMap would); only the
     lock table is protected. *)
  Alcotest.(check (option int)) "binding reachable under mutated content"
    (Some 1)
    (RM.find m (ref "beta"))

let test_copy_key_conflicts_still_detected () =
  (* Copies must still collide with equal keys from other transactions. *)
  let m = RM.create ~copy_key:(fun r -> ref !r) () in
  ignore (RM.put m (ref "shared") 0);
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
            ignore (RM.find m (ref "shared"));
            signal 1;
            if !attempts = 1 then await 2))
  in
  let d2 =
    Domain.spawn (fun () ->
        await 1;
        Stm.atomic (fun () -> ignore (RM.put m (ref "shared") 9));
        signal 2)
  in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "conflict detected through copies" 2 !attempts

(* A key object mutated between its operation and the commit is keyed
   where the commit finds it: the commit plan takes the region of the
   interval the buffered key now falls in, the one apply binds it in. *)
module Ref_ordered = struct
  type t = string ref

  let compare a b = String.compare !a !b
end

module RSM =
  Txcoll.Transactional_sorted_map.Make (Tcc_stm.Stm.Tm_ops) (Ref_ordered)

let test_commit_plan_follows_mutated_key () =
  let m = RSM.create ~splitters:[ ref "m" ] ~copy_key:(fun r -> ref !r) () in
  let k = ref "alpha" in
  let plan = ref 0 in
  Stm.atomic (fun () ->
      ignore (RSM.put m k 1);
      k := "zulu";
      plan := RSM.commit_plan_size m);
  Alcotest.(check int) "plan holds both intervals and the structure"
    (RSM.all_region_count m) !plan;
  Alcotest.(check int) "no stranded locks" 0 (RSM.outstanding_locks m);
  Alcotest.(check (option int)) "bound under the mutated content" (Some 1)
    (RSM.find m (ref "zulu"))

let suites =
  [
    ( "key-leak",
      [
        Alcotest.test_case "mutable key without copy leaks" `Quick
          test_mutable_key_without_copy_leaks;
        Alcotest.test_case "copy_key prevents the leak" `Quick
          test_mutable_key_with_copy_is_safe;
        Alcotest.test_case "conflicts preserved through copies" `Quick
          test_copy_key_conflicts_still_detected;
        Alcotest.test_case "commit plan follows a mutated key" `Quick
          test_commit_plan_follows_mutated_key;
      ] );
  ]
