(* One shared test suite, two update disciplines: the map's spec derived
   with eager conflict detection (the undo-logging map) and with lazy,
   commit-time detection (the redo map).  Both keep their committed state
   in the same persistent shadows, so the suite checks that the discipline
   changes when conflicts surface, never what a transaction observes.  The
   sorted suite runs against the sorted map, whose shadows are ordered by
   the comparator. *)

module Stm = Tcc_stm.Stm

(* ---------------- shared wrapper suite ---------------- *)

module type WRAPPED_MAP = sig
  type 'v t

  val create : unit -> 'v t
  val find : 'v t -> int -> 'v option
  val put : 'v t -> int -> 'v -> 'v option
  val remove : 'v t -> int -> 'v option
  val size : 'v t -> int
  val outstanding_locks : 'v t -> int
end

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

module Map_suite (Name : sig
  val name : string
end)
(M : WRAPPED_MAP) =
struct
  let test_compose () =
    let m = M.create () in
    Stm.atomic (fun () ->
        ignore (M.put m 1 "a");
        ignore (M.put m 2 "b");
        Alcotest.(check (option string)) "own write" (Some "a") (M.find m 1));
    Alcotest.(check int) "committed" 2 (M.size m);
    Alcotest.(check int) "no leaks" 0 (M.outstanding_locks m)

  let test_abort () =
    let m = M.create () in
    ignore (M.put m 1 "keep");
    (try
       Stm.atomic (fun () ->
           ignore (M.put m 1 "drop");
           ignore (M.remove m 1);
           ignore (M.put m 9 "drop");
           Stm.self_abort ())
     with Stm.Aborted -> ());
    Alcotest.(check (option string)) "unchanged" (Some "keep") (M.find m 1);
    Alcotest.(check int) "size" 1 (M.size m)

  let test_conflict () =
    let m = M.create () in
    ignore (M.put m 5 "x");
    let n =
      conflict_scenario
        ~reader:(fun () -> ignore (M.find m 5))
        ~writer:(fun () -> ignore (M.put m 5 "y"))
    in
    Alcotest.(check int) "same-key conflict" 2 n;
    let n' =
      conflict_scenario
        ~reader:(fun () -> ignore (M.find m 5))
        ~writer:(fun () -> ignore (M.put m 6 "z"))
    in
    Alcotest.(check int) "disjoint keys commute" 1 n'

  let test_parallel_model () =
    let m = M.create () in
    let worker base () =
      for i = 0 to 149 do
        Stm.atomic (fun () -> ignore (M.put m (base + i) "v"))
      done
    in
    let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 1000) ] in
    List.iter Domain.join ds;
    Alcotest.(check int) "all inserts" 300 (M.size m);
    Alcotest.(check int) "no stale locks" 0 (M.outstanding_locks m)

  let suite =
    ( "wrapped-map." ^ Name.name,
      [
        Alcotest.test_case "compose" `Quick test_compose;
        Alcotest.test_case "abort" `Quick test_abort;
        Alcotest.test_case "conflicts" `Quick test_conflict;
        Alcotest.test_case "parallel" `Quick test_parallel_model;
      ] )
end

module type WRAPPED_SORTED = sig
  type 'v t

  val create : unit -> 'v t
  val find : 'v t -> int -> 'v option
  val put : 'v t -> int -> 'v -> 'v option
  val remove : 'v t -> int -> 'v option
  val size : 'v t -> int
  val first_key : 'v t -> int option
  val last_key : 'v t -> int option
  val to_list : 'v t -> (int * 'v) list

  val fold_range :
    (int -> 'v -> 'acc -> 'acc) ->
    'v t ->
    'acc ->
    lo:int option ->
    hi:int option ->
    'acc

  val outstanding_locks : 'v t -> int
end

module Sorted_suite (Name : sig
  val name : string
end)
(M : WRAPPED_SORTED) =
struct
  let seeded () =
    let m = M.create () in
    List.iter (fun k -> ignore (M.put m k k)) [ 10; 20; 30; 40 ];
    m

  let test_ordered () =
    let m = seeded () in
    Stm.atomic (fun () ->
        ignore (M.put m 25 25);
        ignore (M.remove m 40);
        Alcotest.(check (list int)) "merged order" [ 10; 20; 25; 30 ]
          (List.map fst (M.to_list m));
        Alcotest.(check (option int)) "first" (Some 10) (M.first_key m);
        Alcotest.(check (option int)) "last" (Some 30) (M.last_key m));
    Alcotest.(check int) "no leaks" 0 (M.outstanding_locks m)

  let test_range () =
    let m = seeded () in
    Stm.atomic (fun () ->
        let ks =
          List.rev
            (M.fold_range (fun k _ acc -> k :: acc) m [] ~lo:(Some 15)
               ~hi:(Some 35))
        in
        Alcotest.(check (list int)) "range" [ 20; 30 ] ks)

  let test_range_conflict () =
    let m = seeded () in
    let n =
      conflict_scenario
        ~reader:(fun () ->
          ignore (M.fold_range (fun _ _ a -> a) m () ~lo:(Some 15) ~hi:(Some 35)))
        ~writer:(fun () -> ignore (M.put m 25 25))
    in
    Alcotest.(check int) "insert in range aborts" 2 n;
    let n' =
      conflict_scenario
        ~reader:(fun () ->
          ignore (M.fold_range (fun _ _ a -> a) m () ~lo:(Some 15) ~hi:(Some 35)))
        ~writer:(fun () -> ignore (M.put m 45 45))
    in
    Alcotest.(check int) "insert outside commutes" 1 n'

  let test_endpoint_conflict () =
    let m = seeded () in
    let n =
      conflict_scenario
        ~reader:(fun () -> ignore (M.first_key m))
        ~writer:(fun () -> ignore (M.put m 1 1))
    in
    Alcotest.(check int) "new min aborts firstKey" 2 n

  let suite =
    ( "wrapped-sorted." ^ Name.name,
      [
        Alcotest.test_case "ordered merge" `Quick test_ordered;
        Alcotest.test_case "range" `Quick test_range;
        Alcotest.test_case "range conflict" `Quick test_range_conflict;
        Alcotest.test_case "endpoint conflict" `Quick test_endpoint_conflict;
      ] )
end

(* ---------------- instantiations ---------------- *)

module Chain = Txcoll.Host.Map_undo (Txcoll.Host.Int_hashed)

module Redo = struct
  include Txcoll.Host.Map (Txcoll.Host.Int_hashed)

  let create () = create ()
end

module Avl = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

module Avl_adapter = struct
  include Avl

  let create () = Avl.create ()
end

module S1 = Map_suite (struct let name = "chaining" end) (Chain)
module S2 = Map_suite (struct let name = "redo-write-back" end) (Redo)
module S3 = Sorted_suite (struct let name = "avl" end) (Avl_adapter)

let suites =
  [
    S1.suite;
    S2.suite;
    S3.suite;
  ]
