(* Read-set representation and sharded-commit tests: deduplication keeps
   one entry per tvar, validation still catches conflicting writes to
   deduplicated entries, read-version extension stays opaque and rolls
   back only the invalid nesting level, and commits into disjoint
   collections never contend on a commit region. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)

let test_reread_dedup () =
  let tv = Tvar.make 7 in
  let other = Tvar.make 1 in
  Stm.atomic (fun () ->
      for _ = 1 to 100 do
        ignore (Tvar.get tv)
      done;
      Alcotest.(check int) "one entry after 100 re-reads" 1
        (Stm.read_set_cardinal ());
      ignore (Tvar.get other);
      Alcotest.(check int) "distinct tvars still recorded" 2
        (Stm.read_set_cardinal ()))

let test_nested_reread_dedup () =
  let tv = Tvar.make 7 in
  Stm.atomic (fun () ->
      ignore (Tvar.get tv);
      Stm.closed_nested (fun () ->
          (* The parent already recorded [tv]; the child must not. *)
          ignore (Tvar.get tv);
          Alcotest.(check int) "child adds no duplicate" 1
            (Stm.read_set_cardinal ()));
      Alcotest.(check int) "merge keeps one entry" 1
        (Stm.read_set_cardinal ()))

let test_dedup_entry_still_validated () =
  let a = Tvar.make 0 in
  let b = Tvar.make 0 in
  let injected = ref false in
  let attempts = ref 0 in
  Stm.atomic (fun () ->
      incr attempts;
      let v = Tvar.get a in
      (* Deduplicated re-reads: still exactly one entry guarding [a]. *)
      ignore (Tvar.get a);
      ignore (Tvar.get a);
      if not !injected then begin
        injected := true;
        Domain.join (Domain.spawn (fun () -> Tvar.set a 42))
      end;
      Tvar.set b (v + 1));
  Alcotest.(check int) "conflict on the deduplicated entry forced a retry" 2
    !attempts;
  Alcotest.(check int) "second attempt saw the committed write" 43
    (Tvar.get b)

let test_incremental_extension_consistent () =
  (* Unrelated commits advance the clock; reading a tvar they wrote forces
     read-version extension, twice.  Each extension re-checks the whole
     read set, which the unrelated commits left untouched, so the
     transaction must still commit on its first attempt. *)
  let prefix = Array.init 8 (fun i -> Tvar.make i) in
  let x = Tvar.make 0 and y = Tvar.make 0 and z = Tvar.make 0 in
  let attempts = ref 0 in
  let total =
    Stm.atomic (fun () ->
        incr attempts;
        let s = Array.fold_left (fun acc tv -> acc + Tvar.get tv) 0 prefix in
        if !attempts = 1 then
          Domain.join
            (Domain.spawn (fun () ->
                 Tvar.set x 100;
                 Tvar.set y 200));
        let s = s + Tvar.get y in
        if !attempts = 1 then Domain.join (Domain.spawn (fun () -> Tvar.set z 300));
        s + Tvar.get z)
  in
  Alcotest.(check int) "single attempt" 1 !attempts;
  Alcotest.(check int) "sum consistent" (28 + 200 + 300) total

(* The parent reads [a], a closed child reads [b]; another domain then
   commits [b] (or [a]) together with [c], and the child reads [c], which
   forces read-version extension.  Returns (parent runs, child runs). *)
let extension_with_child ~overwrite =
  let a = Tvar.make 0 and b = Tvar.make 0 and c = Tvar.make 0 in
  let parent_runs = ref 0 and child_runs = ref 0 and injected = ref false in
  let stale = if overwrite = `Parent_read then a else b in
  Stm.atomic (fun () ->
      incr parent_runs;
      ignore (Tvar.get a);
      Stm.closed_nested (fun () ->
          incr child_runs;
          ignore (Tvar.get b);
          if not !injected then begin
            injected := true;
            Domain.join
              (Domain.spawn (fun () ->
                   Stm.atomic (fun () ->
                       Tvar.set stale 1;
                       Tvar.set c 1)))
          end;
          ignore (Tvar.get c)));
  (!parent_runs, !child_runs)

let test_extension_rolls_back_child_only () =
  Alcotest.(check (pair int int))
    "only the child re-ran" (1, 2)
    (extension_with_child ~overwrite:`Child_read)

let test_extension_retries_parent () =
  Alcotest.(check (pair int int))
    "the whole transaction re-ran" (2, 2)
    (extension_with_child ~overwrite:`Parent_read)

let test_disjoint_commits_never_wait () =
  (* Each domain commits into its own collection: every commit acquires
     only that collection's region, so no region acquisition ever blocks.
     Run enough transactions to make silent serialisation visible. *)
  let n_domains = 4 and txns = 200 in
  Stm.reset_stats ();
  let before = Stm.commit_region_waits () in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let m : int IM.t = IM.create () in
            for i = 1 to txns do
              Stm.atomic (fun () ->
                  ignore (IM.put m i (i * d));
                  if i > 1 then ignore (IM.find m (i - 1)))
            done;
            IM.size m))
  in
  let sizes = List.map Domain.join domains in
  List.iter (fun s -> Alcotest.(check int) "all txns applied" txns s) sizes;
  Alcotest.(check int) "disjoint commits never blocked on a region" before
    (Stm.commit_region_waits ())

let test_shared_commits_correct () =
  (* All domains hammer one collection: commits serialise on its region
     (waits may accumulate) but every operation must still apply exactly
     once. *)
  let n_domains = 4 and txns = 100 in
  let m : int IM.t = IM.create () in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to txns do
              Stm.atomic (fun () -> ignore (IM.put m ((d * txns) + i) i))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every put applied" (n_domains * txns) (IM.size m)

(* The write set against an array model.  Random programs of
   [Tvar.get]/[Tvar.set] over 16 tvars run as top-level transactions with
   closed-nested children; a child or a whole transaction may end by
   raising, which its parent (or the caller) catches, discarding its
   writes.  Every in-transaction read, a full sweep at the end of each
   body and the committed state after each transaction must match the
   model.  Random indices insert write-set ids below and above the ids
   already buffered, overwrite them, and merge children into parents. *)
type wop = Get of int | Set of int * int | Child of wop list * bool

exception Rollback

let n_wtvars = 16

let rec pp_wop = function
  | Get i -> Printf.sprintf "get %d" i
  | Set (i, v) -> Printf.sprintf "set %d %d" i v
  | Child (ops, raises) ->
      Printf.sprintf "child%s [%s]"
        (if raises then "!" else "")
        (String.concat "; " (List.map pp_wop ops))

let rec gen_wops depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Get i) (int_bound (n_wtvars - 1));
        map2 (fun i v -> Set (i, v)) (int_bound (n_wtvars - 1)) (int_bound 999);
      ]
  in
  let op =
    if depth = 0 then leaf
    else
      frequency
        [ (4, leaf); (1, map2 (fun ops r -> Child (ops, r)) (gen_wops (depth - 1)) bool) ]
  in
  list_size (int_range 0 10) op

let arb_write_programs =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (fun (ops, raises) ->
            Printf.sprintf "txn%s [%s]"
              (if raises then "!" else "")
              (String.concat "; " (List.map pp_wop ops))))
    QCheck.Gen.(list_size (int_range 1 6) (pair (gen_wops 3) bool))

let write_set_matches_model programs =
  let tvs = Array.init n_wtvars Tvar.make in
  let model = Array.init n_wtvars Fun.id in
  let ok = ref true in
  let expect v m = if v <> m then ok := false in
  let sweep view = Array.iteri (fun i tv -> expect (Tvar.get tv) view.(i)) tvs in
  let rec run view ops =
    List.iter
      (function
        | Get i -> expect (Tvar.get tvs.(i)) view.(i)
        | Set (i, v) ->
            Tvar.set tvs.(i) v;
            view.(i) <- v
        | Child (body, raises) -> (
            let child = Array.copy view in
            match
              Stm.atomic (fun () ->
                  Array.blit view 0 child 0 n_wtvars;
                  run child body;
                  sweep child;
                  if raises then raise Rollback)
            with
            | () -> Array.blit child 0 view 0 n_wtvars
            | exception Rollback -> ()))
      ops
  in
  List.iter
    (fun (ops, raises) ->
      let view = Array.copy model in
      (match
         Stm.atomic (fun () ->
             Array.blit model 0 view 0 n_wtvars;
             run view ops;
             sweep view;
             if raises then raise Rollback)
       with
      | () -> Array.blit view 0 model 0 n_wtvars
      | exception Rollback -> ());
      sweep model)
    programs;
  !ok

let prop_write_set_matches_model =
  QCheck.Test.make ~name:"write set matches an array model" ~count:300
    arb_write_programs write_set_matches_model

let suites =
  [
    ( "stm.readset",
      [
        Alcotest.test_case "re-read dedup" `Quick test_reread_dedup;
        Alcotest.test_case "nested re-read dedup" `Quick
          test_nested_reread_dedup;
        Alcotest.test_case "dedup entry still validated" `Quick
          test_dedup_entry_still_validated;
        Alcotest.test_case "incremental extension consistent" `Quick
          test_incremental_extension_consistent;
        Alcotest.test_case "extension rolls back the child only" `Quick
          test_extension_rolls_back_child_only;
        Alcotest.test_case "extension retries the parent" `Quick
          test_extension_retries_parent;
        Alcotest.test_case "disjoint commits never wait" `Quick
          test_disjoint_commits_never_wait;
        Alcotest.test_case "shared commits correct" `Quick
          test_shared_commits_correct;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 22 |])
          prop_write_set_matches_model;
      ] );
  ]
