(* Coroutine-side API of the simulated TCC hardware transactional memory:
   the transactional semantics of paper §4 — closed- and open-nested
   transactions, commit/abort handlers and program-directed abort — on top
   of the machine's lazy-versioning transactional execution.

   Commit sequence of a top-level transaction (two-phase, paper §4):
   acquire the commit token (global commit arbitration; once held the
   transaction cannot be violated), run commit handlers, broadcast the write
   set (applying it to memory and violating conflicting readers), release
   the token. *)

open Ops

exception Aborted
(* Program-directed self-abort, re-raised to the caller of [atomic]. *)

exception Explicit_exn

let cpu_state () =
  let m = Machine.the_machine () in
  m.Machine.cpus.(m.Machine.running)

let state () =
  let c = cpu_state () in
  c.Machine.txn

(* Collections may be created, pre-populated and inspected while no
   simulation is running; TM operations degrade to host-side immediacy. *)
let machine_running () = !Machine.current <> None

let in_txn () = machine_running () && (state ()).Machine.frames <> []

let backoff_cycles (cfg : Config.t) retries =
  cfg.backoff_base * (1 lsl min retries cfg.backoff_cap)

let push_frame kind =
  let st = state () in
  let depth = List.length st.Machine.frames in
  let f = Machine.fresh_frame depth kind in
  st.Machine.frames <- f :: st.Machine.frames;
  f

let pop_frame () =
  let st = state () in
  match st.Machine.frames with
  | f :: rest ->
      st.Machine.frames <- rest;
      f
  | [] -> assert false

let run_handlers hs = List.iter (fun h -> h ()) hs

(* The frame owning collection state: the innermost open frame, else the
   top level.  As on the host STM, an open transaction's collections keep
   their own transaction-local values and handlers: on the open commit the
   handlers migrate to the parent, on its abort the collection abort
   handlers run. *)
let owner_frame () =
  let rec find = function
    | [] -> None
    | ({ Machine.kind = `Open | `Top; _ } as f) :: _ -> Some f
    | _ :: rest -> find rest
  in
  if machine_running () then find (state ()).Machine.frames else None

(* ------------------------------------------------------------------ *)

let rec top_level body =
  let m = Machine.the_machine () in
  let st = state () in
  st.Machine.epoch <- m.Machine.next_epoch;
  m.Machine.next_epoch <- m.Machine.next_epoch + 1;
  let top = push_frame `Top in
  match
    let r = body () in
    Effect.perform Token_acquire;
    (* Commit handlers run inside the commit, after the point of no return
       (token held), serialised against all other commits. *)
    run_handlers (List.rev top.Machine.commit_handlers);
    Effect.perform Commit_broadcast;
    ignore (pop_frame ());
    st.Machine.retries <- 0;
    Effect.perform Token_release;
    r
  with
  | r -> r
  | exception Rollback 0 ->
      (* Violated: discard all frames, compensate, back off, retry. *)
      let handlers = top.Machine.abort_handlers in
      st.Machine.frames <- [];
      st.Machine.violated <- None;
      run_handlers handlers;
      st.Machine.retries <- st.Machine.retries + 1;
      work (backoff_cycles m.Machine.cfg st.Machine.retries);
      top_level body
  | exception Explicit_exn ->
      let handlers = top.Machine.abort_handlers in
      st.Machine.frames <- [];
      st.Machine.violated <- None;
      run_handlers handlers;
      raise Aborted
  | exception e ->
      (* Any other exception aborts the transaction and propagates. *)
      let handlers = top.Machine.abort_handlers in
      st.Machine.frames <- [];
      st.Machine.violated <- None;
      run_handlers handlers;
      raise e

and closed_nested body =
  let st = state () in
  match st.Machine.frames with
  | [] -> top_level body
  | parent :: _ ->
      let rec attempt retries =
        let child = push_frame `Closed in
        match body () with
        | r ->
            (* Merge child into parent (flat merge of reads/writes; handlers
               migrate to the parent, paper §4). *)
            ignore (pop_frame ());
            Hashtbl.iter (fun l () -> Hashtbl.replace parent.Machine.reads l ()) child.Machine.reads;
            Hashtbl.iter (fun a v -> Hashtbl.replace parent.Machine.writes a v) child.Machine.writes;
            parent.Machine.commit_handlers <-
              child.Machine.commit_handlers @ parent.Machine.commit_handlers;
            parent.Machine.abort_handlers <-
              child.Machine.abort_handlers @ parent.Machine.abort_handlers;
            r
        | exception Rollback d when d = child.Machine.depth ->
            (* Partial rollback: retry just this child. *)
            ignore (pop_frame ());
            let m = Machine.the_machine () in
            work (backoff_cycles m.Machine.cfg retries);
            attempt (retries + 1)
        | exception e ->
            ignore (pop_frame ());
            raise e
      in
      attempt 0

and atomic body = closed_nested body

and open_nested body =
  let st = state () in
  match st.Machine.frames with
  | [] -> top_level body
  | parent :: _ ->
      let rec attempt retries =
        let child = push_frame `Open in
        match
          (* The broadcast belongs to the attempt: a violation delivered at
             this effect must retry the open transaction. *)
          let r = body () in
          Effect.perform Open_broadcast;
          r
        with
        | r ->
            (* Open commit done: read dependencies are discarded; handlers
               migrate to the parent, and an enclosing open frame must run
               the collections' ones if it aborts. *)
            ignore (pop_frame ());
            parent.Machine.commit_handlers <-
              child.Machine.commit_handlers @ parent.Machine.commit_handlers;
            parent.Machine.abort_handlers <-
              child.Machine.abort_handlers @ parent.Machine.abort_handlers;
            (match owner_frame () with
            | Some ({ Machine.kind = `Open; _ } as f) ->
                f.Machine.local_aborts <-
                  child.Machine.local_aborts @ f.Machine.local_aborts
            | _ -> ());
            r
        | exception Rollback d when d = child.Machine.depth ->
            ignore (pop_frame ());
            run_handlers child.Machine.local_aborts;
            let m = Machine.the_machine () in
            work (backoff_cycles m.Machine.cfg retries);
            attempt (retries + 1)
        | exception e ->
            (* The aborting attempt discards its body's handlers (paper
               §4) but releases what its collections took: their semantic
               locks were taken in critical sections, which commit at
               once. *)
            ignore (pop_frame ());
            run_handlers child.Machine.local_aborts;
            raise e
      in
      attempt 0

(* The outermost frame of the running CPU's transaction, if any: handlers
   and transaction-local values belong to the top level. *)
let top_frame () =
  if not (machine_running ()) then None
  else
    let rec last = function [] -> None | [ f ] -> Some f | _ :: r -> last r in
    last (state ()).Machine.frames

let on_commit h =
  match top_frame () with
  | None -> h ()
  | Some top -> top.Machine.commit_handlers <- h :: top.Machine.commit_handlers

let on_abort h =
  match top_frame () with
  | None -> ()
  | Some top -> top.Machine.abort_handlers <- h :: top.Machine.abort_handlers

let self_abort () = if in_txn () then raise Explicit_exn else invalid_arg "Tcc.self_abort"

let retry_now () =
  if in_txn () then raise (Rollback 0) else invalid_arg "Tcc.retry_now"

(* ------------------------------------------------------------------ *)
(* TM_OPS instance for the transactional collection classes            *)

type txn = { cpu : int; epoch : int }

let current () =
  if not (machine_running ()) then { cpu = -1; epoch = 0 }
  else
    let c = cpu_state () in
    if c.Machine.txn.Machine.frames = [] then { cpu = c.Machine.id; epoch = 0 }
    else { cpu = c.Machine.id; epoch = c.Machine.txn.Machine.epoch }

let remote_abort (t : txn) =
  if not (machine_running ()) then false
  else
  let m = Machine.the_machine () in
  if t.epoch = 0 then false
  else
    let victim = m.Machine.cpus.(t.cpu) in
    if
      victim.Machine.txn.Machine.epoch = t.epoch
      && victim.Machine.txn.Machine.frames <> []
      && m.Machine.token_owner <> Some t.cpu
    then begin
      Machine.mark_violation m victim 0;
      true
    end
    else false

module Tm_ops : Tm_intf.TM_OPS with type txn = txn = struct
  type nonrec txn = txn

  let current = current
  let in_txn = in_txn
  let same_txn a b = a.cpu = b.cpu && a.epoch = b.epoch

  (* Epochs are unique across CPUs, so a running transaction is named by
     its epoch alone; auto-commit handles (epoch 0) take negative ids, one
     per CPU (-1 off the machine). *)
  let txn_id t = if t.epoch = 0 then -(t.cpu + 2) else t.epoch

  (* Slots live on the owner frame ([owner_frame]), which a commit or
     abort discards; the machine offers no spares.  An open transaction
     gets values of its own, as on the host STM. *)
  type 'a local_key = 'a Type.Id.t

  let new_local_key = Type.Id.make

  let txn_local (type a) (key : a local_key) init env : a =
    match owner_frame () with
    | None -> init env (current ()) None
    | Some f -> (
        let find (Machine.Slot (k, v)) : a option =
          match Type.Id.provably_equal key k with
          | Some Equal -> Some v
          | None -> None
        in
        match List.find_map find f.Machine.locals with
        | Some v -> v
        | None ->
            let v = init env (current ()) None in
            f.Machine.locals <- Machine.Slot (key, v) :: f.Machine.locals;
            v)

  type region = int

  let next_region = Atomic.make 1
  let new_region () = Atomic.fetch_and_add next_region 1

  (* The machine executes a critical section's closure as one atomic step,
     outside the fiber's effect handler — so a nested [critical] (striped
     collections enter the structure region, then a key stripe) must not
     perform a second effect.  The whole nested group is already atomic;
     run inner sections inline.  The sim is single-threaded, so a plain
     depth counter suffices. *)
  let critical_depth = ref 0

  let critical r f =
    if (not (machine_running ())) || !critical_depth > 0 then f ()
    else
      Ops.critical r ~cost:0 (fun () ->
          incr critical_depth;
          Fun.protect ~finally:(fun () -> decr critical_depth) f)

  (* Commit stamps: the simulated machine keeps no multi-version state,
     but the collections still publish into their shard chains through
     the shared interface, so stamps must be unique and monotone.  The
     sim is single-threaded (and host-side use is quiescent), so a plain
     counter suffices. *)
  let stamp_counter = ref 0

  let next_stamp () =
    incr stamp_counter;
    !stamp_counter

  (* No separate prepare phase on the simulated machine: the hardware
     commit is already atomic under the commit token, so the two halves
     run back-to-back inside it.  The read-only certificate is likewise
     unused — there is no fast path to take under the commit token.  The
     stripe region plan collapses to the handler's own region, held
     across both halves as one critical step — the K=1 degenerate
     instance of the striped interface: the token serialises commits, and
     the region keeps other CPUs' critical sections (a reader, a queue's
     op-time take) from interleaving with a half-applied batch.  Commit
     handlers already run inside the CPU's hardware commit (which holds
     the commit token), so the region only scopes conflict detection, not
     handler serialisation. *)
  let on_commit_prepared ?read_only:_ ?regions:_ region ~prepare ~apply =
    let h () =
      critical region (fun () ->
          prepare ();
          apply (next_stamp ()))
    in
    match owner_frame () with
    | None -> h ()
    | Some f -> f.Machine.commit_handlers <- h :: f.Machine.commit_handlers

  let on_abort h =
    match owner_frame () with
    | None -> ()
    | Some f ->
        f.Machine.abort_handlers <- h :: f.Machine.abort_handlers;
        if f.Machine.kind = `Open then
          f.Machine.local_aborts <- h :: f.Machine.local_aborts

  let remote_abort = remote_abort
  let retry () = retry_now ()

  (* No multi-version snapshot mode on the simulated machine: reads are
     conflict-tracked by the hardware, so the snapshot paths are never
     taken and reclamation never applies. *)
  let in_snapshot () = false
  let snapshot_stamp () = 0
  let begin_publish () = next_stamp ()
  let end_publish () = ()
  let reclaim_epoch () = max_int
  let note_reclaimed _ = ()
end
