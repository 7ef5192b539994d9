open Types

exception Aborted
exception Starved of { attempts : int; elapsed : float }

exception Handler_failure of { committed : bool; failures : exn list }

exception Place_down of { place : int }
(* Failure-domain error raised by sharded-store layers (lib/places) from a
   commit handler's prepare phase — i.e. before the commit point — when the
   transaction touched a place that has been killed (or recovered under it)
   since.  The transaction aborts cleanly (compensations run, nothing
   applied) and the exception propagates out of [atomic] instead of being
   retried: the place will not come back by itself, so the caller must
   redirect (recover the place / wait for recovery) and re-issue. *)

exception Not_quiescent of { in_flight : int }
(* [reset_stats] called while [in_flight] top-level transactions were still
   running somewhere in the process. *)

type handle = txn

let context = context

(* ------------------------------------------------------------------ *)
(* Monotonic-ish wall clock *)

(* This OCaml's [Unix] has no [clock_gettime], so true CLOCK_MONOTONIC is
   out of reach without a new dependency.  Instead every elapsed-time
   computation in the runtime (token-bucket refill, budget timing,
   open-loop pacing/latency) goes through a process-wide clamp: [now]
   never goes backwards, so a backward NTP step freezes the clock until
   real time catches up instead of producing negative intervals — no
   negative bucket refills, no negative latencies, no budget starvation
   from a clock that jumped back under a running transaction.  (A forward
   step still dilates intervals; that is the best available without an OS
   monotonic source.)  The clamp is a single CAS loop on an atomic float:
   wait-free on the fast path and safe across domains. *)
module Monoclock = struct
  let last = Atomic.make 0.

  let rec now () =
    let t = Unix.gettimeofday () in
    let l = Atomic.get last in
    if t >= l then
      if Atomic.compare_and_set last l t then t else now ()
    else l
end

type budget = { max_retries : int option; max_seconds : float option }

(* Auto-commit context: an already-committed handle so that semantic lock
   owners recorded outside transactions never block anyone (remote_abort
   on it reports "already committed").  One per domain, cached in DLS —
   handles are only compared by txn_id and status, so sharing is safe.
   Never pooled: its identity must outlive any transaction. *)
let autocommit_handle_key : handle Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let t = make_top () in
      Atomic.set t.top_status Committed;
      t)

let current () =
  match !(context ()) with
  | Some t -> t.top
  | None -> Domain.DLS.get autocommit_handle_key

let in_txn () = Option.is_some !(context ())
let same_txn (a : handle) (b : handle) = a.txn_id = b.txn_id
let txn_id (t : handle) = t.txn_id

(* Transaction-local slots, held in the top-level descriptor ([slots] in
   types.ml).  A transaction touches few collections, so lookups scan. *)
type 'a local_key = 'a Type.Id.t

let new_local_key = Type.Id.make

let push_live s slot =
  if s.n_live = Array.length s.live then begin
    let a = Array.make (max 4 (2 * s.n_live)) no_slot in
    Array.blit s.live 0 a 0 s.n_live;
    s.live <- a
  end;
  s.live.(s.n_live) <- slot;
  s.n_live <- s.n_live + 1

(* Index [i] scans the live values, then the spares at [i - n_live]; a
   miss builds the value, reusing the key's spare if there is one. *)
let rec lookup :
    type a e. txn -> a local_key -> (e -> txn -> a option -> a) -> e -> int -> a
    =
 fun top key init env i ->
  let s = top.slots in
  if i < s.n_live then
    let (Slot (k, v)) = s.live.(i) in
    match Type.Id.provably_equal key k with
    | Some Equal -> v
    | None -> lookup top key init env (i + 1)
  else if i = s.n_live + s.n_spare then begin
    let v = init env top None in
    push_live s (Slot (key, v));
    v
  end
  else
    let j = i - s.n_live in
    let (Slot (k, sv) as slot) = s.spare.(j) in
    match Type.Id.provably_equal key k with
    | Some Equal ->
        s.n_spare <- s.n_spare - 1;
        s.spare.(j) <- s.spare.(s.n_spare);
        s.spare.(s.n_spare) <- no_slot;
        let v = init env top (Some sv) in
        push_live s (if v == sv then slot else Slot (key, v));
        v
    | None -> lookup top key init env (i + 1)

let txn_local key init env =
  match !(context ()) with
  | None -> init env (current ()) None
  | Some t -> lookup t.top key init env 0

(* A handler registered here has no region of its own: it serialises on
   the process-wide fallback region.  It is never assumed read-only: only
   the two-phase registration can certify that. *)
let on_commit h =
  match !(context ()) with
  | None -> h () (* auto-commit: the operation is its own transaction *)
  | Some t ->
      t.commit_handlers <-
        {
          ch_region = None;
          ch_regions = None;
          ch_prepare = None;
          ch_read_only = never_read_only;
          ch_apply = (fun _ -> h ());
        }
        :: t.commit_handlers

let on_abort h =
  match !(context ()) with
  | None -> () (* auto-commit transactions never abort *)
  | Some t -> t.abort_handlers <- h :: t.abort_handlers

(* Two-phase registration used by the collection classes: [prepare] runs
   before the commit point (semantic conflict detection; may raise to
   retry or defer), [apply] after it (buffer application + lock release;
   protected, never skipped).  [read_only] is the collection's fast-path
   probe — [true] when the transaction buffered no mutation against this
   collection, so the commit needs neither the prepare phase nor the
   commit region pre-acquisition (see [commit_top]).  [regions], when
   given, is the handler's commit-time region plan: evaluated once during
   commit, its result replaces [region] in the pre-acquired set, letting a
   striped collection name exactly the stripe regions this transaction's
   buffered operations cover. *)
let on_top_commit_prepared ?(read_only = never_read_only) ?regions region
    ~prepare ~apply =
  match !(context ()) with
  | None ->
      (* Auto-commit: the operation is its own transaction; it still needs
         a commit stamp so any version it publishes lands in the chains,
         and the publication window so concurrent snapshot pins order
         against it. *)
      prepare ();
      publish_window_enter ();
      let wv = bump_clock () in
      Fun.protect ~finally:publish_window_exit (fun () -> apply wv)
  | Some t ->
      let top = t.top in
      top.commit_handlers <-
        {
          ch_region = Some region;
          ch_regions = regions;
          ch_prepare = Some prepare;
          ch_read_only = read_only;
          ch_apply = apply;
        }
        :: top.commit_handlers

(* The collection classes' registration mode: their abort handlers
   compensate for transaction-local state, semantic locks taken in
   [critical] sections that no abort rolls back.  Inside an open-nested
   attempt they are also kept apart, so that the attempt releases what it
   took even when it aborts (see [run_top]). *)
let on_top_abort h =
  match !(context ()) with
  | None -> ()
  | Some t ->
      let top = t.top in
      top.abort_handlers <- h :: top.abort_handlers;
      if top.open_attempt then top.local_aborts <- h :: top.local_aborts

let self_abort () =
  match !(context ()) with
  | None -> invalid_arg "Stm.self_abort: no enclosing transaction"
  | Some _ -> raise Explicit_abort_exn

(* Abort and retry the current top-level transaction transparently. *)
let retry_now () =
  match !(context ()) with
  | None -> invalid_arg "Stm.retry_now: no enclosing transaction"
  | Some _ -> raise Conflict_exn

type remote_abort_outcome = Delivered | Already_aborted | Too_late

(* Program-directed abort with one progress rule.  When the caller is a
   transaction inside its own prepare phase (semantic conflict detection
   at commit) and the target is the live transaction running under
   [serialised], the caller *defers* instead of aborting it: it raises
   [Deferred_exn], unwinding its commit attempt (nothing has been applied
   yet — prepare runs before the commit point) so it retries while the
   fallback proceeds.  At most one transaction holds the fallback region,
   so a budget with [~on_starved:serialised] ends in a commit as far as
   commit-time semantic conflicts go.  Every other target is aborted.

   The status race against a target that is concurrently entering its own
   commit is resolved deterministically by the CAS loop below, and every
   outcome is counted: [Delivered] (we won the race, the target will
   observe the abort), [Already_aborted], or [Too_late] (the target passed
   its commit point first and serialises before the caller). *)
let remote_abort_outcome (t : handle) =
  (match !(context ()) with
  | Some self
    when self.top.in_prepare && t.serialised && self.top.txn_id <> t.txn_id
         && Atomic.get t.top_status = Active ->
      let s = my_stats () in
      s.s_deferrals <- s.s_deferrals + 1;
      raise Deferred_exn
  | _ -> ());
  let rec go () =
    match Atomic.get t.top_status with
    | Active ->
        if Atomic.compare_and_set t.top_status Active Aborted then begin
          let s = my_stats () in
          s.s_ra_delivered <- s.s_ra_delivered + 1;
          Delivered
        end
        else go ()
    | Aborted -> Already_aborted
    | Committing | Committed ->
        let s = my_stats () in
        s.s_ra_late <- s.s_ra_late + 1;
        Too_late
  in
  go ()

let remote_abort t =
  match remote_abort_outcome t with
  | Delivered | Already_aborted -> true
  | Too_late -> false

(* ------------------------------------------------------------------ *)
(* Commit machinery                                                    *)

(* Release the first [n] acquired write locks, restoring the vlock values
   saved in [acq_old] at acquisition. *)
let release_locks top n =
  for i = 0 to n - 1 do
    let (W (tv, _)) = top.wents.(i) in
    Atomic.set tv.vlock top.acq_old.(i)
  done

(* Acquire write locks in tv_id order (no deadlock), spinning a bounded
   number of times on each before declaring a conflict.  [wids] is sorted
   at insertion, the pre-lock vlock values go into the [acq_old] scratch
   and the spin is top-level, so acquisition allocates nothing. *)
let rec lock_write top i spins =
  let (W (tv, _)) = top.wents.(i) in
  let cur = Atomic.get tv.vlock in
  if locked cur then
    if spins = 0 then begin
      release_locks top i;
      raise Conflict_exn
    end
    else begin
      Domain.cpu_relax ();
      lock_write top i (spins - 1)
    end
  else if Atomic.compare_and_set tv.vlock cur (cur + 1) then
    top.acq_old.(i) <- cur
  else lock_write top i spins

let lock_writes top =
  for i = 0 to top.wlen - 1 do
    lock_write top i 1024
  done

let validate_reads top = level_valid top.self_opt top

let by_rid a b = compare a.rid b.rid

(* Insert [r] into a rid-sorted duplicate-free list. *)
let rec insert_region r = function
  | [] -> [ r ]
  | x :: rest as l ->
      if r.rid < x.rid then r :: l
      else if r.rid = x.rid then l
      else x :: insert_region r rest

(* The rid-sorted, deduplicated set of commit regions the transaction's
   handlers touch.  A handler with a region plan ([ch_regions]) contributes
   exactly the stripe regions its thunk names — evaluated here, once, at
   commit time; other handlers contribute their single region, and handlers
   registered without one serialise on the process-wide fallback.  Sorting
   by rid makes multi-region acquisition deadlock-free regardless of how
   plans from different collections interleave. *)
let commit_regions handlers =
  let all =
    List.fold_left
      (fun acc h ->
        match h.ch_regions with
        | Some plan -> List.rev_append (plan ()) acc
        | None ->
            Option.value h.ch_region ~default:global_commit_region :: acc)
      [] handlers
  in
  (* Collect everything first, sort by rid once in an array (in place),
     drop adjacent duplicates while rebuilding the list: O(n log n) time
     with O(n) allocation, where the old List.exists-per-insert plan
     construction was O(n^2) — measurable once striped collections
     contribute dozens of stripe regions per commit.  Plans of up to three
     regions, the common case, are ordered by hand without the copies. *)
  match all with
  | [] | [ _ ] -> all
  | [ a; b ] ->
      if a.rid < b.rid then all else if a.rid = b.rid then [ a ] else [ b; a ]
  | [ a; b; c ] -> insert_region a (insert_region b [ c ])
  | _ ->
      let arr = Array.of_list all in
      Array.sort by_rid arr;
      let plan = ref [] in
      for i = Array.length arr - 1 downto 0 do
        match !plan with
        | r :: _ when r.rid = arr.(i).rid -> ()
        | _ -> plan := arr.(i) :: !plan
      done;
      !plan

let note_handler_failure () =
  let s = my_stats () in
  s.s_handler_failures <- s.s_handler_failures + 1

(* Run [f h x] for every handler [h] in order, even if some raise; the
   failures are counted and returned in handler order. *)
let rec run_guarded f x failures = function
  | [] -> List.rev failures
  | h :: rest ->
      let failures =
        match f h x with
        | () -> failures
        | exception e ->
            note_handler_failure ();
            e :: failures
      in
      run_guarded f x failures rest

(* Run every apply handler even if some raise; failures are aggregated
   (in registration order) and surfaced after the commit completes.  A
   raising handler can therefore never skip another collection's buffer
   application or semantic lock release.  [wv] is the commit stamp the
   handlers publish their shard versions at (0 on read-only paths). *)
let apply_at h wv = h.ch_apply wv
let run_applies wv handlers = run_guarded apply_at wv [] handlers

(* Publish the redo log at write version [wv]: per tvar — value, version
   chain (while the write lock is still held: chain publications are
   serialised by the vlock), then the unlocking vlock store.  The caller
   has opened the publication window ([publish_window_enter] before the
   bump that produced [wv]), so a concurrent snapshot pin either waits
   this publication out or pins above [wv]. *)
let publish_writes top wv =
  let min_epoch = oldest_active_epoch () in
  for i = 0 to top.wlen - 1 do
    let (W (tv, v)) = top.wents.(i) in
    Atomic.set tv.value v;
    hist_publish tv ~min_epoch wv v;
    Atomic.set tv.vlock wv
  done

let finish_commit top =
  Atomic.set top.top_status Committed;
  let s = my_stats () in
  s.s_commits <- s.s_commits + 1

let finish_read_only top =
  Atomic.set top.top_status Committed;
  let s = my_stats () in
  s.s_commits <- s.s_commits + 1;
  s.s_ro_commits <- s.s_ro_commits + 1

(* Release pre-acquired commit regions in reverse acquisition order. *)
let rec unlock_regions = function
  | [] -> ()
  | r :: rest ->
      unlock_regions rest;
      region_unlock r

(* The front of every writing commit, in TL2 order: lock the write set,
   open the publication window, draw the stamp [wv], then validate reads,
   run prepare handlers and settle Active -> Committing.  A commit landing
   on a read after its validation draws a later stamp, so stamp order is a
   serialization order and every pin sees a serializable cut.  An exit
   after the bump unlocks and closes the window, publishing nothing (the
   stamp goes unused).  Semantic-only commits draw a stamp too. *)
let lock_and_stamp top handlers =
  lock_writes top;
  publish_window_enter ();
  let wv = bump_clock () in
  match
    if not (validate_reads top) then raise Conflict_exn;
    chaos Chaos_in_commit;
    top.in_prepare <- true;
    List.iter
      (fun h -> match h.ch_prepare with Some p -> p () | None -> ())
      handlers;
    top.in_prepare <- false;
    if not (Atomic.compare_and_set top.top_status Active Committing) then
      raise Remote_aborted_exn
  with
  | () -> wv
  | exception e ->
      top.in_prepare <- false;
      release_locks top top.wlen;
      publish_window_exit ();
      raise e

(* The back of every writing commit, after the regions are released: each
   tvar's held vlock serialises its write-back, the open window covers it. *)
let publish_and_finish top wv =
  publish_writes top wv;
  publish_window_exit ();
  finish_commit top

(* Commit a top-level transaction.  With handlers, the sequence is

     acquire commit regions -> lock write set -> open the publication
     window and draw the stamp -> validate reads -> run prepare handlers
     (semantic conflict detection) -> flip to Committing -> run apply
     handlers -> release the regions -> publish memory writes -> close
     the window -> Committed

   and the regions of every collection the handlers touch (acquired in
   rid order, hence deadlock-free) are held from before the stamp until
   the applies have published, making the handlers' semantic conflict
   checks and buffer application atomic with the memory-level commit
   (multi-level transaction commit) and each shard chain's stamps
   monotone.  Disjoint collections' commits proceed in parallel.  A
   handler-less writing commit runs the same front and back.

   Prepare handlers run *before* the commit point: an exception there
   (lost semantic race, deferral to the serialised fallback, injected
   fault)
   releases the write locks, the window and the regions with nothing
   applied and retries the transaction.  Apply handlers run after the
   commit point under the aggregating wrapper.  Commit handlers must not
   access tvars: the collection classes operate on their wrapped
   structures inside [critical] regions instead (the region locks are
   reentrant, so a handler re-entering its own region's [critical] is
   fine).

   Read-only fast paths.  A transaction that wrote no tvars and whose
   handlers all certify [ch_read_only] commits without touching the global
   clock, taking write locks or pre-acquiring commit regions: validating
   the read set against the read version it started from proves the reads
   were mutually consistent at that point, and since the transaction
   publishes nothing, serialising it at that (past) point is correct even
   if later commits have since advanced the clock.  Apply handlers still
   run (they release semantic read locks and drop transaction-local
   state), each under its own collection's [critical] region.  The chaos
   hook and the Active->Committing settlement CAS stay on the fast path,
   so injected faults and remote aborts keep their full power there. *)
let commit_top ~run_handlers top =
  let handlers = if run_handlers then List.rev top.commit_handlers else [] in
  if handlers == [] then
    if top.wlen = 0 then begin
      (* Pure read-only fast path: no locks, no regions, no clock. *)
      if not (validate_reads top) then raise Conflict_exn;
      chaos Chaos_in_commit;
      if not (Atomic.compare_and_set top.top_status Active Committing) then
        raise Remote_aborted_exn;
      finish_read_only top
    end
    else publish_and_finish top (lock_and_stamp top [])
  else if top.wlen = 0 && List.for_all (fun h -> h.ch_read_only ()) handlers
  then begin
    (* Semantic read-only fast path: the collections buffered no
       mutations, so prepare would detect nothing and apply only releases
       semantic read locks — no commit regions are pre-acquired and the
       clock stays untouched.  The applies take their own [critical]
       sections, which is all lock release needs. *)
    if not (validate_reads top) then raise Conflict_exn;
    chaos Chaos_in_commit;
    if not (Atomic.compare_and_set top.top_status Active Committing) then
      raise Remote_aborted_exn;
    (* Commit point passed. *)
    let failures = run_applies 0 handlers in
    finish_read_only top;
    if failures <> [] then raise (Handler_failure { committed = true; failures })
  end
  else begin
    let regions = commit_regions handlers in
    List.iter region_lock regions;
    (* Hand-rolled instead of Fun.protect, as in [region_critical]. *)
    let wv =
      match lock_and_stamp top handlers with
      | wv -> wv
      | exception e ->
          unlock_regions regions;
          raise e
    in
    (* Commit point passed; [run_applies] never raises. *)
    let failures = run_applies wv handlers in
    unlock_regions regions;
    publish_and_finish top wv;
    if failures <> [] then raise (Handler_failure { committed = true; failures })
  end

(* Newest-first: compensations undo in reverse registration order.  Every
   handler runs even if one raises; failures are counted and returned for
   the caller to surface as [Handler_failure]. *)
let run_abort_handlers handlers = run_guarded (fun h () -> h ()) () [] handlers

let mark_aborted t = ignore (Atomic.compare_and_set t.top_status Active Aborted)

(* Run [f] as a fresh top-level transaction, retrying on conflicts and
   remote aborts after a jittered backoff until it commits or the
   budget (max retries / wall-clock deadline) is exhausted, which raises
   [Starved].  An open-nested attempt ([open_attempt]) does not execute
   its commit handlers at commit; [open_nested] migrates them to the
   suspended parent instead.

   The descriptor comes from the domain-local pool and is reset in place
   per attempt (fresh leased txn_id, cleared grow-only read/write sets).
   The retry loop is a set of top-level functions that take their state
   as arguments, so a call allocates no closures and no result pair: an
   empty [atomic] allocates only the fresh status cell and the pool's
   free-list cell.  The descriptor is released back to the pool on every
   exit path after compensation handlers have run — except a committed
   open-nested one, which [open_nested] releases itself.

   Every top-level entry ([atomic], [serialised], [open_nested]) starts
   in [begin_top], so each rejects a call from inside a snapshot
   section. *)
let begin_top ~open_attempt =
  if Types.in_snapshot () then
    invalid_arg "Stm.atomic: inside a snapshot read section";
  let t = acquire_top () in
  t.open_attempt <- open_attempt;
  (* In-flight accounting: the quiescence probe behind [reset_stats].  The
     increment/decrement bracket every exit path of [run_attempts]
     (commit, starvation, explicit abort, escaping exception), always on
     the same domain, so a quiescent domain's count nets to zero. *)
  let s = my_stats () in
  s.s_inflight <- s.s_inflight + 1;
  t

(* Start of the wall-clock budget; 0 when no deadline is set. *)
let budget_start = function
  | Some { max_seconds = Some _; _ } -> Monoclock.now ()
  | _ -> 0.

(* [n] is the index of the attempt that would run next; called after
   attempt [n - 1] failed. *)
let check_budget budget t0 n =
  match budget with
  | None -> ()
  | Some b ->
      let elapsed =
        match b.max_seconds with Some _ -> Monoclock.now () -. t0 | None -> 0.
      in
      let over_retries =
        match b.max_retries with Some m -> n > m | None -> false
      in
      let over_time =
        match b.max_seconds with Some s -> elapsed > s | None -> false
      in
      if over_retries || over_time then begin
        let s = my_stats () in
        s.s_starved <- s.s_starved + 1;
        record_retries n;
        raise (Starved { attempts = n; elapsed })
      end

(* An aborting open-nested attempt discards the handlers its body
   registered (paper §4): its rolled-back effects need no compensation.
   The collections' handlers still run: the semantic locks they release
   were taken in [critical] sections, which commit at once, and the
   attempt owns the transaction-local values they clean up.  A
   transaction that owns its handlers runs them all. *)
let abort_and_compensate t =
  mark_aborted t;
  run_abort_handlers (if t.open_attempt then t.local_aborts else t.abort_handlers)

let rec attempt ctx t budget t0 f n =
  reset_for_attempt t;
  t.retries <- n;
  ctx := t.self_opt;
  match
    chaos Chaos_attempt;
    let r = f () in
    chaos Chaos_before_commit;
    commit_top ~run_handlers:(not t.open_attempt) t;
    r
  with
  | r ->
      ctx := None;
      record_retries n;
      r
  | exception
      ((Conflict_exn | Child_conflict_exn | Remote_aborted_exn | Deferred_exn)
       as e) ->
      (let s = my_stats () in
       match e with
       | Remote_aborted_exn -> s.s_remote_aborts <- s.s_remote_aborts + 1
       | Deferred_exn -> () (* counted at the deferral site *)
       | _ -> s.s_conflict_aborts <- s.s_conflict_aborts + 1);
      ctx := None;
      let failures = abort_and_compensate t in
      if failures <> [] then
        raise (Handler_failure { committed = false; failures });
      check_budget budget t0 (n + 1);
      backoff_wait n;
      attempt ctx t budget t0 f (n + 1)
  | exception (Handler_failure _ as e) when Atomic.get t.top_status = Committed
    ->
      (* Our own commit completed; apply-handler failures surface after
         the fact, with the transaction's effects in place. *)
      ctx := None;
      record_retries n;
      raise e
  | exception Explicit_abort_exn ->
      let s = my_stats () in
      s.s_explicit_aborts <- s.s_explicit_aborts + 1;
      ctx := None;
      let failures = abort_and_compensate t in
      if failures <> [] then
        raise (Handler_failure { committed = false; failures });
      raise Aborted
  | exception e ->
      (* Any other exception aborts the transaction and propagates; a
         failure raised by a compensation handler is counted but the
         original exception wins. *)
      ctx := None;
      ignore (abort_and_compensate t);
      raise e

let run_attempts t budget t0 f =
  match attempt (context ()) t budget t0 f 0 with
  | r ->
      let s = my_stats () in
      s.s_inflight <- s.s_inflight - 1;
      (* [open_nested] decides itself whether the descriptor goes back. *)
      if not t.open_attempt then release_top t;
      r
  | exception e ->
      let s = my_stats () in
      s.s_inflight <- s.s_inflight - 1;
      release_top t;
      raise e

let run_top ?(serialised = false) ?budget f =
  let t = begin_top ~open_attempt:false in
  t.serialised <- serialised;
  run_attempts t budget (budget_start budget) f

let closed_nested_in parent f =
  let ctx = context () in
  let rec attempt n =
    let child = make_child parent in
    ctx := child.self_opt;
    match f () with
    | r ->
        (* Index-aware bulk append: entries the parent already holds are
           skipped in O(1). *)
        rs_append parent.reads child.reads;
        for i = 0 to child.wlen - 1 do
          record_write parent child.wids.(i) child.wents.(i)
        done;
        parent.commit_handlers <- child.commit_handlers @ parent.commit_handlers;
        parent.abort_handlers <- child.abort_handlers @ parent.abort_handlers;
        ctx := parent.self_opt;
        r
    | exception Child_conflict_exn ->
        (* Partial rollback: only the child's tentative state is dropped. *)
        ctx := parent.self_opt;
        backoff_wait n;
        attempt (n + 1)
    | exception e ->
        ctx := parent.self_opt;
        raise e
  in
  attempt 0

let atomic ?budget ?on_starved f =
  match !(context ()) with
  | None -> (
      match on_starved with
      | None -> run_top ?budget f
      | Some fallback -> (
          try run_top ?budget f with Starved _ -> fallback ()))
  | Some parent -> closed_nested_in parent f

let closed_nested f = atomic f

(* Starvation fallback: run [f] as a transaction while holding the
   process-wide fallback commit region for the whole transaction, so
   serialised fallbacks never contend with each other and at most one is
   live; committers defer to it in prepare ([remote_abort_outcome]).  The
   fallback region has the smallest rid, so holding it while the commit
   acquires collection regions preserves the global acquisition order. *)
let serialised f =
  if in_txn () then f ()
  else begin
    region_lock global_commit_region;
    Fun.protect
      ~finally:(fun () -> region_unlock global_commit_region)
      (fun () -> run_top ~serialised:true f)
  end

let open_nested f =
  let ctx = context () in
  match !ctx with
  | None -> run_top f
  | Some parent ->
      (* Inside a transaction, so never inside a snapshot: [begin_top]
         cannot raise here. *)
      let open_txn = begin_top ~open_attempt:true in
      ctx := None;
      (match run_attempts open_txn None 0. f with
      | r ->
          ctx := parent.self_opt;
          (* Handlers registered inside the open-nested transaction become
             the parent's responsibility once the open transaction commits
             (paper §4, "Commit and abort handlers"). *)
          parent.commit_handlers <-
            open_txn.commit_handlers @ parent.commit_handlers;
          parent.abort_handlers <- open_txn.abort_handlers @ parent.abort_handlers;
          (* An enclosing open attempt must release them if it aborts. *)
          let ptop = parent.top in
          if ptop.open_attempt then
            ptop.local_aborts <- open_txn.local_aborts @ ptop.local_aborts;
          (* A descriptor whose transaction-local values those handlers
             still use — a collection's, whose semantic locks it also owns
             — must not be recycled before they run. *)
          if open_txn.slots.n_live = 0 then release_top open_txn;
          r
      | exception e ->
          ctx := parent.self_opt;
          raise e)

(* ------------------------------------------------------------------ *)
(* Snapshot reads: the abort-free read-only mode.  [snapshot f] pins a
   snapshot timestamp once (see [Types.snap_pin] for the protocol and its
   correctness argument) and runs [f] with the pin recorded in
   domain-local state: every [Tvar.get] and every collection read inside
   resolves against the version chains at the pinned stamp — no read-set,
   no validation, no commit regions, no clock interaction on exit, and no
   possible abort.  Multi-collection and cross-interval reads inside one
   snapshot observe a single prefix-consistent committed state.

   Writes are rejected ([Tvar.set] and the collections' mutating
   operations raise [Invalid_argument]), as is entering from inside a
   transaction — a transaction's store buffer could not be reconciled
   with a frozen timestamp.  Nested snapshots share the outer pin. *)

let in_snapshot = Types.in_snapshot
let snapshot_stamp = Types.snapshot_stamp
let version_chain_bound = Types.version_chain_bound

let snapshot f =
  if in_txn () then invalid_arg "Stm.snapshot: inside a transaction";
  let st = Domain.DLS.get snap_key in
  if st.snap_depth > 0 then begin
    st.snap_depth <- st.snap_depth + 1;
    Fun.protect ~finally:(fun () -> st.snap_depth <- st.snap_depth - 1) f
  end
  else begin
    let ts = snap_pin () in
    st.snap_ts <- ts;
    st.snap_depth <- 1;
    Fun.protect
      ~finally:(fun () ->
        st.snap_depth <- 0;
        snap_unpin ();
        let s = my_stats () in
        s.s_commits <- s.s_commits + 1;
        s.s_ro_commits <- s.s_ro_commits + 1;
        s.s_snapshot_reads <- s.s_snapshot_reads + 1)
      f
  end

let retries () = match !(context ()) with None -> 0 | Some t -> t.top.retries

(* Total number of distinct read entries across the current nesting stack
   (0 outside a transaction).  Deduplication makes this the number of
   distinct tvars read, not the number of [Tvar.get] calls. *)
let read_set_cardinal () =
  match !(context ()) with
  | None -> 0
  | Some t ->
      let rec go acc t =
        let acc = acc + t.reads.r_len in
        match t.parent with None -> acc | Some p -> go acc p
      in
      go 0 t

(* ------------------------------------------------------------------ *)
(* Fault injection *)

module Chaos = struct
  type event = Types.chaos_event =
    | Chaos_attempt
    | Chaos_before_commit
    | Chaos_in_commit

  let set_hook h = Atomic.set chaos_hook h
end

(* ------------------------------------------------------------------ *)
(* Global statistics: lazy aggregation over the per-domain shards.  The
   totals are exact once the domains that produced them have been joined
   (the join is the happens-before edge); concurrent reads see a
   consistent-enough live snapshot. *)

type stats = {
  commits : int;
  read_only_commits : int;
  conflict_aborts : int;
  remote_aborts : int;
  explicit_aborts : int;
  starved : int;
  deferrals : int;
  remote_aborts_delivered : int;
  remote_aborts_late : int;
  handler_failures : int;
  region_parks : int;
  clock_bumps : int;
  clock_cas_retries : int;
  snapshot_reads : int;
  versions_reclaimed : int;
}

let global_stats () =
  {
    commits = stats_sum (fun s -> s.s_commits);
    read_only_commits = stats_sum (fun s -> s.s_ro_commits);
    conflict_aborts = stats_sum (fun s -> s.s_conflict_aborts);
    remote_aborts = stats_sum (fun s -> s.s_remote_aborts);
    explicit_aborts = stats_sum (fun s -> s.s_explicit_aborts);
    starved = stats_sum (fun s -> s.s_starved);
    deferrals = stats_sum (fun s -> s.s_deferrals);
    remote_aborts_delivered = stats_sum (fun s -> s.s_ra_delivered);
    remote_aborts_late = stats_sum (fun s -> s.s_ra_late);
    handler_failures = stats_sum (fun s -> s.s_handler_failures);
    region_parks = stats_sum (fun s -> s.s_region_parks);
    clock_bumps = stats_sum (fun s -> s.s_clock_bumps);
    clock_cas_retries = stats_sum (fun s -> s.s_clock_cas_retries);
    snapshot_reads = stats_sum (fun s -> s.s_snapshot_reads);
    versions_reclaimed = stats_sum (fun s -> s.s_versions_reclaimed);
  }

let commit_region_waits () = stats_sum (fun s -> s.s_region_waits)
let regions_held () = stats_sum (fun s -> s.s_regions_held)

let retry_histogram () =
  let row = Array.make hist_buckets 0 in
  List.iter
    (fun s -> Array.iteri (fun b c -> row.(b) <- row.(b) + c) s.s_hist)
    (all_stats ());
  row

(* Guarded reset: zeroing shards while another domain is mid-transaction
   would silently corrupt every aggregated counter (a commit recorded after
   the reset against aborts recorded before it), so refuse with a typed
   error instead.  The scan is exact when the in-flight transactions run on
   joined domains and conservative otherwise — a racing domain's increment
   may be missed, but callers holding the documented precondition (no
   concurrent transactions at all) never race. *)
let in_flight_transactions () = inflight_sum ()

let reset_stats () =
  let n = inflight_sum () in
  if n > 0 then raise (Not_quiescent { in_flight = n });
  stats_reset ()

(* ------------------------------------------------------------------ *)
(* TM_OPS instance for the transactional collection classes            *)

module Tm_ops : Tm_intf.TM_OPS with type txn = handle = struct
  type txn = handle

  let current = current
  let in_txn = in_txn
  let same_txn = same_txn
  let txn_id = txn_id

  type nonrec 'a local_key = 'a local_key

  let new_local_key = new_local_key
  let txn_local = txn_local

  type region = Types.region

  let new_region () = make_region ()
  let critical r f = region_critical r f
  let on_commit_prepared ?read_only ?regions r ~prepare ~apply =
    on_top_commit_prepared ?read_only ?regions r ~prepare ~apply
  let on_abort = on_top_abort
  let remote_abort = remote_abort
  let retry () = retry_now ()
  let in_snapshot = Types.in_snapshot
  let snapshot_stamp = Types.snapshot_stamp

  let begin_publish () =
    publish_window_enter ();
    bump_clock ()

  let end_publish () = publish_window_exit ()
  let reclaim_epoch () = oldest_active_epoch ()
  let note_reclaimed = Types.note_reclaimed
end
