open Types

exception Aborted
exception Starved of { attempts : int; elapsed : float }

exception Overloaded
(* Typed admission rejection: the admission gate (see {!Admission}) is
   configured with the [Shed] overload policy and either had no token for
   this request or the admitted transaction exhausted its budget.  The
   request ran no effects; the caller (load balancer, open-loop driver)
   decides whether to retry later, degrade, or count the shed. *)
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

(* ------------------------------------------------------------------ *)
(* Contention management *)

module Contention = struct
  type policy = Types.cm_policy =
    | Backoff of { base : int; max_exp : int; jitter : bool }
    | Karma
    | Greedy

  let default = default_cm
  let set_global p = Atomic.set global_cm p
  let global () = Atomic.get global_cm
  let name = policy_name
end

(* ------------------------------------------------------------------ *)
(* TM policy matrix: selection and the adaptive controller.

   The controller samples the sharded stats over epoch windows (one
   window = [adapt_epoch] completed transactions across all domains,
   counted per-domain to stay off shared cache lines) and derives two
   regime signals from the deltas: the read-only commit ratio and the
   abort rate.  A regime maps to a target policy; the global policy only
   switches after [adapt_hysteresis] consecutive windows agree on the
   same target (and it differs from the current one), so a transient
   burst cannot flap the system.  Every switch increments the sharded
   [s_policy_switches] counter, making flapping observable. *)

let adaptive_on = Atomic.make false
let adapt_epoch = Atomic.make 512 (* completed txns per controller window *)
let adapt_hysteresis = 2 (* consecutive agreeing windows before a switch *)

let adapt_min_window = 64
(* Minimum commits a window must span before its signals count.  Open-loop
   traffic arrives in bursts with idle gaps; a window that happens to close
   during a gap carries a handful of commits, and an abort-rate or
   read-ratio computed over single digits is noise that can flap
   [policy_switches].  A window smaller than this is skipped *without*
   advancing the baselines, so the sample keeps accumulating until the
   next tick sees at least [adapt_min_window] commits. *)

(* Single-writer under the [adapt_ticking] CAS guard below. *)
type adapt_state = {
  mutable a_commits : int;
  mutable a_ro : int;
  mutable a_aborts : int;
  mutable a_writes : int;
  mutable a_target : tm_policy; (* target of the last window *)
  mutable a_stable : int; (* consecutive windows agreeing on [a_target] *)
}

let adapt_state =
  { a_commits = 0; a_ro = 0; a_aborts = 0; a_writes = 0;
    a_target = pol_lazy_rv_wb; a_stable = 0 }

let adapt_ticking = Atomic.make false

let adapt_local_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(* Regime -> policy.  Read-dominated traffic wants the default: its
   read-only fast path commits without locks or clock bumps, which no
   visible-reader policy can match.  Contended write traffic wants
   encounter-time read-locking with undo logging: conflicts surface at
   first touch instead of after a wasted body, re-writes mutate in place
   without growing the redo log, and commits publish without re-locking.
   The mid abort band keeps invisible reads but acquires eagerly.  Even
   without aborts, write-dominated traffic (large write sets, almost no
   read-only commits) prefers undo logging: re-writes are
   allocation-free and the redo log's commit-time replay disappears. *)
let adapt_decide ~ro_ratio ~abort_rate ~writes_per_commit =
  if ro_ratio >= 0.60 then pol_lazy_rv_wb
  else if abort_rate >= 0.20 then pol_eager_rl_ul
  else if abort_rate >= 0.02 then pol_eager_rv_wb
  else if ro_ratio < 0.10 && writes_per_commit >= 6.0 then pol_eager_rl_ul
  else pol_lazy_rv_wb

let adapt_reset_window () =
  adapt_state.a_commits <- stats_sum (fun s -> s.s_commits);
  adapt_state.a_ro <- stats_sum (fun s -> s.s_ro_commits);
  adapt_state.a_aborts <-
    stats_sum (fun s -> s.s_conflict_aborts + s.s_remote_aborts);
  adapt_state.a_writes <- stats_sum (fun s -> s.s_tvar_writes);
  adapt_state.a_target <- Atomic.get global_tm_policy;
  adapt_state.a_stable <- 0

(* Called once per completed top-level transaction (and snapshot read).
   Off: one Atomic.get.  On: one domain-local increment until the local
   count crosses the window size, then at most one domain wins the CAS
   and evaluates the window. *)
let adaptive_tick () =
  if Atomic.get adaptive_on then begin
    let c = Domain.DLS.get adapt_local_key in
    incr c;
    if !c >= Atomic.get adapt_epoch then begin
      c := 0;
      if Atomic.compare_and_set adapt_ticking false true then begin
        let commits = stats_sum (fun s -> s.s_commits) in
        let ro = stats_sum (fun s -> s.s_ro_commits) in
        let aborts =
          stats_sum (fun s -> s.s_conflict_aborts + s.s_remote_aborts)
        in
        let writes = stats_sum (fun s -> s.s_tvar_writes) in
        let dc = commits - adapt_state.a_commits in
        let dro = ro - adapt_state.a_ro in
        let da = aborts - adapt_state.a_aborts in
        let dw = writes - adapt_state.a_writes in
        (* Under-sampled window (idle gap between arrival bursts): leave
           the baselines where they are and decide nothing — the commits
           roll into the next window until enough have accumulated. *)
        if dc >= adapt_min_window then begin
          adapt_state.a_commits <- commits;
          adapt_state.a_ro <- ro;
          adapt_state.a_aborts <- aborts;
          adapt_state.a_writes <- writes;
          let ro_ratio = float_of_int dro /. float_of_int dc in
          let abort_rate = float_of_int da /. float_of_int (dc + da) in
          let writes_per_commit = float_of_int dw /. float_of_int dc in
          let target = adapt_decide ~ro_ratio ~abort_rate ~writes_per_commit in
          if target == adapt_state.a_target then
            adapt_state.a_stable <- adapt_state.a_stable + 1
          else begin
            adapt_state.a_target <- target;
            adapt_state.a_stable <- 1
          end;
          if
            adapt_state.a_stable >= adapt_hysteresis
            && Atomic.get global_tm_policy != target
          then begin
            Atomic.set global_tm_policy target;
            let s = my_stats () in
            s.s_policy_switches <- s.s_policy_switches + 1
          end
        end;
        Atomic.set adapt_ticking false
      end
    end
  end

module Policy = struct
  type t = Types.tm_policy

  let lazy_rv_wb = pol_lazy_rv_wb
  let eager_rv_wb = pol_eager_rv_wb
  let lazy_rl_wb = pol_lazy_rl_wb
  let eager_rl_ul = pol_eager_rl_ul
  let all = all_tm_policies
  let name p = p.p_name
  let of_name = tm_policy_of_name

  let set_global p =
    Atomic.set adaptive_on false;
    Atomic.set global_tm_policy p

  let global () = Atomic.get global_tm_policy

  let enable_adaptive ?epoch () =
    (match epoch with Some e when e > 0 -> Atomic.set adapt_epoch e | _ -> ());
    adapt_reset_window ();
    Atomic.set adaptive_on true

  let disable_adaptive () = Atomic.set adaptive_on false
  let adaptive () = Atomic.get adaptive_on
  let switches () = stats_sum (fun s -> s.s_policy_switches)

  (* Windows spanning fewer commits than this are skipped by the
     controller (signals too noisy to act on); exposed for tests. *)
  let min_window_commits = adapt_min_window
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

(* Handlers carry the commit region they operate on; [None] means the
   process-wide fallback region (plain [on_commit] callers).  Handlers
   registered through these untyped entry points are never assumed
   read-only: only the two-phase registration can certify that. *)
let on_commit_in region h =
  match !(context ()) with
  | None -> h () (* auto-commit: the operation is its own transaction *)
  | Some t ->
      t.commit_handlers <-
        {
          ch_region = region;
          ch_regions = None;
          ch_prepare = None;
          ch_read_only = never_read_only;
          ch_apply = (fun _ -> h ());
        }
        :: t.commit_handlers

let on_commit h = on_commit_in None h

let on_abort h =
  match !(context ()) with
  | None -> () (* auto-commit transactions never abort *)
  | Some t -> t.abort_handlers <- h :: t.abort_handlers

(* Handler registration targeting the top-level transaction regardless of
   the current nesting depth: what the collection classes need, since lock
   ownership and compensation belong to the top-level outcome. *)
let on_top_commit_in region h =
  match !(context ()) with
  | None -> h ()
  | Some t ->
      let top = t.top in
      top.commit_handlers <-
        {
          ch_region = region;
          ch_regions = None;
          ch_prepare = None;
          ch_read_only = never_read_only;
          ch_apply = (fun _ -> h ());
        }
        :: top.commit_handlers

let on_top_commit h = on_top_commit_in None h

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

(* Program-directed abort with contention-manager arbitration.  When the
   caller is a transaction inside its own prepare phase (semantic conflict
   detection at commit), the caller's policy may decide to *defer* to the
   target instead of aborting it: Greedy yields to older start tickets,
   Karma to higher accumulated retry counts.  Deferring raises
   [Deferred_exn], unwinding the caller's commit attempt (nothing has been
   applied yet — prepare runs before the commit point) so it retries while
   the elder proceeds.  The oldest transaction in the system is never
   deferred-out and never aborted by a Greedy committer: starvation
   freedom for semantic conflicts.

   The status race against a target that is concurrently entering its own
   commit is resolved deterministically by the CAS loop below, and every
   outcome is counted: [Delivered] (we won the race, the target will
   observe the abort), [Already_aborted], or [Too_late] (the target passed
   its commit point first and serialises before the caller). *)
let remote_abort_outcome (t : handle) =
  (match !(context ()) with
  | Some self when self.top.in_prepare && self.top.txn_id <> t.txn_id ->
      let defer =
        Atomic.get t.top_status = Active
        && (match self.top.cm with
           | Greedy -> t.prio < self.top.prio
           | Karma -> t.retries > self.top.retries
           | Backoff _ -> false)
      in
      if defer then begin
        let s = my_stats () in
        s.s_deferrals <- s.s_deferrals + 1;
        raise Deferred_exn
      end
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
    let (W (tv, _)) = Hashtbl.find top.writes top.wids.(i) in
    Atomic.set tv.vlock top.acq_old.(i)
  done

(* Acquire write locks in tv_id order (no deadlock), spinning a bounded
   number of times on each before declaring a conflict.  [wids] is sorted
   at insertion and the pre-lock vlock values go into the [acq_old]
   scratch, so acquisition allocates nothing.  After each lock the
   visible readers of the tvar are drained — any policy's writer must
   wait out read-locking transactions, and when this transaction itself
   holds a read lock on the tvar it drains to its own residual count of
   one (the entry is released at attempt end, not here).  Lazy only:
   eager policies acquired at encounter time. *)
let lock_writes top =
  let rl = top.pol.p_read = Read_lock in
  for i = 0 to top.wlen - 1 do
    let (W (tv, _)) = Hashtbl.find top.writes top.wids.(i) in
    let rec try_lock spins =
      let cur = Atomic.get tv.vlock in
      if locked cur then
        if spins = 0 then begin
          release_locks top i;
          raise Conflict_exn
        end
        else begin
          Domain.cpu_relax ();
          try_lock (spins - 1)
        end
      else if Atomic.compare_and_set tv.vlock cur (cur + 1) then begin
        let self = if rl && rs_mem top.reads tv.tv_id then 1 else 0 in
        if readers_drained ~self tv then top.acq_old.(i) <- cur
        else begin
          Atomic.set tv.vlock cur;
          release_locks top i;
          raise Conflict_exn
        end
      end
      else try_lock spins
    in
    try_lock 1024
  done

let validate_reads top =
  let rs = top.reads in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < rs.r_len do
    if not (rentry_valid ~self:(Some top) rs.r_arr.(!i)) then ok := false;
    incr i
  done;
  !ok

(* Read-locking policies need no commit-time validation: every read
   entry holds a visible lock, so its tvar cannot have been republished
   since the read (strict two-phase locking).  Version checks would in
   fact spuriously fail there — a writer parked on one of our read locks
   has already marked the vlock. *)
let commit_validate top =
  top.pol.p_read = Read_lock || validate_reads top

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
  (* Collect everything first, sort by rid once, drop adjacent duplicates:
     O(n log n) with O(n) allocation, where the old List.exists-per-insert
     plan construction was O(n^2) — measurable once striped collections
     contribute dozens of stripe regions per commit. *)
  let sorted = List.sort (fun a b -> compare a.rid b.rid) all in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.rid = b.rid -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

(* Run every apply handler even if some raise; failures are aggregated
   (in registration order) and surfaced after the commit completes.  A
   raising handler can therefore never skip another collection's buffer
   application or semantic lock release.  [wv] is the commit stamp the
   handlers publish their shard versions at (0 on read-only paths). *)
let run_applies wv handlers =
  List.rev
    (List.fold_left
       (fun acc h ->
         try
           h.ch_apply wv;
           acc
         with e ->
           let s = my_stats () in
           s.s_handler_failures <- s.s_handler_failures + 1;
           e :: acc)
       [] handlers)

(* Publish the redo log at write version [wv]: per tvar — value, version
   chain (while the write lock is still held: chain publications are
   serialised by the vlock), then the unlocking vlock store.  The caller
   has opened the publication window ([publish_window_enter] before the
   bump that produced [wv]), so a concurrent snapshot pin either waits
   this publication out or pins above [wv]. *)
let publish_writes top wv =
  let min_epoch = oldest_active_epoch () in
  (match top.pol.p_version with
  | Ver_redo ->
      for i = 0 to top.wlen - 1 do
        let (W (tv, v)) = Hashtbl.find top.writes top.wids.(i) in
        Atomic.set tv.value v;
        hist_publish tv ~min_epoch wv v;
        Atomic.set tv.vlock wv
      done
  | Ver_undo ->
      (* In-place writes already happened at encounter time; the table
         holds the undo images.  Publish the live value into the chain
         and stamp the vlock — the commit is the unlock. *)
      for i = 0 to top.wlen - 1 do
        let (W (tv, _)) = Hashtbl.find top.writes top.wids.(i) in
        let v = Atomic.get tv.value in
        hist_publish tv ~min_epoch wv v;
        Atomic.set tv.vlock wv
      done);
  ring_publish wv (Array.sub top.wids 0 top.wlen)

let finish_commit top =
  Atomic.set top.top_status Committed;
  let s = my_stats () in
  s.s_commits <- s.s_commits + 1;
  s.s_tvar_writes <- s.s_tvar_writes + top.wlen

(* Publish the redo log and finish a handler-less writing commit.  Every
   mutating commit draws a write version: snapshot readers key visibility
   off unique commit stamps, so even commits that only mutate semantic
   state (handler path below) must advance the clock. *)
let publish_and_finish top =
  publish_window_enter ();
  let wv = bump_clock () in
  publish_writes top wv;
  publish_window_exit ();
  finish_commit top

let finish_read_only top =
  Atomic.set top.top_status Committed;
  let s = my_stats () in
  s.s_commits <- s.s_commits + 1;
  s.s_ro_commits <- s.s_ro_commits + 1

(* Commit a top-level transaction.  When the transaction registered
   handlers, the whole sequence

     acquire commit regions -> lock write set -> validate reads ->
     run prepare handlers (semantic conflict detection) ->
     flip to Committing -> run apply handlers -> publish memory writes ->
     Committed

   executes while holding the commit regions of every collection the
   handlers touch (acquired in rid order, hence deadlock-free), making the
   handlers' semantic conflict checks and buffer application atomic with
   the memory-level commit (multi-level transaction commit).  Commits whose
   handlers touch disjoint collections hold disjoint regions and proceed in
   parallel.

   Prepare handlers run *before* the commit point: an exception there
   (lost semantic race, contention-manager deferral, injected fault)
   releases the write locks and regions with nothing applied and retries
   the transaction.  Apply handlers run after the commit point under the
   aggregating wrapper.  Commit handlers must not access tvars: the
   collection classes operate on their wrapped structures inside
   [critical] regions instead (the region locks are reentrant, so a
   handler re-entering its own region's [critical] is fine).

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
(* Policy interaction.  Eager policies acquired their write locks at
   encounter time, so [lock_writes] is skipped and — crucially — the
   failure paths below must NOT release the write set: an aborting eager
   attempt still owns in-place (undo-logged) values that
   [release_policy_state] has to roll back before unlocking, and it runs
   on every abort path of [run_top].  Read-locking policies skip read
   validation ([commit_validate]) and drop their visible-reader counts in
   the same [release_policy_state], after the commit published. *)
let commit_top ?(run_handlers = true) top =
  let eager = top.pol.p_acquire = Acq_eager in
  let handlers = if run_handlers then List.rev top.commit_handlers else [] in
  if handlers = [] then
    if top.wlen = 0 then begin
      (* Pure read-only fast path: no locks, no regions, no clock. *)
      if not (commit_validate top) then raise Conflict_exn;
      chaos Chaos_in_commit;
      if not (Atomic.compare_and_set top.top_status Active Committing) then
        raise Remote_aborted_exn;
      finish_read_only top;
      release_policy_state top ~committed:true
    end
    else begin
      if not eager then lock_writes top;
      (try
         if not (commit_validate top) then raise Conflict_exn;
         chaos Chaos_in_commit;
         if not (Atomic.compare_and_set top.top_status Active Committing) then
           raise Remote_aborted_exn
       with e ->
         if not eager then release_locks top top.wlen;
         raise e);
      publish_and_finish top;
      release_policy_state top ~committed:true
    end
  else if top.wlen = 0 && List.for_all (fun h -> h.ch_read_only ()) handlers
  then begin
    (* Semantic read-only fast path: the collections buffered no
       mutations, so prepare would detect nothing and apply only releases
       semantic read locks — no commit regions are pre-acquired and the
       clock stays untouched.  The applies take their own [critical]
       sections, which is all lock release needs. *)
    if not (commit_validate top) then raise Conflict_exn;
    chaos Chaos_in_commit;
    if not (Atomic.compare_and_set top.top_status Active Committing) then
      raise Remote_aborted_exn;
    (* Commit point passed. *)
    let failures = run_applies 0 handlers in
    finish_read_only top;
    release_policy_state top ~committed:true;
    if failures <> [] then raise (Handler_failure { committed = true; failures })
  end
  else begin
    let regions = commit_regions handlers in
    List.iter region_lock regions;
    Fun.protect
      ~finally:(fun () -> List.iter region_unlock (List.rev regions))
      (fun () ->
        if not eager then lock_writes top;
        (try
           if not (commit_validate top) then raise Conflict_exn;
           chaos Chaos_in_commit;
           top.in_prepare <- true;
           List.iter
             (fun h ->
               match h.ch_prepare with Some p -> p () | None -> ())
             handlers;
           top.in_prepare <- false;
           if not (Atomic.compare_and_set top.top_status Active Committing)
           then raise Remote_aborted_exn
         with e ->
           top.in_prepare <- false;
           if not eager then release_locks top top.wlen;
           raise e);
        (* Commit point passed.  The publication window opens before the
           bump: a snapshot pin concurrent with this commit either waits
           out the chain publications below (tvar chains and the semantic
           shard chains the applies publish at [wv]) or pins above [wv].
           Every mutating commit draws a write version here — semantic-
           only commits included — because snapshot visibility is keyed
           off unique commit stamps. *)
        publish_window_enter ();
        let wv = bump_clock () in
        let failures = run_applies wv handlers in
        publish_writes top wv;
        publish_window_exit ();
        finish_commit top;
        release_policy_state top ~committed:true;
        if failures <> [] then
          raise (Handler_failure { committed = true; failures }))
  end

(* Newest-first: compensations undo in reverse registration order.  Every
   handler runs even if one raises; failures are counted and returned for
   the caller to surface as [Handler_failure]. *)
let run_abort_handlers handlers =
  List.rev
    (List.fold_left
       (fun acc h ->
         try
           h ();
           acc
         with e ->
           let s = my_stats () in
           s.s_handler_failures <- s.s_handler_failures + 1;
           e :: acc)
       [] handlers)

let mark_aborted t = ignore (Atomic.compare_and_set t.top_status Active Aborted)

(* Run [f] as a fresh top-level transaction, retrying on conflicts and
   remote aborts under the contention policy until it commits or the
   budget (max retries / wall-clock deadline) is exhausted, which raises
   [Starved].  With [defer_handlers], commit handlers are not executed at
   commit; the caller (open nesting) migrates them to the suspended parent
   instead.

   The descriptor comes from the domain-local pool and is reset in place
   per attempt (fresh leased txn_id, cleared grow-only read/write sets),
   so the retry loop allocates nothing.  It is released back to the pool
   on every exit path after compensation handlers have run — except a
   committed open-nested one, which [open_nested] releases itself. *)
let run_top ?(defer_handlers = false) ?cm ?pol ?budget f =
  let ctx = context () in
  let cm = match cm with Some c -> c | None -> Atomic.get global_cm in
  let pol = match pol with Some p -> p | None -> Atomic.get global_tm_policy in
  let prio = fresh_prio () in
  let t0 =
    match budget with
    | Some { max_seconds = Some _; _ } -> Monoclock.now ()
    | _ -> 0.
  in
  (* [n] is the index of the attempt that would run next; called after
     attempt [n - 1] failed. *)
  let check_budget n =
    match budget with
    | None -> ()
    | Some b ->
        let elapsed =
          match b.max_seconds with
          | Some _ -> Monoclock.now () -. t0
          | None -> 0.
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
          record_retries cm n;
          raise (Starved { attempts = n; elapsed })
        end
  in
  let t = acquire_top ~cm ~prio ~pol in
  t.open_attempt <- defer_handlers;
  (* In-flight accounting: the quiescence probe behind [reset_stats].  The
     increment/decrement bracket every exit path below (commit, starvation,
     explicit abort, escaping exception), always on the same domain, so a
     quiescent domain's count nets to zero. *)
  (my_stats ()).s_inflight <- (my_stats ()).s_inflight + 1;
  let abort_and_compensate () =
    mark_aborted t;
    (* Roll back policy-owned state (eager write locks, undo images,
       visible read locks) before compensations run: a compensation may
       start its own transaction against the same tvars. *)
    release_policy_state t ~committed:false;
    (* An aborting open-nested attempt discards the handlers its body
       registered (paper §4): its rolled-back effects need no
       compensation.  The collections' handlers still run: the semantic
       locks they release were taken in [critical] sections, which commit
       at once, and the attempt owns the transaction-local values they
       clean up.  A transaction that owns its handlers runs them all. *)
    run_abort_handlers
      (if defer_handlers then t.local_aborts else t.abort_handlers)
  in
  let rec attempt n =
    reset_for_attempt t;
    t.retries <- n;
    ctx := t.self_opt;
    match
      chaos Chaos_attempt;
      let r = f () in
      chaos Chaos_before_commit;
      commit_top ~run_handlers:(not defer_handlers) t;
      r
    with
    | r ->
        ctx := None;
        record_retries cm n;
        adaptive_tick ();
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
        let failures = abort_and_compensate () in
        if failures <> [] then
          raise (Handler_failure { committed = false; failures });
        check_budget (n + 1);
        cm_wait cm n;
        attempt (n + 1)
    | exception (Handler_failure _ as e)
      when Atomic.get t.top_status = Committed ->
        (* Our own commit completed; apply-handler failures surface after
           the fact, with the transaction's effects in place. *)
        ctx := None;
        record_retries cm n;
        raise e
    | exception Explicit_abort_exn ->
        let s = my_stats () in
        s.s_explicit_aborts <- s.s_explicit_aborts + 1;
        ctx := None;
        let failures = abort_and_compensate () in
        if failures <> [] then
          raise (Handler_failure { committed = false; failures });
        raise Aborted
    | exception e ->
        (* Any other exception aborts the transaction and propagates; a
           failure raised by a compensation handler is counted but the
           original exception wins. *)
        ctx := None;
        ignore (abort_and_compensate ());
        raise e
  in
  match attempt 0 with
  | r ->
      (my_stats ()).s_inflight <- (my_stats ()).s_inflight - 1;
      (* [open_nested] decides itself whether the descriptor goes back. *)
      if not defer_handlers then release_top t;
      (r, t)
  | exception e ->
      (my_stats ()).s_inflight <- (my_stats ()).s_inflight - 1;
      release_top t;
      raise e

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
          let id = child.wids.(i) in
          if not (Hashtbl.mem parent.writes id) then wids_insert parent id
        done;
        Hashtbl.iter (fun k w -> Hashtbl.replace parent.writes k w) child.writes;
        parent.commit_handlers <- child.commit_handlers @ parent.commit_handlers;
        parent.abort_handlers <- child.abort_handlers @ parent.abort_handlers;
        ctx := parent.self_opt;
        r
    | exception Child_conflict_exn ->
        (* Partial rollback: only the child's tentative state is dropped. *)
        ctx := parent.self_opt;
        cm_wait parent.top.cm n;
        attempt (n + 1)
    | exception e ->
        ctx := parent.self_opt;
        raise e
  in
  attempt 0

let atomic ?policy ?tm_policy ?budget ?on_starved f =
  if Types.in_snapshot () then
    invalid_arg "Stm.atomic: inside a snapshot read section";
  match !(context ()) with
  | None -> (
      match on_starved with
      | None -> fst (run_top ?cm:policy ?pol:tm_policy ?budget f)
      | Some fallback -> (
          try fst (run_top ?cm:policy ?pol:tm_policy ?budget f)
          with Starved _ -> fallback ()))
  | Some parent ->
      (* Closed nesting with partial rollback is a default-policy
         optimisation: visible read locks and in-place undo state are
         owned per top-level attempt, so the other policies run nested
         bodies flattened (subsumption) — a child conflict retries the
         whole top level, which [run_top] already does. *)
      if parent.top.strategy == strategy_lazy_rv_wb then
        closed_nested_in parent f
      else f ()

let closed_nested f = atomic f

(* Starvation fallback: run [f] as a transaction while holding the
   process-wide fallback commit region for the whole attempt, so
   serialised fallbacks never contend with each other.  The fallback
   region has the smallest rid, so holding it while the commit acquires
   collection regions preserves the global acquisition order. *)
let serialised f =
  if in_txn () then f ()
  else begin
    region_lock global_commit_region;
    Fun.protect
      ~finally:(fun () -> region_unlock global_commit_region)
      (fun () -> fst (run_top f))
  end

(* ------------------------------------------------------------------ *)
(* Admission control: a process-wide token-bucket gate in front of
   [atomic], plus an overload policy deciding what happens to traffic the
   gate (or a transaction budget) rejects.

   Open-loop traffic does not slow down when the system saturates — the
   arrival rate is set by the outside world.  Without a gate, offered load
   past the knee of the throughput/latency curve makes every queue grow
   without bound: p99 explodes and goodput (requests completing within
   their deadline) collapses even though raw commit throughput looks
   fine.  The gate holds admitted load at a configured sustainable rate:

   - [Shed]: overflow is rejected immediately with the typed
     [Overloaded] exception and counted in [s_shed].  Admitted requests
     run at the configured rate and keep pre-knee latency.
   - [Serialise]: overflow is routed through [serialised] — the
     process-wide fallback commit region — so excess transactions trickle
     through one at a time instead of amplifying contention.  Nothing is
     rejected, at the price of overflow latency.

   The same overload policy is wired through PR 2's transaction budgets:
   an *admitted* transaction that exhausts its retry/time budget
   ([Starved]) is handed to the overload path instead of surfacing the
   starvation — under contention storms Shed converts starvation into
   typed rejections and Serialise into guaranteed (serial) completion.

   Exactly one of [s_admitted] / [s_shed] / [s_serialised_overflow] is
   incremented per [Admission.run] call, so the three counters ledger
   against offered load. *)

module Admission = struct
  type overload_policy = Shed | Serialise

  let policy_name = function Shed -> "shed" | Serialise -> "serialise"

  type gate = {
    g_rate : float; (* tokens per second *)
    g_burst : float; (* bucket capacity *)
    g_policy : overload_policy;
    g_budget : budget option; (* default budget for admitted transactions *)
    g_lock : Mutex.t;
    mutable g_tokens : float;
    mutable g_last : float;
  }

  let gate : gate option Atomic.t = Atomic.make None

  let configure ?(burst = 64) ?budget ~rate ~policy () =
    if rate <= 0. then
      invalid_arg "Stm.Admission.configure: rate must be positive";
    Atomic.set gate
      (Some
         {
           g_rate = rate;
           g_burst = float_of_int (max 1 burst);
           g_policy = policy;
           g_budget = budget;
           g_lock = Mutex.create ();
           g_tokens = float_of_int (max 1 burst);
           g_last = Monoclock.now ();
         })

  let disable () = Atomic.set gate None
  let enabled () = Option.is_some (Atomic.get gate)

  let current_policy () =
    Option.map (fun g -> g.g_policy) (Atomic.get gate)

  (* Lazy refill under the gate mutex: the bucket is a contended shared
     resource by design (it *is* the throttle), and the critical section
     is a handful of float operations. *)
  let try_admit g =
    Mutex.protect g.g_lock (fun () ->
        let now = Monoclock.now () in
        (* The clock is clamped monotone, but the refill keeps its own
           guard: a gate configured on one domain and refilled on another
           orders [g_last] through the gate mutex, not the clock CAS, so
           never let a stale reading drain the bucket. *)
        let tokens =
          Float.min g.g_burst
            (g.g_tokens +. (Float.max 0. (now -. g.g_last) *. g.g_rate))
        in
        g.g_last <- now;
        if tokens >= 1.0 then begin
          g.g_tokens <- tokens -. 1.0;
          true
        end
        else begin
          g.g_tokens <- tokens;
          false
        end)

  let overflow g f =
    let s = my_stats () in
    match g.g_policy with
    | Shed ->
        s.s_shed <- s.s_shed + 1;
        raise Overloaded
    | Serialise ->
        s.s_serialised_overflow <- s.s_serialised_overflow + 1;
        serialised f

  (* Gated [atomic].  No gate configured -> plain [atomic].  Calls from
     inside a transaction are never gated (the enclosing top level was
     already admitted): they run as ordinary nested transactions. *)
  let run ?policy ?tm_policy ?budget f =
    match Atomic.get gate with
    | None -> atomic ?policy ?tm_policy ?budget f
    | Some _ when in_txn () -> atomic ?policy ?tm_policy ?budget f
    | Some g ->
        if try_admit g then begin
          let budget =
            match budget with Some _ -> budget | None -> g.g_budget
          in
          match atomic ?policy ?tm_policy ?budget f with
          | r ->
              let s = my_stats () in
              s.s_admitted <- s.s_admitted + 1;
              r
          | exception Starved _ -> overflow g f
          | exception e ->
              (* A user exception escaping an admitted transaction still
                 consumed the admission: count it before re-raising, so
                 exactly one ledger column is incremented per call even on
                 the failure path. *)
              let s = my_stats () in
              s.s_admitted <- s.s_admitted + 1;
              raise e
        end
        else overflow g f

  let admitted () = stats_sum (fun s -> s.s_admitted)
  let shed () = stats_sum (fun s -> s.s_shed)
  let serialised_overflow () = stats_sum (fun s -> s.s_serialised_overflow)
end

let open_nested f =
  let ctx = context () in
  match !ctx with
  | None -> fst (run_top f)
  | Some parent ->
      ctx := None;
      (match run_top ~defer_handlers:true f with
      | r, open_txn ->
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
        s.s_snapshot_reads <- s.s_snapshot_reads + 1;
        adaptive_tick ())
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
  policy_switches : int;
  admitted : int;
  shed : int;
  serialised_overflow : int;
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
    policy_switches = stats_sum (fun s -> s.s_policy_switches);
    admitted = stats_sum (fun s -> s.s_admitted);
    shed = stats_sum (fun s -> s.s_shed);
    serialised_overflow = stats_sum (fun s -> s.s_serialised_overflow);
  }

let commit_region_waits () = stats_sum (fun s -> s.s_region_waits)
let regions_held () = stats_sum (fun s -> s.s_regions_held)

let retry_histogram () =
  [ Contention.default; Karma; Greedy ]
  |> List.map (fun p ->
         let i = policy_index p in
         let row = Array.make hist_buckets 0 in
         List.iter
           (fun s -> Array.iteri (fun b c -> row.(b) <- row.(b) + c) s.s_hist.(i))
           (all_stats ());
         (policy_name p, row))

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
  let on_commit r h = on_top_commit_in (Some r) h
  let on_commit_prepared ?read_only ?regions r ~prepare ~apply =
    on_top_commit_prepared ?read_only ?regions r ~prepare ~apply
  let on_abort = on_top_abort
  let remote_abort = remote_abort
  let self_abort () = self_abort ()
  let retry () = retry_now ()
  let in_snapshot = Types.in_snapshot
  let snapshot_stamp = Types.snapshot_stamp

  let begin_publish () =
    publish_window_enter ();
    bump_clock ()

  let end_publish () = publish_window_exit ()
  let reclaim_epoch () = oldest_active_epoch ()
  let note_reclaimed = Types.note_reclaimed
  let version_chain_bound = Types.version_chain_bound

  let validate_policy ~support name =
    match tm_policy_of_name name with
    | None -> invalid_arg (Printf.sprintf "unknown TM policy %S" name)
    | Some p ->
        let reject axis =
          invalid_arg
            (Printf.sprintf
               "TM policy %s: this collection does not support %s" name axis)
        in
        if p.p_acquire = Acq_eager && not support.Tm_intf.ps_eager_acquire
        then reject "encounter-time acquisition";
        if p.p_read = Read_lock && not support.Tm_intf.ps_read_locking then
          reject "read locking";
        if p.p_version = Ver_undo && not support.Tm_intf.ps_undo_logging then
          reject "undo logging"

  let txn_policy_name () =
    match !(context ()) with
    | None -> (Atomic.get global_tm_policy).p_name
    | Some t -> t.top.pol.p_name
end
