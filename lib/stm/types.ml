(* Internal representation shared by Tvar and Stm.

   The design is a TL2-style software TM with a global version clock:
   - every tvar carries a versioned lock word [vlock] (even = version of the
     committed value, odd = write-locked by a committer);
   - transactions buffer writes (redo log) and validate their read set
     against the clock at commit;
   - a top-level transaction can be aborted remotely (program-directed
     abort) by CASing its status word, which is the mechanism semantic
     conflict detection uses to abort readers holding conflicting locks.

   Hot-path representation choices:
   - the read set is a deduplicating growable array plus a tv_id -> slot
     table, so re-reading a tvar is an O(1) no-op and nested-transaction
     merges are index-aware bulk appends;
   - read-version extension re-checks every nesting level's reads tvar by
     tvar, the rescan that invisible reads make inherent;
   - the write set is two grow-only arrays kept in step: the tv_ids in
     ascending order and their buffered entries.  Lookups and inserts
     binary-search the ids, and commit-time locking, publication and
     release walk the arrays in order, so the write set needs no hashtable
     and commit-time lock acquisition allocates nothing;
   - every per-transaction touch of shared mutable state is gone from the
     hot loop: statistics are sharded per domain (aggregated lazily),
     transaction ids and priority tickets are leased to domains in blocks,
     and top-level descriptors are pooled in domain-local storage and
     reused across attempts and transactions (grow-only scratch).

   Semantic commit phases (commits that run commit handlers) are serialised
   per [region]: each collection owns a region, handlers are registered
   against it, and a committing transaction acquires the (rid-sorted, hence
   deadlock-free) set of regions its handlers touch.  Commits into disjoint
   collections therefore proceed in parallel; handlers registered with no
   region fall back to a process-wide region, preserving the old global
   serialisation for them. *)

type status = Active | Committing | Committed | Aborted

exception Conflict_exn
(* The whole top-level transaction lost a memory-level race; retry it. *)

exception Child_conflict_exn
(* Only the innermost closed-nested child is invalid; partial rollback. *)

exception Remote_aborted_exn
(* The transaction was aborted by another transaction (semantic conflict). *)

exception Explicit_abort_exn
(* The program requested its own abort. *)

exception Deferred_exn
(* The committing transaction's contention manager chose to yield to an
   older lock holder instead of aborting it; retry. *)

(* ------------------------------------------------------------------ *)
(* Contention management.  The policy decides two things: how long an
   aborted transaction waits before retrying, and — during the semantic
   prepare phase — whether a committer aborts a conflicting lock holder or
   defers to it (see [Stm.remote_abort]).  [Backoff] is the seed behaviour
   (always abort the other, jittered exponential wait); [Greedy] defers to
   transactions with an older start ticket, which totally orders
   transactions and therefore guarantees the oldest transaction in the
   system is never deferred-out or aborted semantically: starvation
   freedom for semantic conflicts. *)

type cm_policy = Backoff | Greedy

let default_cm = Backoff
let global_cm : cm_policy Atomic.t = Atomic.make default_cm

(* Per-domain splitmix64 state for backoff jitter: avoids a shared Random
   state (contention) and keeps single-domain runs deterministic. *)
let jitter_key : int64 ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (Int64.of_int ((7919 * ((Domain.self () :> int) + 1)) lxor 0x5bf03635)))

let rand_bits () =
  let r = Domain.DLS.get jitter_key in
  let open Int64 in
  r := add !r 0x9E3779B97F4A7C15L;
  let z = !r in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 1)

let rand_int bound = if bound <= 0 then 0 else rand_bits () mod bound

(* ------------------------------------------------------------------ *)
(* Sharded statistics.  Every counter the hot loop touches lives in a
   per-domain record written only by its owning domain — no shared cache
   line is dirtied per transaction.  Records are registered in a global
   list on first use and aggregated lazily by [Stm.global_stats].

   Reading another domain's plain mutable int is a benign race: values are
   word-sized (no tearing) and exact once the writing domain has been
   joined, which is when the tests and benches read them.  [reset] likewise
   assumes quiescence (no concurrent transactions), matching how
   [Stm.reset_stats] has always been used between bench phases.

   The records end in explicit pad words so that two domains' records can
   never share more than a boundary cache line even if the major heap
   places them back to back. *)

let hist_buckets = 16

let policy_index = function Backoff -> 0 | Greedy -> 1
let policy_name = function Backoff -> "backoff" | Greedy -> "greedy"

type domain_stats = {
  mutable s_commits : int;
  mutable s_ro_commits : int; (* commits taking the read-only fast path *)
  mutable s_conflict_aborts : int;
  mutable s_remote_aborts : int;
  mutable s_explicit_aborts : int;
  mutable s_starved : int;
  mutable s_deferrals : int;
  mutable s_ra_delivered : int;
  mutable s_ra_late : int;
  mutable s_handler_failures : int;
  mutable s_region_waits : int;
  mutable s_region_parks : int;
      (* region waits that outlasted the spin and parked in [Mutex.lock] *)
  mutable s_regions_held : int;
  mutable s_clock_bumps : int;
  mutable s_clock_cas_retries : int;
  mutable s_snapshot_reads : int; (* completed snapshot-read transactions *)
  mutable s_versions_reclaimed : int; (* chain entries reclaimed by epoch *)
  mutable s_inflight : int;
      (* top-level transactions of this domain currently between their
         first attempt and their final outcome.  Not a statistic: a
         quiescence probe ([Stm.reset_stats] refuses to run while any
         shard's count is non-zero), so [stats_reset] must never zero it. *)
  s_hist : int array array; (* policy x retry bucket *)
  (* cache-line padding *)
  mutable s_pad0 : int;
  mutable s_pad1 : int;
  mutable s_pad2 : int;
  mutable s_pad3 : int;
  mutable s_pad4 : int;
  mutable s_pad5 : int;
  mutable s_pad6 : int;
  mutable s_pad7 : int;
}

let fresh_stats () =
  {
    s_commits = 0;
    s_ro_commits = 0;
    s_conflict_aborts = 0;
    s_remote_aborts = 0;
    s_explicit_aborts = 0;
    s_starved = 0;
    s_deferrals = 0;
    s_ra_delivered = 0;
    s_ra_late = 0;
    s_handler_failures = 0;
    s_region_waits = 0;
    s_region_parks = 0;
    s_regions_held = 0;
    s_clock_bumps = 0;
    s_clock_cas_retries = 0;
    s_snapshot_reads = 0;
    s_versions_reclaimed = 0;
    s_inflight = 0;
    s_hist = Array.init 2 (fun _ -> Array.make hist_buckets 0);
    s_pad0 = 0;
    s_pad1 = 0;
    s_pad2 = 0;
    s_pad3 = 0;
    s_pad4 = 0;
    s_pad5 = 0;
    s_pad6 = 0;
    s_pad7 = 0;
  }

(* Registry of every domain's record, lock-free push on first use.  Records
   of finished domains stay registered (their counts must keep contributing
   to the aggregate); the list length is bounded by the number of domains
   ever spawned, which is small. *)
let stats_registry : domain_stats list Atomic.t = Atomic.make []

let rec registry_push s =
  let cur = Atomic.get stats_registry in
  if not (Atomic.compare_and_set stats_registry cur (s :: cur)) then
    registry_push s

let stats_key : domain_stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = fresh_stats () in
      registry_push s;
      s)

let my_stats () = Domain.DLS.get stats_key
let all_stats () = Atomic.get stats_registry
let stats_sum f = List.fold_left (fun acc s -> acc + f s) 0 (all_stats ())

let stats_reset () =
  List.iter
    (fun s ->
      s.s_commits <- 0;
      s.s_ro_commits <- 0;
      s.s_conflict_aborts <- 0;
      s.s_remote_aborts <- 0;
      s.s_explicit_aborts <- 0;
      s.s_starved <- 0;
      s.s_deferrals <- 0;
      s.s_ra_delivered <- 0;
      s.s_ra_late <- 0;
      s.s_handler_failures <- 0;
      s.s_region_waits <- 0;
      s.s_region_parks <- 0;
      s.s_regions_held <- 0;
      s.s_clock_bumps <- 0;
      s.s_clock_cas_retries <- 0;
      s.s_snapshot_reads <- 0;
      s.s_versions_reclaimed <- 0;
      (* [s_inflight] is deliberately left alone: it is a liveness probe,
         not a counter, and zeroing it would erase the evidence that a
         caller violated the quiescence precondition. *)
      Array.iter (fun row -> Array.fill row 0 hist_buckets 0) s.s_hist)
    (all_stats ())

let inflight_sum () = stats_sum (fun s -> s.s_inflight)

(* Per-policy retry histograms: bucket 0 = committed first try, bucket k
   = retry count with k significant bits (1, 2-3, 4-7, ...).  Recorded at
   commit and at starvation, per policy of the finishing transaction. *)
let record_retries cm n =
  let rec bits n = if n <= 0 then 0 else 1 + bits (n lsr 1) in
  let b = if n = 0 then 0 else min (hist_buckets - 1) (bits n) in
  let row = (my_stats ()).s_hist.(policy_index cm) in
  row.(b) <- row.(b) + 1

(* ------------------------------------------------------------------ *)
(* Id leases.  Transaction ids and priority tickets are process-unique but
   no longer drawn one fetch_and_add at a time: each domain leases a block
   of [lease_block] ids and hands them out from domain-local state, so the
   shared counters are touched once per thousand transactions instead of
   once per transaction (and per nested child).

   Priority tickets keep their total order — disjoint blocks never collide
   — but a block is only as old as its lease, so Greedy's "older start
   ticket wins" is exact within a domain and approximate across domains by
   up to one block.  The starvation guarantee survives: the transaction
   holding the globally smallest live ticket is still never deferred-out,
   and every other domain's tickets climb past any stalled ticket after at
   most [lease_block] local transactions, which bounds the transient. *)

let lease_block = 1024

type id_lease = { mutable l_next : int; mutable l_limit : int }

let next_txn_id : int Atomic.t = Atomic.make 1
let next_prio : int Atomic.t = Atomic.make 1
let next_tv_id : int Atomic.t = Atomic.make 1

let txn_id_lease_key : id_lease Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { l_next = 0; l_limit = 0 })

let prio_lease_key : id_lease Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { l_next = 0; l_limit = 0 })

let lease_from counter l =
  if l.l_next >= l.l_limit then begin
    let base = Atomic.fetch_and_add counter lease_block in
    l.l_next <- base;
    l.l_limit <- base + lease_block
  end;
  let id = l.l_next in
  l.l_next <- id + 1;
  id

let fresh_txn_id () = lease_from next_txn_id (Domain.DLS.get txn_id_lease_key)
let fresh_prio () = lease_from next_prio (Domain.DLS.get prio_lease_key)

(* ------------------------------------------------------------------ *)

(* Length a version chain (tvar or semantic shard) settles at once no
   snapshot reader is pinned: the newest version and the one it replaced.
   Chains grow past it only while a reader pinned at an older epoch is
   still active; the next publication cuts them back (see [Coll.Vchain]). *)
let version_chain_bound = 2

type 'a tvar_repr = {
  tv_id : int;
  value : 'a Atomic.t;
  vlock : int Atomic.t;
  hist : 'a Coll.Vchain.t;
      (* committed versions a snapshot reader can still resolve, stamped
         with the commit clock; written only while [vlock] is held (commit,
         non-transactional store), read lock-free by snapshot readers *)
}

type rentry = R : 'a tvar_repr * int -> rentry
type wentry = W : 'a tvar_repr * 'a -> wentry

(* ------------------------------------------------------------------ *)
(* Deduplicated read set: growable array + tv_id -> slot index.        *)

type read_set = {
  mutable r_arr : rentry array;
  mutable r_len : int;
  r_idx : (int, int) Hashtbl.t; (* tv_id -> index into [r_arr] *)
}

let dummy_tvar =
  {
    tv_id = 0;
    value = Atomic.make 0;
    vlock = Atomic.make 0;
    hist = Coll.Vchain.make 0 0;
  }

let dummy_rentry = R (dummy_tvar, 0)

(* Filler for unused write-set slots, and [find_write]'s "no write"
   answer (compared physically). *)
let no_write = W (dummy_tvar, 0)

let rs_create () = { r_arr = [||]; r_len = 0; r_idx = Hashtbl.create 16 }
let rs_mem rs tv_id = Hashtbl.mem rs.r_idx tv_id

(* Reuse: drop the entries but keep the array and the index's bucket
   vector (Hashtbl.clear does not shrink), so a recycled descriptor's read
   set allocates nothing. *)
let rs_clear rs =
  rs.r_len <- 0;
  Hashtbl.clear rs.r_idx

let rs_push rs (R (tv, _) as e) =
  if not (Hashtbl.mem rs.r_idx tv.tv_id) then begin
    let cap = Array.length rs.r_arr in
    if rs.r_len = cap then begin
      let arr = Array.make (max 8 (2 * cap)) dummy_rentry in
      Array.blit rs.r_arr 0 arr 0 rs.r_len;
      rs.r_arr <- arr
    end;
    rs.r_arr.(rs.r_len) <- e;
    Hashtbl.add rs.r_idx tv.tv_id rs.r_len;
    rs.r_len <- rs.r_len + 1
  end

(* Index-aware bulk append (closed-nested merge): entries already present
   in [dst] are skipped in O(1) via the index. *)
let rs_append dst src =
  for i = 0 to src.r_len - 1 do
    rs_push dst src.r_arr.(i)
  done

(* ------------------------------------------------------------------ *)
(* Commit regions: reentrant mutexes with a total order, owned by the
   collection classes and acquired as a set during semantic commits.    *)

type region = {
  rid : int; (* acquisition order, preventing deadlock *)
  rmx : Mutex.t;
  rowner : int Atomic.t; (* Domain id of the holder; -1 = unowned *)
  mutable rdepth : int; (* reentrancy depth, owner-modified only *)
}

let next_region_id = Atomic.make 1

let make_region () =
  {
    rid = Atomic.fetch_and_add next_region_id 1;
    rmx = Mutex.create ();
    rowner = Atomic.make (-1);
    rdepth = 0;
  }

(* Spin rounds before a contended [region_lock] parks.  A region is held
   for one commit's prepare and apply, typically microseconds, while a
   park costs a futex sleep plus a wake-up and leaves the waiter's CPU
   idle until the scheduler brings it back.  Each round polls [rowner]
   before it retries the mutex, so the spin reads the shared line
   instead of writing it.  A round is one [Domain.cpu_relax], about
   30 ns on the 2-vCPU Xeon VM this was tuned on, so the bound spins for
   about 60 us, past nearly every hold: on the paper-mix jbb benchmark
   128 rounds still parked on 279 of 470 waits per 1 000 transactions
   and 512 on 66 of 435, while 2048 parks on fewer than 1. *)
let region_spin_rounds = 2048

(* Reentrancy: [rowner] is only ever set to a domain's own id by that
   domain while it holds [rmx], so reading our own id proves we hold the
   lock; any other value (including a torn impossibility) sends us to the
   real Mutex.lock.  A failed first [try_lock] counts as a region wait; the
   waiter then spins up to [region_spin_rounds] before it parks, and each
   park counts as well.  The wait/park/held counters are sharded: lock and
   unlock always happen on the same domain (the critical sections are
   scoped), so each domain's held-count nets to zero when it is
   quiescent. *)
let rec region_spin r n =
  if n = 0 then false
  else begin
    Domain.cpu_relax ();
    (Atomic.get r.rowner = -1 && Mutex.try_lock r.rmx)
    || region_spin r (n - 1)
  end

let region_lock r =
  let me = (Domain.self () :> int) in
  if Atomic.get r.rowner = me then r.rdepth <- r.rdepth + 1
  else begin
    if not (Mutex.try_lock r.rmx) then begin
      let s = my_stats () in
      s.s_region_waits <- s.s_region_waits + 1;
      if not (region_spin r region_spin_rounds) then begin
        s.s_region_parks <- s.s_region_parks + 1;
        Mutex.lock r.rmx
      end
    end;
    Atomic.set r.rowner me;
    r.rdepth <- 1;
    let s = my_stats () in
    s.s_regions_held <- s.s_regions_held + 1
  end

let region_unlock r =
  if r.rdepth > 1 then r.rdepth <- r.rdepth - 1
  else begin
    r.rdepth <- 0;
    Atomic.set r.rowner (-1);
    let s = my_stats () in
    s.s_regions_held <- s.s_regions_held - 1;
    Mutex.unlock r.rmx
  end

(* Hand-rolled instead of Fun.protect: critical sections run several
   times per transaction on every collection path, and the [~finally]
   closure allocation is measurable at that frequency. *)
let region_critical r f =
  region_lock r;
  match f () with
  | v ->
      region_unlock r;
      v
  | exception e ->
      region_unlock r;
      raise e

(* Fallback region for commit handlers registered without one. *)
let global_commit_region = make_region ()

(* ------------------------------------------------------------------ *)

(* A commit handler has up to two phases.  [ch_prepare] (semantic conflict
   detection) runs before the commit point, while the transaction is still
   Active and abortable, so it may raise — a contention-manager deferral
   or an injected conflict there simply retries the transaction, with
   nothing applied.  [ch_apply] (buffer application + semantic lock
   release) runs after the commit point; apply handlers are executed under
   a protective wrapper that never skips the remaining handlers and
   aggregates anything raised into [Stm.Handler_failure].

   [ch_read_only] is the read-only probe supplied by the collection
   classes: it returns [true] when the handler's transaction-local state
   holds no pending mutation (empty store buffer), i.e. when [ch_prepare]
   would detect nothing and [ch_apply] only releases semantic read locks.
   A commit whose handlers are all read-only (and that wrote no tvars)
   takes the read-only fast path: no commit regions are pre-acquired, no
   prepare phase runs, and the global clock is untouched. *)
type commit_handler = {
  ch_region : region option;
      (* the region the handler operates on; [None] = process-wide fallback *)
  ch_regions : (unit -> region list) option;
      (* commit-time region plan for striped collections: evaluated once at
         commit, the returned stripe regions replace [ch_region] in the
         pre-acquired set.  The commit acquires the rid-sorted deduplicated
         union across all handlers, so plans that share stripes compose
         deadlock-free.  [None] = the single [ch_region] (or fallback). *)
  ch_prepare : (unit -> unit) option;
  ch_read_only : unit -> bool;
  ch_apply : int -> unit;
      (* receives the commit stamp (write version) so collections can
         publish the new committed shard versions into their chains; 0 on
         read-only fast paths, which publish nothing *)
}

let never_read_only () = false

(* Transaction-local values ([txn_local] in stm.ml), each tagged with its
   key; [Type.Id] recovers the value's type on lookup.  [live] holds this
   attempt's values; [spare] the previous attempt's, whose handlers have
   run, offered back for reuse and dropped one attempt later
   ([retire_slots]).  Both arrays are grow-only. *)
type slot = Slot : 'a Type.Id.t * 'a -> slot

type slots = {
  mutable live : slot array;
  mutable n_live : int;
  mutable spare : slot array;
  mutable n_spare : int;
}

let no_slot = Slot (Type.Id.make (), ())

type txn = {
  mutable txn_id : int;
      (* fresh per attempt (leased); mutable because descriptors are pooled *)
  mutable top_status : status Atomic.t;
      (* physically shared with [top]; a fresh cell per pooled acquisition
         so that stale handles from earlier transactions CAS a dead cell *)
  mutable rv : int; (* read version; meaningful on the top level *)
  reads : read_set;
  mutable wids : int array;
      (* tv_ids of the buffered writes in ascending order, maintained at
         insertion: the lookup key and the commit-time lock-acquisition
         order.  Grow-only scratch. *)
  mutable wents : wentry array;
      (* the buffered writes, parallel to [wids]; slots from [wlen] on hold
         [no_write] *)
  mutable wlen : int;
  mutable acq_old : int array;
      (* commit-time scratch, parallel to [wids]: the pre-lock vlock values
         of acquired write locks, for release on conflict.  Grow-only. *)
  mutable commit_handlers : commit_handler list; (* newest first *)
  mutable abort_handlers : (unit -> unit) list; (* newest first *)
  mutable open_attempt : bool;
      (* top level only: the descriptor runs an open-nested transaction *)
  mutable local_aborts : (unit -> unit) list;
      (* open-nested top level only: the part of [abort_handlers] that the
         collection classes registered for their transaction-local state
         ([Stm.on_top_abort]), newest first *)
  parent : txn option;
  mutable top : txn;
  mutable retries : int;
  mutable cm : cm_policy; (* contention policy governing this top-level txn *)
  mutable prio : int;
      (* start ticket of the owning [atomic] call; constant across its
         retries, so age (and with it Greedy priority) accumulates *)
  mutable in_prepare : bool;
      (* top level only: inside the prepare phase of its own commit —
         the only point where remote_abort may decide to defer *)
  mutable self_opt : txn option;
      (* [Some self], built once: installing the context per attempt reuses
         it instead of allocating a fresh option *)
  slots : slots; (* the top level's, shared by its children *)
}

let clock : int Atomic.t = Atomic.make 0

(* Advance the global clock by one write version (2, LSB is the lock bit).
   GV5-style adoption: try one CAS against the sampled value; when another
   committer wins the race, adopt its published value as the new base and
   advance past it with a single wait-free fetch_and_add instead of
   looping the CAS.  A committer therefore performs at most one extra
   atomic step per conflicting bump ([s_clock_cas_retries] counts exactly
   those adoptions), and write versions stay unique — which read-set
   validation and snapshot visibility rely on (a shared timestamp would
   let a second commit to a tvar reuse the version a reader recorded). *)
let bump_clock () =
  let s = my_stats () in
  s.s_clock_bumps <- s.s_clock_bumps + 1;
  let v = Atomic.get clock in
  if Atomic.compare_and_set clock v (v + 2) then v + 2
  else begin
    s.s_clock_cas_retries <- s.s_clock_cas_retries + 1;
    Atomic.fetch_and_add clock 2 + 2
  end

(* ------------------------------------------------------------------ *)
(* Multi-version snapshot machinery.

   Two per-domain epoch-slot registries drive the snapshot pin protocol
   and lazy version reclamation:

   - the *reader* slot holds the snapshot timestamp this domain is
     pinned at ([max_int] when not in a snapshot);
   - the *publication* slot holds the pre-bump clock sample of a commit
     (or non-transactional store) that has passed its commit point but
     has not finished publishing its new versions ([max_int] otherwise).

   The reclamation epoch is min(clock, reader slots, the caller's own
   publication slot): a version shadowed at that epoch (some newer
   version of the same chain is stamped <= it) can never again be
   resolved by any pinned reader, so it may be dropped.  Reading the
   clock FIRST is load-bearing: it caps the epoch at a value the pin
   revalidation below can order against.  Every publisher trims inside
   its own window, whose sample is below its stamp, so the new head is
   stamped above the epoch and a quiescent chain keeps two entries: the
   newest version and the one it replaced.

   Why other domains' publication slots stay out of the epoch (they
   only hold back pins):
   - Publications to one chain are serialised under its region (a
     collection shard, the size or queue image chain) or its versioned
     lock (a tvar), and stamp-monotone: every publisher holds that lock
     from before it draws its stamp until it has published.  So a trim of
     a chain never runs while another commit's version of that same chain
     is stamped but unpublished: the chain it cuts is complete up to its
     newest stamp.
   - Every trim reads the clock after its own publisher's bump, so the
     epoch is at most the clock then, and the cut keeps the newest
     version at or below the epoch and everything above it.
   - A reader whose slot the trim saw has its pin [p] >= the epoch, so
     the newest version <= [p] survives.  A reader whose slot the trim
     missed stored it after the trim read the clock, and its pin
     revalidation then saw the clock unchanged since its sample; so it
     pins at or above the trim's clock, hence above the epoch, and
     resolves the kept version or a newer one.
   Another domain's open window therefore matters only to pins, which
   wait it out below; counting it in the epoch let every domain's
   commits hold back every other domain's chains, which then grew to
   hundreds of versions.

   Pin protocol ([snap_pin]): publish the sampled clock into the reader
   slot, revalidate that the clock did not advance past the sample
   (otherwise a trim computed from the later clock may have raced ahead
   of the pin — retry), then wait out every publication slot below the
   pin.  After the wait, every commit whose write version is <= the pin
   has fully published all its chains (a commit sets its publication
   slot to its pre-bump clock sample *before* bumping, so a commit the
   wait did not see bumps after our revalidation and gets a write
   version above the pin).  Multi-chain reads at the pinned timestamp
   are therefore a prefix-consistent committed state: no validation, no
   locks, no aborts. *)

type epoch_slot = {
  e_val : int Atomic.t;
  mutable e_depth : int; (* owner-domain only: window reentrancy *)
  (* cache-line padding: slots are scanned cross-domain *)
  mutable e_pad0 : int;
  mutable e_pad1 : int;
  mutable e_pad2 : int;
  mutable e_pad3 : int;
  mutable e_pad4 : int;
  mutable e_pad5 : int;
  mutable e_pad6 : int;
}

let fresh_slot () =
  {
    e_val = Atomic.make max_int;
    e_depth = 0;
    e_pad0 = 0;
    e_pad1 = 0;
    e_pad2 = 0;
    e_pad3 = 0;
    e_pad4 = 0;
    e_pad5 = 0;
    e_pad6 = 0;
  }

(* Registries of the live domains' slots: a domain registers on first use
   and [Domain.at_exit] removes it, so [slots_min] (every reclamation epoch,
   every pin) walks one slot per live domain, not one per domain spawned. *)
let reader_slots : epoch_slot list Atomic.t = Atomic.make []
let publish_slots : epoch_slot list Atomic.t = Atomic.make []

let rec slots_push reg s =
  let cur = Atomic.get reg in
  if not (Atomic.compare_and_set reg cur (s :: cur)) then slots_push reg s

let rec slots_remove reg s =
  let cur = Atomic.get reg in
  let rest = List.filter (fun x -> x != s) cur in
  if not (Atomic.compare_and_set reg cur rest) then slots_remove reg s

let slot_key reg =
  Domain.DLS.new_key (fun () ->
      let s = fresh_slot () in
      slots_push reg s;
      Domain.at_exit (fun () -> slots_remove reg s);
      s)

let reader_slot_key = slot_key reader_slots
let publish_slot_key = slot_key publish_slots

let slots_min reg =
  List.fold_left
    (fun acc s -> Int.min acc (Atomic.get s.e_val))
    max_int (Atomic.get reg)

(* Oldest epoch any present or future snapshot reader can still resolve:
   versions shadowed at it are reclaimable.  The clock is read before the
   reader slots; of the publication slots only the caller's own counts —
   see the protocol comment above. *)
let oldest_active_epoch () =
  let c = Atomic.get clock in
  let own = Atomic.get (Domain.DLS.get publish_slot_key).e_val in
  Int.min (Int.min c own) (slots_min reader_slots)

let note_reclaimed n =
  if n > 0 then begin
    let s = my_stats () in
    s.s_versions_reclaimed <- s.s_versions_reclaimed + n
  end

(* Publication window: brackets the span from just before the clock bump
   to the last chain publication of a committing mutation.  Reentrant
   (depth-counted): a nested window keeps the outer — smaller, hence
   conservative — sample. *)
let publish_window_enter () =
  let s = Domain.DLS.get publish_slot_key in
  if s.e_depth = 0 then Atomic.set s.e_val (Atomic.get clock);
  s.e_depth <- s.e_depth + 1

let publish_window_exit () =
  let s = Domain.DLS.get publish_slot_key in
  s.e_depth <- s.e_depth - 1;
  if s.e_depth = 0 then Atomic.set s.e_val max_int

(* Snapshot-read context of the calling domain. *)
type snap_state = { mutable snap_depth : int; mutable snap_ts : int }

let snap_key : snap_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { snap_depth = 0; snap_ts = 0 })

let in_snapshot () = (Domain.DLS.get snap_key).snap_depth > 0
let snapshot_stamp () = (Domain.DLS.get snap_key).snap_ts

let snap_pin () =
  let slot = Domain.DLS.get reader_slot_key in
  let rec pin () =
    let c = Atomic.get clock in
    Atomic.set slot.e_val c;
    if Atomic.get clock <> c then pin () (* trim may have outrun us: retry *)
    else begin
      (* Wait out publications that may carry write versions <= [c]. *)
      while slots_min publish_slots < c do
        Domain.cpu_relax ()
      done;
      c
    end
  in
  pin ()

let snap_unpin () =
  Atomic.set (Domain.DLS.get reader_slot_key).e_val max_int

(* Publish a tvar's new committed version into its chain.  The caller
   holds the tvar's versioned lock (publications are serialised per
   chain) and supplies the reclamation epoch, computed once per commit. *)
let hist_publish tv ~min_epoch wv v =
  note_reclaimed (Coll.Vchain.publish tv.hist ~min_epoch wv v)

(* ------------------------------------------------------------------ *)

let ctx_key : txn option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let context () = Domain.DLS.get ctx_key

let check_not_aborted txn =
  if Atomic.get txn.top_status = Aborted then raise Remote_aborted_exn

(* Slot of [tv_id] in [txn]'s sorted write ids, or [-(p + 1)] when absent,
   [p] being the slot it would be inserted at. *)
let write_slot txn tv_id =
  let lo = ref 0 and hi = ref txn.wlen in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if txn.wids.(mid) < tv_id then lo := mid + 1 else hi := mid
  done;
  if !lo < txn.wlen && txn.wids.(!lo) = tv_id then !lo else - !lo - 1

(* Walk the nesting stack, innermost first, looking for a buffered write;
   [no_write] when there is none. *)
let rec find_write txn tv_id =
  let i = write_slot txn tv_id in
  if i >= 0 then txn.wents.(i)
  else match txn.parent with None -> no_write | Some p -> find_write p tv_id

(* [true] iff some level of the nesting stack already recorded a read of
   [tv_id]; makes re-reads O(1) no-ops on the read-set. *)
let rec stack_has_read txn tv_id =
  rs_mem txn.reads tv_id
  ||
  match txn.parent with None -> false | Some p -> stack_has_read p tv_id

(* Grow the write-set arrays (and the parallel [acq_old] scratch) to hold
   at least [n] entries; grow-only, reused across attempts and
   transactions. *)
let wids_ensure txn n =
  if Array.length txn.wids < n then begin
    let cap = max 8 (max n (2 * Array.length txn.wids)) in
    let w = Array.make cap 0 and e = Array.make cap no_write in
    Array.blit txn.wids 0 w 0 txn.wlen;
    Array.blit txn.wents 0 e 0 txn.wlen;
    txn.wids <- w;
    txn.wents <- e;
    txn.acq_old <- Array.make cap 0
  end

(* Record a write of [tv_id]: overwrite its slot, or insert it in id
   order (binary search + shift). *)
let record_write txn tv_id w =
  let i = write_slot txn tv_id in
  if i >= 0 then txn.wents.(i) <- w
  else begin
    let pos = -i - 1 in
    wids_ensure txn (txn.wlen + 1);
    Array.blit txn.wids pos txn.wids (pos + 1) (txn.wlen - pos);
    Array.blit txn.wents pos txn.wents (pos + 1) (txn.wlen - pos);
    txn.wids.(pos) <- tv_id;
    txn.wents.(pos) <- w;
    txn.wlen <- txn.wlen + 1
  end

let locked v = v land 1 = 1

(* Read a consistent (value, version) snapshot of a committed tvar. *)
let rec read_committed tv =
  let v1 = Atomic.get tv.vlock in
  if locked v1 then begin
    Domain.cpu_relax ();
    read_committed tv
  end
  else
    let v = Atomic.get tv.value in
    let v2 = Atomic.get tv.vlock in
    if v1 = v2 then (v, v1)
    else begin
      Domain.cpu_relax ();
      read_committed tv
    end

(* A read entry is still valid if its tvar is unlocked at the recorded
   version, or locked by [self] itself (commit-time validation only).
   [self] is an option passed positionally, so validating allocates
   nothing. *)
let rentry_valid self (R (tv, ver)) =
  let cur = Atomic.get tv.vlock in
  if cur = ver then true
  else if locked cur && cur = ver + 1 then
    match self with
    | Some txn -> write_slot txn tv.tv_id >= 0
    | None -> false
  else false

(* Per-tvar check of one level's entries; [self] is the committing
   transaction, whose own write locks do not invalidate its reads. *)
let level_valid self txn =
  let rs = txn.reads in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < rs.r_len do
    if not (rentry_valid self rs.r_arr.(!i)) then ok := false;
    incr i
  done;
  !ok

(* Try to extend the top-level read version to the current clock, as TL2
   does, so long transactions survive concurrent unrelated commits.  Every
   level of the nesting stack is re-checked tvar by tvar; when only the
   innermost closed child is invalid, only that child rolls back. *)
let extend_read_version innermost =
  let new_rv = Atomic.get clock in
  let rec ancestors_valid = function
    | None -> true
    | Some lvl -> level_valid None lvl && ancestors_valid lvl.parent
  in
  if not (ancestors_valid innermost.parent) then false
  else if level_valid None innermost then begin
    innermost.top.rv <- new_rv;
    true
  end
  else if innermost.parent <> None then raise Child_conflict_exn
  else false

(* Policy-directed wait before the next attempt.  Backoff is the seed's
   exponential spin (2^min(n, 12) cpu-relax rounds), jittered per-domain;
   Greedy relies on priority for progress and pauses briefly. *)
let cm_wait cm n =
  let spins =
    match cm with
    | Backoff ->
        let s = 1 lsl min n 12 in
        (s / 2) + 1 + rand_int (s + 1)
    | Greedy -> 64 + rand_int 256
  in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* The tvar protocol: lazy versioning, commit-time conflict detection.
   Reads record the committed version (revalidated at commit and on
   read-version extension); writes go to the redo log, published under
   commit-time write locks. *)

(* The write set is keyed by [tv_id], which is unique per tvar, so an
   entry found under our id necessarily wraps this very tvar and its
   buffered value has type ['a].  The physical-equality assertion guards
   the coercion. *)
let pending_value : type a. a tvar_repr -> wentry -> a =
 fun tv (W (tv', v)) ->
  assert (Obj.repr tv' == Obj.repr tv);
  (Obj.magic v : a)

let rec lazy_rv_read : type a. txn -> a tvar_repr -> a =
 fun txn tv ->
  check_not_aborted txn;
  let w = find_write txn tv.tv_id in
  if w != no_write then pending_value tv w
  else
    let v, ver = read_committed tv in
    if ver > txn.top.rv then
      if extend_read_version txn then lazy_rv_read txn tv
      else raise Conflict_exn
    else begin
      if not (stack_has_read txn tv.tv_id) then rs_push txn.reads (R (tv, ver));
      v
    end

let buffered_write : type a. txn -> a tvar_repr -> a -> unit =
 fun txn tv v ->
  check_not_aborted txn;
  record_write txn tv.tv_id (W (tv, v))

(* ------------------------------------------------------------------ *)

let make_top ?cm ?prio () =
  let cm = match cm with Some c -> c | None -> Atomic.get global_cm in
  let prio = match prio with Some p -> p | None -> fresh_prio () in
  let rec t =
    {
      txn_id = fresh_txn_id ();
      top_status = Atomic.make Active;
      rv = Atomic.get clock;
      reads = rs_create ();
      wids = [||];
      wents = [||];
      wlen = 0;
      acq_old = [||];
      commit_handlers = [];
      abort_handlers = [];
      open_attempt = false;
      local_aborts = [];
      parent = None;
      top = t;
      retries = 0;
      cm;
      prio;
      in_prepare = false;
      self_opt = Some t;
      slots = { live = [||]; n_live = 0; spare = [||]; n_spare = 0 };
    }
  in
  t

let make_child parent =
  let rec t =
    {
      txn_id = fresh_txn_id ();
      top_status = parent.top_status;
      rv = parent.top.rv;
      reads = rs_create ();
      wids = [||];
      wents = [||];
      wlen = 0;
      acq_old = [||];
      commit_handlers = [];
      abort_handlers = [];
      open_attempt = false;
      local_aborts = [];
      parent = Some parent;
      top = parent.top;
      retries = 0;
      cm = parent.top.cm;
      prio = parent.top.prio;
      in_prepare = false;
      self_opt = Some t;
      slots = parent.top.slots;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Descriptor pool.  Top-level descriptors are recycled through a
   domain-local free list, so the retry loop allocates nothing: the read
   set, write-set arrays and scratch arrays are grow-only and cleared in
   place per attempt.  A fresh status cell and a fresh leased txn_id
   are installed per acquisition/attempt, so a handle captured by an
   earlier transaction (e.g. by a semantic lock table whose cleanup
   raced) can only CAS an orphaned cell, never abort the new incarnation.

   Reuse is safe against concurrent inspection because every consumer of
   foreign handles (semantic conflict detection) looks them up and uses
   them while holding the collection's commit region — the same region the
   owner's cleanup handlers need before the descriptor can be released. *)

let top_pool_key : txn list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let acquire_top ~cm ~prio =
  let pool = Domain.DLS.get top_pool_key in
  match !pool with
  | t :: rest ->
      pool := rest;
      t.cm <- cm;
      t.prio <- prio;
      t.retries <- 0;
      t.top_status <- Atomic.make Active;
      t
  | [] -> make_top ~cm ~prio ()

let release_top t =
  let pool = Domain.DLS.get top_pool_key in
  pool := t :: !pool

(* The previous attempt's values become the spares and unclaimed spares
   are dropped: a collection stays reachable from a descriptor for at most
   two attempts after its last use there. *)
let retire_slots s =
  Array.fill s.spare 0 s.n_spare no_slot;
  let old = s.spare in
  s.spare <- s.live;
  s.n_spare <- s.n_live;
  s.live <- old;
  s.n_live <- 0

let reset_for_attempt t =
  t.txn_id <- fresh_txn_id ();
  Atomic.set t.top_status Active;
  t.rv <- Atomic.get clock;
  rs_clear t.reads;
  Array.fill t.wents 0 t.wlen no_write;
  t.wlen <- 0;
  t.commit_handlers <- [];
  t.abort_handlers <- [];
  t.local_aborts <- [];
  t.in_prepare <- false;
  retire_slots t.slots

(* ------------------------------------------------------------------ *)
(* Fault-injection (chaos) hook points.  When installed, the hook is
   called at deterministic points of every top-level transaction; it may
   raise a retryable exception (injected conflict), deliver a remote
   abort, register failing handlers, or spin (delay-before-commit).  One
   Atomic.get when disabled — negligible on the hot path. *)

type chaos_event =
  | Chaos_attempt (* start of each top-level attempt, context installed *)
  | Chaos_before_commit (* body done, before the commit sequence *)
  | Chaos_in_commit (* inside commit: write locks held, reads validated *)

let chaos_hook : (chaos_event -> unit) option Atomic.t = Atomic.make None

let chaos ev =
  match Atomic.get chaos_hook with None -> () | Some f -> f ev
