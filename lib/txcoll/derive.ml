(* The Proust-style semantic functor: derive a transactional collection
   class from a sequential implementation plus a commutativity/lock spec.

   Every hand-written wrapper in this library repeats the same concurrent
   plumbing — semantic lock acquisition under the right stripe regions,
   a keyed store buffer (redo log), a commit region plan, two-phase
   prepare/apply handlers, abort teardown — and PR 5's lost write-write
   conflict showed that this plumbing is exactly where the bugs live.
   {!Make} generates all of it from a {!SPEC}: the spec contributes only
   the *sequential* semantics (apply one buffered write to a shard,
   overlay a buffered write on an observation, the weight an observation
   contributes to the collection's size) and declares which structural
   facets ({!Commute_spec.facet}) its read operations can observe.  The
   conflict relation is then derived, conservatively, from that facet
   algebra instead of being hand-transcribed per class:

   - a read of key [k] locks [FKey k]; size/isEmpty/first reads lock
     their structural facet;
   - a committing batch invalidates [FKey k] for every buffered key, the
     size facet when its net weight delta is non-zero, the isEmpty facet
     when emptiness flips, and the first facet when it shrinks anywhere
     or touches a key at or below the committed minimum;
   - the committer remote-aborts every holder of an invalidated facet in
     its prepare phase (before the TM's commit point), which is the
     paper's optimistic semantic concurrency control.

   Soundness argument (checked end-to-end by test/test_derive.ml): a
   transaction that observed facet [F] holds [F]'s lock from the
   operation until its commit completes, and a committing writer holds
   every region of its plan from before prepare until after apply.  A
   reader that registered before the writer's prepare is remote-aborted
   (before anything applied); a reader arriving later blocks on the
   writer's regions and observes either none or all of the batch — so no
   transaction ever observes a torn batch, and two operations declared
   commutative by the spec never conflict (their facets are disjoint),
   while every non-commuting pair overlaps on a facet and is forced to
   conflict.

   Conservatism costs only spurious aborts (the victim retries and
   converges), never missed conflicts; the QCheck gate exercises both
   directions.

   Derived wrappers do not publish snapshot version chains: reads inside
   [Stm.snapshot] raise (the undo-map sets the precedent).  Pessimistic
   write policies are likewise out of scope — the derivation is the
   paper's optimistic protocol. *)

module type SPEC = sig
  type state
  (** One committed shard: mutable, not thread-safe — the generated
      wrapper serialises all access under its stripe's commit region. *)

  type key
  type value
  (** What a read of one key observes (set: [unit] presence, bag and
      priority queue: multiplicity, counter: the shard's sum). *)

  type wop
  (** One buffered write to one key — the store-buffer (redo log)
      alphabet. *)

  val name : string
  val create : unit -> state

  (* ---- sequential semantics of one shard ---- *)

  val find : state -> key -> value option
  val apply : state -> key -> wop -> unit
  (** Flush one buffered write into the committed shard.  Called only
      with the key's region held (commit apply phase, or a
      non-transactional write). *)

  val fold : (key -> value -> 'a -> 'a) -> state -> 'a -> 'a

  val min_key : state -> excluded:(key -> bool) -> key option
  (** Least committed key not in [excluded] ([excluded] is the
      transaction's own buffered-key set, whose views are overlaid
      separately).  Only consulted when [uses_first]; unordered specs
      return [None]. *)

  (* ---- store-buffer algebra ---- *)

  val combine : earlier:wop -> later:wop -> wop
  (** Two buffered writes to the same key collapse into one (last-write
      wins for map-style ops, sum for commutative deltas), keeping the
      buffer O(distinct keys) and the apply phase one-op-per-key. *)

  val view : value option -> wop -> value option
  (** Overlay a buffered write on a prior observation: what a read of
      the key returns inside the transaction that buffered it. *)

  val absorbing : wop -> bool
  (** [true] when [view prior w] is independent of [prior] (set-style
      last-write-wins): reading back one's own buffered write then needs
      no committed read and takes no key lock.  Delta-style writes
      (counter, bag) are not absorbing. *)

  val weight : value option -> int
  (** The observation's contribution to the collection's size (set: 0/1
      presence, bag/priority queue: multiplicity).  The functor maintains
      the committed size as the running sum of weights and derives the
      size/isEmpty conflict conditions from weight deltas. *)

  (* ---- structural facets the class's reads can observe ---- *)

  val uses_size : bool
  val uses_isempty : bool

  val uses_first : bool
  (** Ordered minimum observation (priority queues).  Forces a single
      stripe — the first facet is whole-collection state — and requires
      [compare_key]. *)

  val compare_key : (key -> key -> int) option
end

module Make (TM : Tm_intf.TM_OPS) (S : SPEC) = struct
  module L = Semlock.Make (TM)

  (* One store-buffer entry.  [prior] is the committed observation at the
     time the transaction first read the key ([None] = never read: the
     writes so far are blind); it stays valid for the transaction's
     lifetime because reading it also takes the key's lock, so any commit
     changing it aborts us first. *)
  type bw = { mutable w : S.wop; mutable prior : S.value option option }

  type local = {
    mutable txn : TM.txn;
    buffer : (S.key, bw) Coll.Chain_hashmap.t;
    mutable key_locks : S.key list;
    mutable stripes_mask : int;
    mutable struct_locked : bool;
    h_read_only : unit -> bool;
    h_regions : unit -> TM.region list;
    h_prepare : unit -> unit;
    h_apply : int -> unit;
    h_abort : unit -> unit;
  }

  type t = {
    locks : S.key L.t;
    shards : S.state array; (* shard [i] holds the keys of stripe [i] *)
    mutable csize : int;
        (* sum of committed weights; read/written only under the
           structure region, and only maintained when a structural facet
           is in use *)
    local_key : local TM.local_key;
  }

  let default_stripes = 16

  let track_struct = S.uses_size || S.uses_isempty || S.uses_first

  let create ?(stripes = default_stripes) ?hash () =
    if S.uses_first && Option.is_none S.compare_key then
      invalid_arg (S.name ^ ": uses_first requires compare_key");
    (* The first facet is whole-collection state: observing the minimum
       must exclude every concurrent apply, so the ordered classes run
       unsharded (one stripe = the structure region). *)
    let stripes = if S.uses_first then 1 else stripes in
    let locks = L.create ~stripes ?hash () in
    let k = L.stripe_count locks in
    {
      locks;
      shards = Array.init k (fun _ -> S.create ());
      csize = 0;
      local_key = TM.new_local_key ();
    }

  let sregion t = L.struct_region t.locks
  let shard_of t k = t.shards.(L.stripe_index t.locks k)
  let key_region t k = L.region_of_key t.locks k
  let stripe_count t = L.stripe_count t.locks
  let outstanding_locks t = L.total_lockers t.locks

  let no_snapshot () =
    if TM.in_snapshot () then
      invalid_arg
        (S.name
       ^ ": snapshot reads are not supported by derived wrappers (no \
          shadow version chains)")

  (* ---------------- commit/abort handlers ---------------- *)

  let cleanup t l =
    List.iter
      (fun k ->
        TM.critical (key_region t k) (fun () -> L.release_key t.locks l.txn k))
      l.key_locks;
    if l.struct_locked then
      TM.critical (sregion t) (fun () -> L.release_structure t.locks l.txn)

  (* Committed observation backing a buffer entry; blind entries read it
     from the shard under a nested stripe critical (ascending rid from
     the structure region; reentrant from prepare with the plan held). *)
  let prior_of t k (e : bw) =
    match e.prior with
    | Some p -> p
    | None -> TM.critical (key_region t k) (fun () -> S.find (shard_of t k) k)

  (* Net weight change of the store buffer against current committed
     state — the derived size-facet conflict condition. *)
  let batch_delta t l =
    Coll.Chain_hashmap.fold
      (fun k e acc ->
        let prior = prior_of t k e in
        acc + S.weight (S.view prior e.w) - S.weight prior)
      l.buffer 0

  (* Commit region plan: the stripes of every locked/buffered key, plus
     the structure region when the transaction read structural state or
     its writes may move a structural facet (a blind write's effect is
     unknown until applied, so it is planned conservatively). *)
  let regions_plan t l () =
    let struct_needed =
      l.struct_locked
      || (track_struct
         && (not (Coll.Chain_hashmap.is_empty l.buffer))
         && (S.uses_first
            || Coll.Chain_hashmap.fold
                 (fun _ e acc ->
                   acc
                   ||
                   match e.prior with
                   | None -> true
                   | Some p -> S.weight (S.view p e.w) <> S.weight p)
                 l.buffer false))
    in
    let acc = ref [] in
    for i = stripe_count t - 1 downto 0 do
      if l.stripes_mask land (1 lsl i) <> 0 then
        acc := L.stripe_region t.locks i :: !acc
    done;
    if struct_needed then sregion t :: !acc else !acc

  (* Derived first-facet conflict condition, conservative: the batch can
     only move the minimum if it shrinks some key's weight or touches a
     key at or below the committed minimum (insertions above the current
     minimum with no shrink leave it in place).  Over-approximation costs
     a spurious abort of a min-observer, never a missed conflict. *)
  let first_invalidated t l =
    let cmp = Option.get S.compare_key in
    let committed_min = S.min_key t.shards.(0) ~excluded:(fun _ -> false) in
    Coll.Chain_hashmap.fold
      (fun k e acc ->
        acc
        ||
        let prior = prior_of t k e in
        S.weight (S.view prior e.w) < S.weight prior
        || (match committed_min with None -> true | Some m -> cmp k m <= 0))
      l.buffer false

  (* Prepare phase: abort the holders of every facet this batch
     invalidates.  Read-only on the shards and may raise; it runs before
     the TM's commit point so an exception aborts with nothing applied.
     Every critical below re-enters a region the plan already holds. *)
  let prepare_handler t l () =
    let self = l.txn in
    Coll.Chain_hashmap.iter
      (fun k _ ->
        TM.critical (key_region t k) (fun () ->
            L.conflict_key t.locks ~self k))
      l.buffer;
    if S.uses_size || S.uses_isempty then begin
      let delta = batch_delta t l in
      if delta <> 0 then
        TM.critical (sregion t) (fun () ->
            if S.uses_size then L.conflict_size t.locks ~self;
            if
              S.uses_isempty
              && (t.csize = 0) <> (t.csize + delta = 0)
            then L.conflict_isempty t.locks ~self)
    end;
    if S.uses_first && not (Coll.Chain_hashmap.is_empty l.buffer) then
      TM.critical (sregion t) (fun () ->
          if first_invalidated t l then L.conflict_first t.locks ~self)

  (* Apply phase, after the commit point: flush the buffer to the shards
     (one combined op per key), fold the weight delta into the committed
     size, release semantic locks. *)
  let apply_handler t l _stamp =
    let delta = ref 0 in
    Coll.Chain_hashmap.iter
      (fun k e ->
        TM.critical (key_region t k) (fun () ->
            let shard = shard_of t k in
            let before = S.find shard k in
            S.apply shard k e.w;
            if track_struct then
              delta := !delta + S.weight (S.find shard k) - S.weight before))
      l.buffer;
    if track_struct && !delta <> 0 then
      TM.critical (sregion t) (fun () -> t.csize <- t.csize + !delta);
    cleanup t l

  (* One local record per top-level transaction; its first use registers
     the single commit handler and single abort handler of §5's
     guidelines.  A spare offered by the TM keeps its handlers and buffer
     capacity; it is reset here rather than by [cleanup], so a handler
     that raised half-way cannot leak state into the reuse.

     Read-only certificate: an empty store buffer means prepare would
     detect nothing and apply only releases read locks, so a
     getter-only transaction takes the TM's read-only fast path. *)
  let attach t txn spare =
    let l =
      match spare with
      | Some l ->
          l.txn <- txn;
          Coll.Chain_hashmap.clear l.buffer;
          l.key_locks <- [];
          l.stripes_mask <- 0;
          l.struct_locked <- false;
          l
      | None ->
          let rec l =
            {
              txn;
              buffer = Coll.Chain_hashmap.create ();
              key_locks = [];
              stripes_mask = 0;
              struct_locked = false;
              h_read_only = (fun () -> Coll.Chain_hashmap.is_empty l.buffer);
              h_regions = (fun () -> regions_plan t l ());
              h_prepare = (fun () -> prepare_handler t l ());
              h_apply = (fun stamp -> apply_handler t l stamp);
              h_abort = (fun () -> cleanup t l);
            }
          in
          l
    in
    TM.on_commit_prepared ~read_only:l.h_read_only ~regions:l.h_regions
      (sregion t) ~prepare:l.h_prepare ~apply:l.h_apply;
    TM.on_abort l.h_abort;
    l

  let local_of t = TM.txn_local t.local_key attach t

  (* Caller holds [key_region t k]. *)
  let lock_key t l k =
    if not (L.key_locked_by t.locks l.txn k) then begin
      L.lock_key t.locks l.txn k;
      l.key_locks <- k :: l.key_locks;
      l.stripes_mask <- l.stripes_mask lor (1 lsl L.stripe_index t.locks k)
    end

  (* ---------------- reads ---------------- *)

  let find t k =
    no_snapshot ();
    if not (TM.in_txn ()) then
      TM.critical (key_region t k) (fun () -> S.find (shard_of t k) k)
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match Coll.Chain_hashmap.find l.buffer k with
          | Some e ->
              if S.absorbing e.w then S.view None e.w
              else
                let prior =
                  match e.prior with
                  | Some p -> p
                  | None ->
                      (* Delta-style write-then-read: the observation
                         depends on committed state, which makes this a
                         key read — lock it. *)
                      lock_key t l k;
                      let p = S.find (shard_of t k) k in
                      e.prior <- Some p;
                      p
                in
                S.view prior e.w
          | None ->
              lock_key t l k;
              S.find (shard_of t k) k)
    end

  let size t =
    no_snapshot ();
    if not S.uses_size then invalid_arg (S.name ^ ": size facet not in spec");
    if not (TM.in_txn ()) then TM.critical (sregion t) (fun () -> t.csize)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_size t.locks l.txn;
          l.struct_locked <- true;
          t.csize + batch_delta t l)
    end

  let is_empty t =
    no_snapshot ();
    if not S.uses_isempty then
      invalid_arg (S.name ^ ": isEmpty facet not in spec");
    if not (TM.in_txn ()) then TM.critical (sregion t) (fun () -> t.csize = 0)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_isempty t.locks l.txn;
          l.struct_locked <- true;
          t.csize + batch_delta t l = 0)
    end

  (* Least key whose (buffer-overlaid) observation is present.  Takes the
     first-facet lock; committers that may move the minimum conflict it
     in prepare. *)
  let min_view t =
    no_snapshot ();
    if not S.uses_first then
      invalid_arg (S.name ^ ": first facet not in spec");
    let cmp = Option.get S.compare_key in
    if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () ->
          S.min_key t.shards.(0) ~excluded:(fun _ -> false))
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_first t.locks l.txn;
          l.struct_locked <- true;
          let excluded k = Option.is_some (Coll.Chain_hashmap.find l.buffer k) in
          let committed = S.min_key t.shards.(0) ~excluded in
          Coll.Chain_hashmap.fold
            (fun k e best ->
              match S.view (prior_of t k e) e.w with
              | None -> best
              | Some _ -> (
                  match best with
                  | None -> Some k
                  | Some b -> if cmp k b < 0 then Some k else best))
            l.buffer committed)
    end

  (* Full enumeration under all regions (structure then stripes,
     ascending rid), merging the shards with the store buffer.  Inside a
     transaction it locks the size facet (the enumeration observes the
     complete contents, so any weight-changing commit must conflict it)
     plus a key lock on every committed key returned; specs without the
     size facet cannot enumerate transactionally. *)
  let fold f t init =
    no_snapshot ();
    if not (TM.in_txn ()) then
      L.critical_all t.locks (fun () ->
          let acc = ref init in
          Array.iter (fun shard -> acc := S.fold f shard !acc) t.shards;
          !acc)
    else begin
      if not S.uses_size then
        invalid_arg
          (S.name ^ ": transactional enumeration requires the size facet");
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          L.lock_size t.locks l.txn;
          l.struct_locked <- true;
          let acc = ref init in
          Array.iter
            (fun shard ->
              acc :=
                S.fold
                  (fun k v a ->
                    match Coll.Chain_hashmap.find l.buffer k with
                    | Some e -> (
                        match S.view (prior_of t k e) e.w with
                        | Some v' -> f k v' a
                        | None -> a)
                    | None ->
                        lock_key t l k;
                        f k v a)
                  shard !acc)
            t.shards;
          (* Buffered keys with no committed binding. *)
          Coll.Chain_hashmap.iter
            (fun k e ->
              if Option.is_none (S.find (shard_of t k) k) then
                match S.view (prior_of t k e) e.w with
                | Some v -> acc := f k v !acc
                | None -> ())
            l.buffer;
          !acc)
    end

  let iter f t = fold (fun k v () -> f k v) t ()

  (* ---------------- writes ---------------- *)

  (* Non-transactional write: structure-then-stripe (ascending rid) so
     the shard mutation and the committed-size update are atomic for
     structural readers. *)
  let nontxn_write t k w =
    if TM.in_snapshot () then
      invalid_arg (S.name ^ ": write inside a snapshot read section");
    let doit () =
      TM.critical (key_region t k) (fun () ->
          let shard = shard_of t k in
          let prior = S.find shard k in
          S.apply shard k w;
          (prior, S.find shard k))
    in
    if track_struct then
      TM.critical (sregion t) (fun () ->
          let prior, after = doit () in
          let d = S.weight after - S.weight prior in
          if d <> 0 then t.csize <- t.csize + d;
          prior)
    else fst (doit ())

  (* Transactional write: buffer the op (combining with an earlier write
     to the same key) and return the prior observation.  Blind writes
     read nothing and lock nothing — two blind writers of the same key
     never conflict with each other, only with the key's readers (this
     is what makes counter increments commute). *)
  let write t k w ~blind =
    if not (TM.in_txn ()) then nontxn_write t k w
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match Coll.Chain_hashmap.find l.buffer k with
          | Some e ->
              let old =
                if blind then None
                else if S.absorbing e.w then S.view None e.w
                else
                  let prior =
                    match e.prior with
                    | Some p -> p
                    | None ->
                        lock_key t l k;
                        let p = S.find (shard_of t k) k in
                        e.prior <- Some p;
                        p
                  in
                  S.view prior e.w
              in
              e.w <- S.combine ~earlier:e.w ~later:w;
              old
          | None ->
              if blind then begin
                Coll.Chain_hashmap.add l.buffer k { w; prior = None };
                l.stripes_mask <-
                  l.stripes_mask lor (1 lsl L.stripe_index t.locks k);
                None
              end
              else begin
                (* Returning the prior observation reads the key
                   (Table 2: value-returning writes take a key lock). *)
                lock_key t l k;
                let p = S.find (shard_of t k) k in
                Coll.Chain_hashmap.add l.buffer k { w; prior = Some p };
                p
              end)
    end

  let write_blind t k w = ignore (write t k w ~blind:true)

  (* ---------------- introspection ---------------- *)

  let holds_key_lock t k =
    TM.in_txn () && L.key_locked_by t.locks (TM.current ()) k

  let buffered_writes t =
    if not (TM.in_txn ()) then 0
    else Coll.Chain_hashmap.size (local_of t).buffer
end
