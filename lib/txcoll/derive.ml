(* The Proust-style semantic functor: derive a transactional collection
   class from a sequential implementation plus a commutativity/lock spec.

   Every collection class needs the same concurrent plumbing — semantic
   lock acquisition under the right stripe regions, a keyed store buffer
   (redo log), a commit region plan, two-phase prepare/apply handlers,
   abort teardown, snapshot version chains — and a write-write conflict
   once lost by a hand-written wrapper showed that this plumbing is
   exactly where the bugs live.
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

   Keys.  The spec's [hash]/[equal] (or, for ordered specs, its
   comparator) is the one notion of key equality: it picks a key's
   stripe and keys the store buffer, the semantic lock tables and the
   snapshot shadows, so two keys the class treats as equal are one key
   everywhere.

   Snapshots.  Alongside each mutable shard sits a chain ([Coll.Vchain])
   of immutable shadows of it, plus one structure chain carrying the
   committed size.  A commit publishes the shadows of the stripes it
   changed at its commit stamp while still holding those stripes'
   regions (the structure chain under the structure region), and a
   non-transactional write draws its stamp through [TM.begin_publish]
   under the same regions, so publications to one chain are serialized
   and stamp-monotone.  Inside [TM.in_snapshot] every read resolves
   against the newest shadow at or below the pinned stamp: no region, no
   semantic lock, no abort.

   Pessimistic write policies are out of scope — the derivation is the
   paper's optimistic protocol. *)

module type SPEC = sig
  type 'v state
  (** One committed shard: mutable, not thread-safe — the generated
      wrapper serialises all access under its stripe's commit region.
      ['v] is the element type of classes that carry values (the map);
      the others ignore it. *)

  type key

  type 'v value
  (** What a read of one key observes (map: the bound value, set: [unit]
      presence, bag and priority queue: multiplicity, counter: the
      shard's sum). *)

  type 'v wop
  (** One buffered write to one key — the store-buffer (redo log)
      alphabet. *)

  val name : string

  val hash : key -> int
  val equal : key -> key -> bool
  (** The class's key equality, with a hash that agrees with it. *)

  val create : unit -> 'v state

  (* ---- sequential semantics of one shard ---- *)

  val find : 'v state -> key -> 'v value option
  val apply : 'v state -> key -> 'v wop -> unit
  (** Flush one buffered write into the committed shard.  Called only
      with the key's region held (commit apply phase, or a
      non-transactional write). *)

  val fold : (key -> 'v value -> 'a -> 'a) -> 'v state -> 'a -> 'a

  (* ---- store-buffer algebra ---- *)

  val combine : earlier:'v wop -> later:'v wop -> 'v wop
  (** Two buffered writes to the same key collapse into one (last-write
      wins for map-style ops, sum for commutative deltas), keeping the
      buffer O(distinct keys) and the apply phase one-op-per-key. *)

  val view : 'v value option -> 'v wop -> 'v value option
  (** Overlay a buffered write on a prior observation: what a read of
      the key returns inside the transaction that buffered it, and what
      [find] returns after [apply] — the functor relies on
      [find (apply s k w) k = view (find s k) w]. *)

  val absorbing : 'v wop -> bool
  (** [true] when [view prior w] is independent of [prior] (set-style
      last-write-wins): reading back one's own buffered write then needs
      no committed read and takes no key lock.  Delta-style writes
      (counter, bag) are not absorbing. *)

  val weight : 'v value option -> int
  (** The observation's contribution to the collection's size (map, set:
      0/1 presence, bag/priority queue: multiplicity).  The functor
      maintains the committed size as the running sum of weights and
      derives the size/isEmpty conflict conditions from weight deltas. *)

  (* ---- structural facets the class's reads can observe ---- *)

  val uses_size : bool
  val uses_isempty : bool

  val uses_first : bool
  (** Ordered minimum observation (priority queues).  Forces a single
      stripe — the first facet is whole-collection state — and requires
      [compare_key]. *)

  val compare_key : (key -> key -> int) option
  (** An ordered spec's comparator; its shadows are then ordered by it. *)
end

module Make (TM : Tm_intf.TM_OPS) (S : SPEC) = struct
  module L = Semlock.Make (TM)

  (* One store-buffer entry.  [prior] is the committed observation at the
     time the transaction first read the key ([None] = never read: the
     writes so far are blind); it stays valid for the transaction's
     lifetime because reading it also takes the key's lock, so any commit
     changing it aborts us first. *)
  type 'v bw = { mutable w : 'v S.wop; mutable prior : 'v S.value option option }

  (* Immutable shadow of one shard.  Ordered specs keep a persistent map
     under their comparator (so the first facet reads its minimum);
     hashed ones a persistent map from key hash to the bindings sharing
     that hash. *)
  type 'v shadow =
    | Hashed of (int, (S.key * 'v S.value) list) Coll.Pmap.t
    | Ordered of (S.key, 'v S.value) Coll.Pmap.t

  type 'v local = {
    mutable txn : TM.txn;
    buffer : (S.key, 'v bw) Coll.Chain_hashmap.t;
    mutable key_locks : S.key list;
    mutable stripes_mask : int;
    mutable struct_locked : bool;
    shadows : 'v shadow option array;
        (* apply phase: the stripes' shadows being rebuilt, published and
           reset to [None] before it returns *)
    h_read_only : unit -> bool;
    h_regions : unit -> TM.region list;
    h_prepare : unit -> unit;
    h_apply : int -> unit;
    h_abort : unit -> unit;
  }

  type 'v t = {
    locks : S.key L.t;
    shards : 'v S.state array; (* shard [i] holds the keys of stripe [i] *)
    snap : 'v shadow Coll.Vchain.t array;
        (* chain [i] versions shard [i]; published only while stripe [i]'s
           region is held *)
    mutable csize : int;
        (* sum of committed weights; read/written only under the
           structure region, and only maintained when a structural facet
           is in use *)
    snap_size : int Coll.Vchain.t;
        (* committed-size chain; published only under the structure
           region *)
    copy_key : S.key -> S.key;
        (* §5.1 "Leaking uncommitted data": keys recorded in the shared
           lock table stay visible to other transactions; a copier stores
           an independent committed copy (identity for immutable keys). *)
    local_key : 'v local TM.local_key;
  }

  let default_stripes = 16

  let track_struct = S.uses_size || S.uses_isempty || S.uses_first

  (* ---------------- shadows ---------------- *)

  let shadow_empty () =
    match S.compare_key with
    | Some compare -> Ordered (Coll.Pmap.empty ~compare)
    | None -> Hashed (Coll.Pmap.empty ~compare:Int.compare)

  let rec drop_key k = function
    | [] -> []
    | ((k', _) as b) :: rest -> if S.equal k k' then rest else b :: drop_key k rest

  (* The shadow with [k] bound to [v] ([None] = unbound). *)
  let shadow_set sh k v =
    match sh with
    | Ordered pm -> (
        match v with
        | Some v -> Ordered (Coll.Pmap.add pm k v)
        | None -> Ordered (Coll.Pmap.remove pm k))
    | Hashed pm -> (
        let h = S.hash k in
        let rest =
          match Coll.Pmap.find pm h with None -> [] | Some b -> drop_key k b
        in
        match (v, rest) with
        | Some v, b -> Hashed (Coll.Pmap.add pm h ((k, v) :: b))
        | None, [] -> Hashed (Coll.Pmap.remove pm h)
        | None, b -> Hashed (Coll.Pmap.add pm h b))

  let shadow_find sh k =
    match sh with
    | Ordered pm -> Coll.Pmap.find pm k
    | Hashed pm -> (
        match Coll.Pmap.find pm (S.hash k) with
        | None -> None
        | Some b ->
            List.find_map (fun (k', v) -> if S.equal k k' then Some v else None) b)

  let shadow_fold f sh acc =
    match sh with
    | Ordered pm -> Coll.Pmap.fold f pm acc
    | Hashed pm ->
        Coll.Pmap.fold
          (fun _ b acc -> List.fold_left (fun acc (k, v) -> f k v acc) acc b)
          pm acc

  exception Found of S.key

  (* Least key of an ordered shadow not in [excluded]; hashed shadows
     have no order ([uses_first] requires [compare_key]). *)
  let shadow_min sh ~excluded =
    match sh with
    | Hashed _ -> None
    | Ordered pm -> (
        match
          Coll.Pmap.iter (fun k _ -> if not (excluded k) then raise (Found k)) pm
        with
        | () -> None
        | exception Found k -> Some k)

  let no_key _ = false

  let create ?(stripes = default_stripes) ?(copy_key = Fun.id) () =
    if S.uses_first && Option.is_none S.compare_key then
      invalid_arg (S.name ^ ": uses_first requires compare_key");
    (* The first facet is whole-collection state: observing the minimum
       must exclude every concurrent apply, so the ordered classes run
       unsharded (one stripe = the structure region). *)
    let stripes = if S.uses_first then 1 else stripes in
    let locks = L.create ~stripes ~hash:S.hash ~equal:S.equal () in
    let k = L.stripe_count locks in
    {
      locks;
      shards = Array.init k (fun _ -> S.create ());
      snap = Array.init k (fun _ -> Coll.Vchain.make 0 (shadow_empty ()));
      csize = 0;
      snap_size = Coll.Vchain.make 0 0;
      copy_key;
      local_key = TM.new_local_key ();
    }

  let sregion t = L.struct_region t.locks
  let shard_of t k = t.shards.(L.stripe_index t.locks k)
  let key_region t k = L.region_of_key t.locks k
  let stripe_count t = L.stripe_count t.locks

  (* Snapshot reads resolve against the chains at the pinned stamp. *)
  let snap_shadow t si =
    Coll.Vchain.read_at t.snap.(si) (TM.snapshot_stamp ())

  let snap_size t = Coll.Vchain.read_at t.snap_size (TM.snapshot_stamp ())

  (* Publish at [stamp].  Caller holds the chain's region (stripe [si]'s,
     or the structure region for the size chain), which serializes
     publications and makes stamps monotone: every publisher draws its
     stamp while already holding the region. *)
  let publish_stripe t si ~min_epoch stamp shadow =
    TM.note_reclaimed (Coll.Vchain.publish t.snap.(si) ~min_epoch stamp shadow)

  let publish_size t ~min_epoch stamp =
    TM.note_reclaimed
      (Coll.Vchain.publish t.snap_size ~min_epoch stamp t.csize)

  (* ---------------- commit/abort handlers ---------------- *)

  (* Runs exactly once per transaction (the apply and abort handlers are
     mutually exclusive).  The releases run as sequential (never nested)
     criticals: with the commit's region plan held they are reentrant; on
     the abort and read-only paths nothing is held. *)
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
  let prior_of t k (e : _ bw) =
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
    let committed_min =
      shadow_min (Coll.Vchain.latest t.snap.(0)) ~excluded:no_key
    in
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
     size, publish each changed stripe's shadow (and the size) once at
     the commit stamp, release semantic locks. *)
  let apply_handler t l stamp =
    let delta = ref 0 in
    Coll.Chain_hashmap.iter
      (fun k e ->
        TM.critical (key_region t k) (fun () ->
            let si = L.stripe_index t.locks k in
            let shard = t.shards.(si) in
            let before =
              match e.prior with Some p -> p | None -> S.find shard k
            in
            S.apply shard k e.w;
            let after = S.view before e.w in
            delta := !delta + S.weight after - S.weight before;
            let shadow =
              match l.shadows.(si) with
              | Some sh -> sh
              | None -> Coll.Vchain.latest t.snap.(si)
            in
            l.shadows.(si) <- Some (shadow_set shadow k after)))
      l.buffer;
    let min_epoch = TM.reclaim_epoch () in
    for si = 0 to Array.length l.shadows - 1 do
      match l.shadows.(si) with
      | None -> ()
      | Some shadow ->
          l.shadows.(si) <- None;
          TM.critical (L.stripe_region t.locks si) (fun () ->
              publish_stripe t si ~min_epoch stamp shadow)
    done;
    if track_struct && !delta <> 0 then
      TM.critical (sregion t) (fun () ->
          t.csize <- t.csize + !delta;
          publish_size t ~min_epoch stamp);
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
          Array.fill l.shadows 0 (Array.length l.shadows) None;
          l
      | None ->
          let rec l =
            {
              txn;
              buffer = Coll.Chain_hashmap.create ~hash:S.hash ~equal:S.equal ();
              key_locks = [];
              stripes_mask = 0;
              struct_locked = false;
              shadows = Array.make (stripe_count t) None;
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
      let committed_copy = t.copy_key k in
      L.lock_key t.locks l.txn committed_copy;
      l.key_locks <- committed_copy :: l.key_locks;
      l.stripes_mask <- l.stripes_mask lor (1 lsl L.stripe_index t.locks k)
    end

  (* Caller holds [sregion t]. *)
  let lock_size t l =
    L.lock_size t.locks l.txn;
    l.struct_locked <- true

  (* ---------------- reads ---------------- *)

  let find t k =
    if TM.in_snapshot () then
      shadow_find (snap_shadow t (L.stripe_index t.locks k)) k
    else if not (TM.in_txn ()) then
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
    if not S.uses_size then invalid_arg (S.name ^ ": size facet not in spec");
    if TM.in_snapshot () then snap_size t
    else if not (TM.in_txn ()) then TM.critical (sregion t) (fun () -> t.csize)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          lock_size t l;
          t.csize + batch_delta t l)
    end

  let is_empty t =
    if not S.uses_isempty then
      invalid_arg (S.name ^ ": isEmpty facet not in spec");
    if TM.in_snapshot () then snap_size t = 0
    else if not (TM.in_txn ()) then TM.critical (sregion t) (fun () -> t.csize = 0)
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
    if not S.uses_first then
      invalid_arg (S.name ^ ": first facet not in spec");
    let cmp = Option.get S.compare_key in
    if TM.in_snapshot () then shadow_min (snap_shadow t 0) ~excluded:no_key
    else if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () ->
          shadow_min (Coll.Vchain.latest t.snap.(0)) ~excluded:no_key)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_first t.locks l.txn;
          l.struct_locked <- true;
          let excluded k = Option.is_some (Coll.Chain_hashmap.find l.buffer k) in
          let committed =
            shadow_min (Coll.Vchain.latest t.snap.(0)) ~excluded
          in
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

  (* Snapshot enumeration: every stripe's shadow read at the same pinned
     stamp, a prefix-consistent cut across the whole collection. *)
  let snap_fold f t init =
    let acc = ref init in
    for si = 0 to stripe_count t - 1 do
      acc := shadow_fold f (snap_shadow t si) !acc
    done;
    !acc

  (* Committed bindings merged with the calling transaction's buffer,
     under all regions (structure then stripes, ascending rid).
     [on_committed k] runs for each committed key the transaction has not
     buffered. *)
  let merged_fold t l ~on_committed f init =
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
                  on_committed k;
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
    !acc

  let committed_fold f t init =
    let acc = ref init in
    Array.iter (fun shard -> acc := S.fold f shard !acc) t.shards;
    !acc

  (* Full enumeration.  Inside a transaction it locks the size facet (the
     enumeration observes the complete contents, so any weight-changing
     commit must conflict it) plus a key lock on every committed key
     returned; specs without the size facet cannot enumerate
     transactionally. *)
  let fold f t init =
    if TM.in_snapshot () then snap_fold f t init
    else if not (TM.in_txn ()) then
      L.critical_all t.locks (fun () -> committed_fold f t init)
    else begin
      if not S.uses_size then
        invalid_arg
          (S.name ^ ": transactional enumeration requires the size facet");
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          lock_size t l;
          merged_fold t l ~on_committed:(lock_key t l) f init)
    end

  let iter f t = fold (fun k v () -> f k v) t ()

  (* The keys an incremental cursor visits: every committed key plus the
     transaction's buffered insertions, taking no key lock — the cursor's
     [find]s lock what they return.  [lock_size] takes the size facet
     with the enumeration. *)
  let candidate_keys t ~lock_size:eager =
    let key k _ acc = k :: acc in
    if TM.in_snapshot () then snap_fold key t []
    else if not (TM.in_txn ()) then
      L.critical_all t.locks (fun () -> committed_fold key t [])
    else begin
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          if eager then lock_size t l;
          merged_fold t l ~on_committed:ignore key [])
    end

  (* ---------------- writes ---------------- *)

  (* Non-transactional write: structure-then-stripe (ascending rid) so
     the shard mutation, the committed-size update and their shadows are
     atomic for structural readers; the publication draws its stamp
     through [TM.begin_publish] under those regions. *)
  let nontxn_write t k w =
    if TM.in_snapshot () then
      invalid_arg (S.name ^ ": write inside a snapshot read section");
    let doit () =
      TM.critical (key_region t k) (fun () ->
          let si = L.stripe_index t.locks k in
          let shard = t.shards.(si) in
          let before = S.find shard k in
          S.apply shard k w;
          let after = S.view before w in
          let d = if track_struct then S.weight after - S.weight before else 0 in
          if d <> 0 then t.csize <- t.csize + d;
          let stamp = TM.begin_publish () in
          Fun.protect ~finally:TM.end_publish (fun () ->
              let min_epoch = TM.reclaim_epoch () in
              publish_stripe t si ~min_epoch stamp
                (shadow_set (Coll.Vchain.latest t.snap.(si)) k after);
              if d <> 0 then publish_size t ~min_epoch stamp);
          before)
    in
    if track_struct then TM.critical (sregion t) doit else doit ()

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
    TM.critical (key_region t k) (fun () ->
        L.key_locked_by t.locks (TM.current ()) k)

  let outstanding_locks t =
    L.critical_all t.locks (fun () -> L.total_lockers t.locks)

  let buffered_writes t =
    if not (TM.in_txn ()) then 0
    else Coll.Chain_hashmap.size (local_of t).buffer

  (* Longest shadow chain (stripes and size) — reclamation probe: at most
     2 once no snapshot reader is pinned below the newest versions. *)
  let snapshot_history_length t =
    Array.fold_left
      (fun acc chain -> max acc (Coll.Vchain.length chain))
      (Coll.Vchain.length t.snap_size)
      t.snap
end
