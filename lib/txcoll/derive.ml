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
   contributes to the collection's size) and declares its keying and
   which structural facets ({!Commute_spec.facet}) its reads observe.
   The conflict relation is then derived, conservatively, from that
   facet algebra instead of being hand-transcribed per class.

   Facets.  A read locks what it observed; a committing batch
   invalidates, and so conflicts in its prepare phase:
   - [FKey k] (point reads, value-returning writes): every buffered key;
   - size: when the batch's net weight delta is non-zero;
   - isEmpty: when emptiness flips;
   - for ordered specs (Table 5) three more facets.  A range [lo, hi)
     (range folds, view endpoints, cursor steps): every buffered key
     inside it.  First/last (endpoints, unbounded folds): when the batch
     actually moves the endpoint — a key appears beyond it, or the
     endpoint key itself vanishes.
   The committer remote-aborts every holder of an invalidated facet in
   its prepare phase (before the TM's commit point), which is the paper's
   optimistic semantic concurrency control.

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
   conflict.  Conservatism costs only spurious aborts (the victim retries
   and converges), never missed conflicts; the QCheck gate exercises both
   directions.

   Keys.  The spec's {!keying} is the one notion of key equality: it picks
   a key's stripe and keys the store buffer, the semantic lock tables and
   the snapshot shadows, so two keys the class treats as equal are one key
   everywhere.  It also selects the layout of each of them:
   - hashed specs: K hash stripes ([?stripes]), a hash-table store buffer,
     shadows bucketed by hash;
   - ordered specs: B ordered intervals cut by [?splitters] (one interval
     without), each its own stripe and region, so key locks and range
     locks are interval-local and writers of disjoint intervals commit in
     parallel; an ordered store buffer that range reads merge in key
     order; ordered shadows, which the ordered reads walk (under a span's
     regions the newest shadow of a stripe is its committed shard).  The
     committed endpoints are maintained under the structure region; a
     commit that may empty a key plans every region, so that apply can
     rescan them when it removes one.

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

   Update discipline (§5.1 "Redo versus undo logging"; Proust's
   lazy/eager update axis).  The spec fixes it per class:
   - [Lazy] (every class but the undo map): writes go to the store
     buffer, a redo log, which apply flushes to the shards after the
     commit point — the paper's optimistic protocol above.
   - [Eager] (hashed specs only): a write updates its shard in place at
     operation time.  Under the key's region it waits by [TM.retry] while
     a foreign pending writer holds the key, registers as the key's
     writer and aborts the key's other holders at once — only one
     transaction may update a key in place.  Its store-buffer entry,
     whose prior is always read, is the undo record: abort writes the
     priors back before the writer lock goes.  Point reads wait by retry
     on a foreign pending writer of their key, enumerations on any
     foreign pending writer; reads outside a transaction resolve against
     the newest shadows, which hold committed state only, and a write
     outside one waits out the key's pending writer.  The committed size
     still moves only at commit, so size and isEmpty read it without
     waiting.  Prepare is unchanged; apply skips [S.apply] (the shards
     already hold the writes) but folds the size delta and publishes the
     shadows at the commit stamp, so snapshots never see an uncommitted
     or undone write. *)

type 'k keying =
  | Hashed of { hash : 'k -> int; equal : 'k -> 'k -> bool }
      (** Equality with a hash that agrees with it. *)
  | Ordered of ('k -> 'k -> int)
      (** A comparator: keys are equal when it says 0.  Gives the spec
          the range, first and last facets. *)

(* How a class's writes reach its shards (see the header).  [Eager]
   carries the write that restores a prior observation on abort. *)
type ('value, 'wop) update = Lazy | Eager of ('value option -> 'wop)

module type SPEC = sig
  type 'v state
  (** One committed shard: mutable, not thread-safe — the generated
      wrapper serialises all access under its stripe's commit region.
      ['v] is the element type of classes that carry values (the maps);
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
  val keying : key keying

  val update : ('v value, 'v wop) update
  (** Fixed per class: [Lazy] redo logging, or [Eager] in-place update
      with an undo log (hashed specs only). *)

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
      0/1 presence, bag/priority queue: multiplicity); a key is present
      when its weight is positive.  The functor maintains the committed
      size as the running sum of weights and derives the size/isEmpty
      conflict conditions from weight deltas and the endpoint conditions
      from presence changes. *)

  (* ---- structural facets the class's reads can observe ---- *)

  val uses_size : bool
  val uses_isempty : bool
end

module Make (TM : Tm_intf.TM_OPS) (S : SPEC) = struct
  module L = Semlock.Make (TM)

  let ordered = match S.keying with Ordered _ -> true | Hashed _ -> false

  (* Hashed structures' key functions.  Ordered specs never build one; a
     comparator's equality and the constant hash (the one every comparator
     agrees with) stand in. *)
  let hash, equal =
    match S.keying with
    | Hashed { hash; equal } -> (hash, equal)
    | Ordered compare -> ((fun _ -> 0), fun a b -> compare a b = 0)

  let hashed_spec () =
    invalid_arg (S.name ^ ": ordered operation on a hashed spec")

  let eager = match S.update with Eager _ -> true | Lazy -> false

  let () =
    if eager && ordered then
      invalid_arg (S.name ^ ": eager update needs a hashed spec")

  let cmp a b =
    match S.keying with
    | Ordered compare -> compare a b
    | Hashed _ -> hashed_spec ()

  (* One store-buffer entry.  [prior] is the committed observation at the
     time the transaction first read the key ([None] = never read: the
     writes so far are blind); it stays valid for the transaction's
     lifetime because reading it also takes the key's lock, so any commit
     changing it aborts us first. *)
  type 'v bw = { mutable w : 'v S.wop; mutable prior : 'v S.value option option }

  (* The store buffer, keyed like the class: ordered specs keep it in key
     order, so range reads merge it with the committed shards. *)
  type 'v buffer =
    | Hbuffer of (S.key, 'v bw) Coll.Chain_hashmap.t
    | Obuffer of (S.key, 'v bw) Coll.Ordmap.t

  (* Immutable shadow of one shard: a persistent map under the
     comparator (ordered specs), or from key hash to the bindings sharing
     that hash (hashed ones). *)
  type 'v shadow =
    | Hshadow of (int, (S.key * 'v S.value) list) Coll.Pmap.t
    | Oshadow of (S.key, 'v S.value) Coll.Pmap.t

  type 'v local = {
    mutable txn : TM.txn;
    buffer : 'v buffer;
    mutable key_locks : S.key list;
    mutable stripes_mask : int; (* stripes of held key locks + blind keys *)
    mutable ranges_mask : int; (* stripes holding this txn's range locks *)
    mutable struct_locked : bool; (* holds a size/isEmpty/first/last lock *)
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
    mutable cmin : S.key option;
    mutable cmax : S.key option;
        (* ordered specs: the least and greatest present committed keys;
           read/written only under the structure region *)
    copy_key : S.key -> S.key;
        (* §5.1 "Leaking uncommitted data": keys recorded in the shared
           lock table stay visible to other transactions; a copier stores
           an independent committed copy (identity for immutable keys). *)
    local_key : 'v local TM.local_key;
  }

  let default_stripes = 16
  let track_struct = S.uses_size || S.uses_isempty || ordered
  let present v = S.weight v > 0

  (* ---------------- store buffer ---------------- *)

  let buf_find b k =
    match b with
    | Hbuffer h -> Coll.Chain_hashmap.find h k
    | Obuffer o -> Coll.Ordmap.find o k

  let buf_add b k e =
    match b with
    | Hbuffer h -> Coll.Chain_hashmap.add h k e
    | Obuffer o -> Coll.Ordmap.add o k e

  let buf_iter f = function
    | Hbuffer h -> Coll.Chain_hashmap.iter f h
    | Obuffer o -> Coll.Ordmap.iter f o

  let buf_fold f b acc =
    match b with
    | Hbuffer h -> Coll.Chain_hashmap.fold f h acc
    | Obuffer o -> Coll.Ordmap.fold f o acc

  let buf_is_empty = function
    | Hbuffer h -> Coll.Chain_hashmap.is_empty h
    | Obuffer o -> Coll.Ordmap.is_empty o

  let buf_size = function
    | Hbuffer h -> Coll.Chain_hashmap.size h
    | Obuffer o -> Coll.Ordmap.size o

  let buf_clear = function
    | Hbuffer h -> Coll.Chain_hashmap.clear h
    | Obuffer o -> Coll.Ordmap.clear o

  let ordered_buffer l =
    match l.buffer with Obuffer o -> o | Hbuffer _ -> hashed_spec ()

  (* ---------------- shadows ---------------- *)

  let shadow_empty () =
    match S.keying with
    | Ordered compare -> Oshadow (Coll.Pmap.empty ~compare)
    | Hashed _ -> Hshadow (Coll.Pmap.empty ~compare:Int.compare)

  let rec drop_key k = function
    | [] -> []
    | ((k', _) as b) :: rest -> if equal k k' then rest else b :: drop_key k rest

  (* The shadow with [k] bound to [v] ([None] = unbound). *)
  let shadow_set sh k v =
    match sh with
    | Oshadow pm -> (
        match v with
        | Some v -> Oshadow (Coll.Pmap.add pm k v)
        | None -> Oshadow (Coll.Pmap.remove pm k))
    | Hshadow pm -> (
        let h = hash k in
        let rest =
          match Coll.Pmap.find pm h with None -> [] | Some b -> drop_key k b
        in
        match (v, rest) with
        | Some v, b -> Hshadow (Coll.Pmap.add pm h ((k, v) :: b))
        | None, [] -> Hshadow (Coll.Pmap.remove pm h)
        | None, b -> Hshadow (Coll.Pmap.add pm h b))

  let shadow_find sh k =
    match sh with
    | Oshadow pm -> Coll.Pmap.find pm k
    | Hshadow pm -> (
        match Coll.Pmap.find pm (hash k) with
        | None -> None
        | Some b ->
            List.find_map (fun (k', v) -> if equal k k' then Some v else None) b)

  let shadow_fold f sh acc =
    match sh with
    | Oshadow pm -> Coll.Pmap.fold f pm acc
    | Hshadow pm ->
        Coll.Pmap.fold
          (fun _ b acc -> List.fold_left (fun acc (k, v) -> f k v acc) acc b)
          pm acc

  let sorted = function Oshadow pm -> pm | Hshadow _ -> hashed_spec ()

  (* [stripes] sizes a hashed spec's table, [splitters] cuts an ordered
     one's. *)
  let create ?(stripes = default_stripes) ?(splitters = []) ?(copy_key = Fun.id)
      () =
    let locks =
      match S.keying with
      | Hashed { hash; equal } -> L.create ~stripes ~hash ~equal ()
      | Ordered compare ->
          L.create_intervals ~splitters:(Array.of_list splitters) ~compare ()
    in
    let k = L.stripe_count locks in
    {
      locks;
      shards = Array.init k (fun _ -> S.create ());
      snap = Array.init k (fun _ -> Coll.Vchain.make 0 (shadow_empty ()));
      csize = 0;
      snap_size = Coll.Vchain.make 0 0;
      cmin = None;
      cmax = None;
      copy_key;
      local_key = TM.new_local_key ();
    }

  let sregion t = L.struct_region t.locks
  let shard_of t k = t.shards.(L.stripe_index t.locks k)
  let key_region t k = L.region_of_key t.locks k
  let stripe_count t = L.stripe_count t.locks

  let all_regions t =
    let acc = ref [] in
    for i = stripe_count t - 1 downto 0 do
      acc := L.stripe_region t.locks i :: !acc
    done;
    sregion t :: !acc

  (* Nested criticals over the regions of the stripes [lo, hi) overlaps,
     ascending index (= ascending rid). *)
  let critical_span t ~lo ~hi f =
    let i, j = L.interval_span t.locks ~lo ~hi in
    let rec go i =
      if i > j then f ()
      else TM.critical (L.stripe_region t.locks i) (fun () -> go (i + 1))
    in
    go i

  (* Snapshot reads resolve against the chains at the pinned stamp; the
     other ordered reads walk the newest shadows under the stripes'
     regions. *)
  let snap_shadow t si = Coll.Vchain.read_at t.snap.(si) (TM.snapshot_stamp ())
  let latest_shadow t si = Coll.Vchain.latest t.snap.(si)
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

  (* ---------------- ordered walks ---------------- *)

  (* Walk the ordered shadows' bindings in [lo, hi), ascending ([up]) or
     descending: stripes hold disjoint ascending intervals, so visiting
     them in index order is global key order.  [f] may raise to stop. *)
  let walk t shadow ~up ~lo ~hi f =
    let i, j = L.interval_span t.locks ~lo ~hi in
    if up then
      for si = i to j do
        Coll.Pmap.iter_range f (sorted (shadow t si)) ~lo ~hi
      done
    else
      for si = j downto i do
        Coll.Pmap.iter_range_rev f (sorted (shadow t si)) ~lo ~hi
      done

  (* First binding an ordered walk visits; [iter] gets a visitor that ends
     the walk at once — O(log n) per walk. *)
  let first_visited iter =
    let r = ref None in
    (try
       iter (fun k v ->
           r := Some (k, v);
           raise_notrace Exit)
     with Exit -> ());
    !r

  (* Does [k] lie strictly above [above] ([None]: no lower limit)? *)
  let past above k = match above with Some a -> cmp k a > 0 | None -> true
  let no_key _ = false

  (* First ([up]) or last committed binding in [lo, hi), strictly above
     [above] when given, skipping the keys [skip] names. *)
  let committed_seek t shadow ~up ~above ~lo ~hi ~skip =
    first_visited (fun f ->
        walk t shadow ~up ~lo ~hi (fun k v ->
            if past above k && not (skip k) then f k v))

  (* Least (or greatest) binding across the shadows: the first non-empty
     stripe from that end. *)
  let edge t shadow ~last =
    let n = stripe_count t in
    let rec go i =
      if i < 0 || i >= n then None
      else
        let pm = sorted (shadow t i) in
        match
          if last then Coll.Pmap.max_binding pm else Coll.Pmap.min_binding pm
        with
        | Some _ as b -> b
        | None -> go (if last then i - 1 else i + 1)
    in
    go (if last then n - 1 else 0)

  (* The endpoint rule (Table 5): [k] appearing moves the first
     (last) endpoint iff it lies below (above) it — or the collection was
     empty; [k] vanishing moves it iff [k] is the endpoint.  [sign] is -1
     for the first endpoint [ep], 1 for the last. *)
  let moves ep k sign ~appears =
    match ep with
    | None -> appears
    | Some e -> if appears then sign * cmp k e > 0 else cmp k e = 0

  (* Maintain an ordered spec's committed endpoints as write [before ->
     after] makes [k] appear or vanish; [true] when a vanished endpoint
     needs [rescan_endpoints].  A presence change holds the structure
     region. *)
  let track_endpoints t k ~before ~after =
    ordered
    && present before <> present after
    &&
    let appears = present after in
    let first = moves t.cmin k (-1) ~appears in
    let last = moves t.cmax k 1 ~appears in
    if appears then begin
      if first then t.cmin <- Some k;
      if last then t.cmax <- Some k;
      false
    end
    else first || last

  (* Caller holds every region, and has published the shards' shadows. *)
  let rescan_endpoints t =
    t.cmin <- Option.map fst (edge t latest_shadow ~last:false);
    t.cmax <- Option.map fst (edge t latest_shadow ~last:true)

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
    if l.ranges_mask <> 0 then
      for i = 0 to stripe_count t - 1 do
        if l.ranges_mask land (1 lsl i) <> 0 then
          TM.critical (L.stripe_region t.locks i) (fun () ->
              L.release_ranges_in_stripe t.locks l.txn i)
      done;
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
    buf_fold
      (fun k e acc ->
        let prior = prior_of t k e in
        acc + S.weight (S.view prior e.w) - S.weight prior)
      l.buffer 0

  (* Could write [w] over committed observation [prior] ([None] = not
     read) leave a present key absent?  A blind absorbing write does iff
     it installs absence; a blind delta might. *)
  let may_vacate prior w =
    match prior with
    | Some p -> present p && not (present (S.view p w))
    | None -> (not (S.absorbing w)) || not (present (S.view None w))

  (* Commit region plan: the stripes of every locked/buffered key and of
     every held range, plus the structure region when the transaction
     read structural state or its writes may move a structural facet (a
     blind write's effect is unknown until applied, so it is planned
     conservatively).  An ordered batch that may empty a key plans every
     region: removing an endpoint rescans every stripe for the new one. *)
  let regions_plan t l () =
    (* bit 0: the batch may empty a key; bit 1: it may move the size *)
    let effects =
      buf_fold
        (fun _ e acc ->
          let vacate = if may_vacate e.prior e.w then 1 else 0 in
          let resize =
            match e.prior with
            | None -> 2
            | Some p -> if S.weight (S.view p e.w) <> S.weight p then 2 else 0
          in
          acc lor vacate lor resize)
        l.buffer 0
    in
    if ordered && effects land 1 <> 0 then all_regions t
    else begin
      let mask = l.stripes_mask lor l.ranges_mask in
      let acc = ref [] in
      for i = stripe_count t - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then
          acc := L.stripe_region t.locks i :: !acc
      done;
      if l.struct_locked || (track_struct && effects land 2 <> 0) then
        sregion t :: !acc
      else !acc
    end

  (* Derived first/last conflict condition (Table 5): the batch moves an
     endpoint iff some key appears beyond it or the endpoint key itself
     vanishes.  Caller holds the structure region. *)
  let endpoint_conflicts t l ~self =
    let first = ref false and last = ref false in
    buf_iter
      (fun k e ->
        let prior = prior_of t k e in
        let appears = present (S.view prior e.w) in
        if present prior <> appears then begin
          if moves t.cmin k (-1) ~appears then first := true;
          if moves t.cmax k 1 ~appears then last := true
        end)
      l.buffer;
    if !first then L.conflict_first t.locks ~self;
    if !last then L.conflict_last t.locks ~self

  (* A buffered key invalidates its key facet and every range containing
     it; caller holds the key's region. *)
  let conflict_key_facets t ~self k =
    L.conflict_key t.locks ~self k;
    if ordered then L.conflict_range t.locks ~self ~compare:cmp k

  (* Prepare phase: abort the holders of every facet this batch
     invalidates — key and range facets under each key's region, then the
     structural ones.  Read-only on the shards and may raise; it runs
     before the TM's commit point so an exception aborts with nothing
     applied.  A weight change or a presence flip puts the structure
     region in the plan, so every critical below re-enters a region the
     plan holds. *)
  let prepare_handler t l () =
    let self = l.txn in
    let flips = ref false in
    let delta =
      buf_fold
        (fun k e acc ->
          TM.critical (key_region t k) (fun () ->
              conflict_key_facets t ~self k);
          if not track_struct then acc
          else
            let prior = prior_of t k e in
            let after = S.view prior e.w in
            if present prior <> present after then flips := true;
            acc + S.weight after - S.weight prior)
        l.buffer 0
    in
    if delta <> 0 || !flips then
      TM.critical (sregion t) (fun () ->
          if S.uses_size && delta <> 0 then L.conflict_size t.locks ~self;
          if S.uses_isempty && (t.csize = 0) <> (t.csize + delta = 0) then
            L.conflict_isempty t.locks ~self;
          if ordered && !flips && L.endpoint_locked t.locks then
            endpoint_conflicts t l ~self)

  (* Apply phase, after the commit point: flush the buffer to the shards
     (one combined op per key; eager shards already hold it), fold the
     weight delta into the committed size and the presence flips into the
     endpoints, publish each changed stripe's shadow (and the size) once
     at the commit stamp, release semantic locks.  A read-only commit only
     releases its locks. *)
  (* One key of [flush]; caller holds [key_region t k]. *)
  let flush_key t l ~delta ~rescan k e =
    let si = L.stripe_index t.locks k in
    let shard = t.shards.(si) in
    let before = match e.prior with Some p -> p | None -> S.find shard k in
    if not eager then S.apply shard k e.w;
    let after = S.view before e.w in
    delta := !delta + S.weight after - S.weight before;
    if track_endpoints t k ~before ~after then rescan := true;
    let shadow =
      match l.shadows.(si) with
      | Some sh -> sh
      | None -> Coll.Vchain.latest t.snap.(si)
    in
    l.shadows.(si) <- Some (shadow_set shadow k after)

  let flush t l stamp =
    let delta = ref 0 and rescan = ref false in
    buf_iter
      (fun k e ->
        TM.critical (key_region t k) (fun () ->
            flush_key t l ~delta ~rescan k e))
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
    if track_struct && (!delta <> 0 || !rescan) then
      TM.critical (sregion t) (fun () ->
          t.csize <- t.csize + !delta;
          if !rescan then rescan_endpoints t;
          if !delta <> 0 then publish_size t ~min_epoch stamp)

  let apply_handler t l stamp =
    if not (buf_is_empty l.buffer) then flush t l stamp;
    cleanup t l

  (* Abort phase: an eager transaction writes each key's prior back under
     the key's region while it still holds the key's writer lock, so no
     other transaction sees the shard between the undo and the
     release. *)
  let abort_handler t l =
    (match S.update with
    | Lazy -> ()
    | Eager restore ->
        buf_iter
          (fun k e ->
            TM.critical (key_region t k) (fun () ->
                S.apply (shard_of t k) k (restore (prior_of t k e))))
          l.buffer);
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
          buf_clear l.buffer;
          l.key_locks <- [];
          l.stripes_mask <- 0;
          l.ranges_mask <- 0;
          l.struct_locked <- false;
          Array.fill l.shadows 0 (Array.length l.shadows) None;
          l
      | None ->
          let rec l =
            {
              txn;
              buffer =
                (match S.keying with
                | Hashed { hash; equal } ->
                    Hbuffer (Coll.Chain_hashmap.create ~hash ~equal ())
                | Ordered compare -> Obuffer (Coll.Ordmap.create ~compare ()));
              key_locks = [];
              stripes_mask = 0;
              ranges_mask = 0;
              struct_locked = false;
              shadows = Array.make (stripe_count t) None;
              h_read_only = (fun () -> buf_is_empty l.buffer);
              h_regions = (fun () -> regions_plan t l ());
              h_prepare = (fun () -> prepare_handler t l ());
              h_apply = (fun stamp -> apply_handler t l stamp);
              h_abort = (fun () -> abort_handler t l);
            }
          in
          l
    in
    TM.on_commit_prepared ~read_only:l.h_read_only ~regions:l.h_regions
      (sregion t) ~prepare:l.h_prepare ~apply:l.h_apply;
    TM.on_abort l.h_abort;
    l

  let local_of t = TM.txn_local t.local_key attach t

  (* Caller holds [key_region t k].  On an eager spec it first waits by
     retry while another transaction has [k] updated in place: the shard
     holds that transaction's uncommitted write.  [TM.retry] raises, which
     leaves the caller's criticals. *)
  let lock_key t l k =
    if eager && L.key_has_foreign_writer t.locks ~self:l.txn k then TM.retry ();
    if not (L.key_locked_by t.locks l.txn k) then begin
      let committed_copy = t.copy_key k in
      L.lock_key t.locks l.txn committed_copy;
      l.key_locks <- committed_copy :: l.key_locks;
      l.stripes_mask <- l.stripes_mask lor (1 lsl L.stripe_index t.locks k)
    end

  (* Committed read of [k] outside a transaction, under its region: an
     eager shard may hold pending in-place writes, the newest shadow never
     does. *)
  let committed_find t k =
    if eager then shadow_find (latest_shadow t (L.stripe_index t.locks k)) k
    else S.find (shard_of t k) k

  (* Caller holds [sregion t]. *)
  let lock_size t l =
    L.lock_size t.locks l.txn;
    l.struct_locked <- true

  (* Caller holds [sregion t]. *)
  let lock_endpoint_held t l ~last =
    (if last then L.lock_last else L.lock_first) t.locks l.txn;
    l.struct_locked <- true

  (* Registers [lo, hi) and records its stripes, so the commit plan covers
     them and cleanup releases them.  Caller holds the span's regions. *)
  let lock_range t l ~lo ~hi =
    let i, j = L.interval_span t.locks ~lo ~hi in
    L.lock_range t.locks l.txn ~compare:cmp { L.lo; hi };
    for si = i to j do
      l.ranges_mask <- l.ranges_mask lor (1 lsl si)
    done

  (* ---------------- reads ---------------- *)

  let find t k =
    if TM.in_snapshot () then
      shadow_find (snap_shadow t (L.stripe_index t.locks k)) k
    else if not (TM.in_txn ()) then
      TM.critical (key_region t k) (fun () -> committed_find t k)
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match buf_find l.buffer k with
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

  (* The calling transaction's first ([up]) or last binding in [lo, hi),
     strictly above [above] when given ([lo] is then [above]): the first
     committed key the buffer does not override against the first
     buffered key still present, each found by an early-exit walk.
     Caller holds the span's regions. *)
  let merged_seek t l ~up ~above ~lo ~hi =
    let buf = ordered_buffer l in
    let committed =
      committed_seek t latest_shadow ~up ~above ~lo ~hi
        ~skip:(Coll.Ordmap.mem buf)
    in
    let buffered =
      first_visited (fun f ->
          (if up then Coll.Ordmap.iter_range else Coll.Ordmap.iter_range_rev)
            (fun k e ->
              if past above k then
                match S.view (prior_of t k e) e.w with
                | Some v -> f k v
                | None -> ())
            buf ~lo ~hi)
    in
    match (committed, buffered) with
    | None, x | x, None -> x
    | Some (kc, _), Some (kb, _) ->
        let c = cmp kb kc in
        if (up && c < 0) || ((not up) && c > 0) then buffered else committed

  (* The first (or last) facet: the least (greatest) present key, with its
     binding.  Inside a transaction it takes the facet's lock; committers
     that move the endpoint conflict it in prepare.  With nothing
     buffered the maintained committed endpoint answers; otherwise the
     merged walk runs under every region. *)
  let endpoint t ~last =
    if not ordered then hashed_spec ();
    let committed () =
      match if last then t.cmax else t.cmin with
      | None -> None
      | Some k ->
          Option.map
            (fun v -> (k, v))
            (TM.critical (key_region t k) (fun () -> S.find (shard_of t k) k))
    in
    if TM.in_snapshot () then edge t snap_shadow ~last
    else if not (TM.in_txn ()) then TM.critical (sregion t) committed
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          lock_endpoint_held t l ~last;
          if buf_is_empty l.buffer then committed ()
          else
            L.critical_all t.locks (fun () ->
                merged_seek t l ~up:(not last) ~above:None ~lo:None ~hi:None))
    end

  (* Take the first (or last) facet lock without reading: an incremental
     iteration that starts at the minimum (or runs off the maximum) has
     observed that endpoint. *)
  let lock_endpoint t ~last =
    if TM.in_txn () then begin
      let l = local_of t in
      TM.critical (sregion t) (fun () -> lock_endpoint_held t l ~last)
    end

  (* Ordered seek with the locks its answer reveals: the first ([up]) or
     last binding in [lo, hi) — strictly above [above] when given — takes
     a range lock over the span it proved empty ([lo or above, found), or
     [found, hi)) plus a key lock on the found key; no binding locks the
     whole span.  O(log n) in every read mode. *)
  let seek t ~up ~above ~lo ~hi =
    if not ordered then hashed_spec ();
    let lo = match above with Some _ -> above | None -> lo in
    if TM.in_snapshot () then
      committed_seek t snap_shadow ~up ~above ~lo ~hi ~skip:no_key
    else if not (TM.in_txn ()) then
      critical_span t ~lo ~hi (fun () ->
          committed_seek t latest_shadow ~up ~above ~lo ~hi ~skip:no_key)
    else begin
      let l = local_of t in
      critical_span t ~lo ~hi (fun () ->
          match merged_seek t l ~up ~above ~lo ~hi with
          | None ->
              lock_range t l ~lo ~hi;
              None
          | Some (k, _) as r ->
              if up then lock_range t l ~lo ~hi:(Some k)
              else lock_range t l ~lo:(Some k) ~hi;
              lock_key t l k;
              r)
    end

  (* The calling transaction's bindings in [lo, hi), in key order: the
     committed ones the buffer does not override merged with the buffered
     ones still present.  Caller holds the span's regions. *)
  let merged_range t l ~lo ~hi =
    let buf = ordered_buffer l in
    let committed = ref [] in
    walk t latest_shadow ~up:false ~lo ~hi (fun k v ->
        if not (Coll.Ordmap.mem buf k) then committed := (k, v) :: !committed);
    let buffered = ref [] in
    Coll.Ordmap.iter_range_rev
      (fun k e ->
        match S.view (prior_of t k e) e.w with
        | Some v -> buffered := (k, v) :: !buffered
        | None -> ())
      buf ~lo ~hi;
    List.merge (fun (a, _) (b, _) -> cmp a b) !committed !buffered

  (* Ordered fold over [lo, hi) with Table 5 locking: the range lock over
     the span, plus the first lock when it starts at the minimum and the
     last lock when it runs off the maximum.  The bindings are read under
     the span's regions (after the structure region, lowest rid, when an
     endpoint lock is due); [f] runs after they are released — the
     registered locks, not the regions, make the observation
     serializable. *)
  let fold_range f t init ~lo ~hi =
    if not ordered then hashed_spec ();
    if TM.in_snapshot () then begin
      let acc = ref init in
      walk t snap_shadow ~up:true ~lo ~hi (fun k v -> acc := f k v !acc);
      !acc
    end
    else
      let items =
        if not (TM.in_txn ()) then
          critical_span t ~lo ~hi (fun () ->
              let acc = ref [] in
              walk t latest_shadow ~up:false ~lo ~hi (fun k v ->
                  acc := (k, v) :: !acc);
              !acc)
        else begin
          let l = local_of t in
          let read () =
            critical_span t ~lo ~hi (fun () ->
                lock_range t l ~lo ~hi;
                merged_range t l ~lo ~hi)
          in
          if lo = None || hi = None then
            TM.critical (sregion t) (fun () ->
                if lo = None then lock_endpoint_held t l ~last:false;
                if hi = None then lock_endpoint_held t l ~last:true;
                read ())
          else read ()
        end
      in
      List.fold_left (fun acc (k, v) -> f k v acc) init items

  (* Enumeration of the shadows [shadow] selects: inside a snapshot every
     stripe's shadow at the same pinned stamp, a prefix-consistent cut
     across the whole collection. *)
  let shadows_fold shadow f t init =
    let acc = ref init in
    for si = 0 to stripe_count t - 1 do
      acc := shadow_fold f (shadow t si) !acc
    done;
    !acc

  (* Committed bindings merged with the calling transaction's buffer,
     under all regions (structure then stripes, ascending rid).
     [on_committed k] runs for each committed key the transaction has not
     buffered.  On an eager spec it first waits, like [lock_key], while
     another transaction has any key updated in place. *)
  let merged_fold t l ~on_committed f init =
    if eager && L.any_other_writer t.locks ~self:l.txn then TM.retry ();
    let acc = ref init in
    Array.iter
      (fun shard ->
        acc :=
          S.fold
            (fun k v a ->
              match buf_find l.buffer k with
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
    buf_iter
      (fun k e ->
        if Option.is_none (S.find (shard_of t k) k) then
          match S.view (prior_of t k e) e.w with
          | Some v -> acc := f k v !acc
          | None -> ())
      l.buffer;
    !acc

  (* Caller holds every region; eager shards read as [committed_find]. *)
  let committed_fold f t init =
    if eager then shadows_fold latest_shadow f t init
    else begin
      let acc = ref init in
      Array.iter (fun shard -> acc := S.fold f shard !acc) t.shards;
      !acc
    end

  (* Full enumeration.  Ordered specs fold the whole key range in order
     (range, first and last locks).  Hashed ones, inside a transaction,
     lock the size facet (the enumeration observes the complete contents,
     so any weight-changing commit must conflict it) plus a key lock on
     every committed key returned; hashed specs without the size facet
     cannot enumerate transactionally. *)
  let fold f t init =
    if ordered then fold_range f t init ~lo:None ~hi:None
    else if TM.in_snapshot () then shadows_fold snap_shadow f t init
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
  let candidate_keys t ~lock_size:with_size =
    let key k _ acc = k :: acc in
    if TM.in_snapshot () then shadows_fold snap_shadow key t []
    else if not (TM.in_txn ()) then
      L.critical_all t.locks (fun () -> committed_fold key t [])
    else begin
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          if with_size then lock_size t l;
          merged_fold t l ~on_committed:ignore key [])
    end

  (* ---------------- writes ---------------- *)

  (* Non-transactional write: structure-then-stripe (ascending rid) so
     the shard mutation, the committed size and endpoints and their
     shadows are atomic for structural readers — every region when it may
     empty a key of an ordered spec, for the endpoint rescan; the
     publication draws its stamp through [TM.begin_publish] under those
     regions.  On an eager spec it spins while a transaction has the key
     updated in place: its undo would overwrite this write. *)
  exception Pending_writer

  let rec nontxn_write t k w =
    if TM.in_snapshot () then
      invalid_arg (S.name ^ ": write inside a snapshot read section");
    let doit () =
      TM.critical (key_region t k) (fun () ->
          if eager && L.key_writer t.locks k <> None then
            raise_notrace Pending_writer;
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
          if track_endpoints t k ~before ~after then rescan_endpoints t;
          before)
    in
    let run () =
      if ordered && may_vacate None w then L.critical_all t.locks doit
      else if track_struct then TM.critical (sregion t) doit
      else doit ()
    in
    if not eager then run ()
    else
      match run () with
      | before -> before
      | exception Pending_writer ->
          Domain.cpu_relax ();
          nontxn_write t k w

  (* Eager write, under the key's region: wait by retry on a foreign
     pending writer ([lock_key]), register as the key's writer and abort
     its other holders at once, keep the first prior as the undo record
     and update the shard in place.  Returns the key's observation before
     the write. *)
  let eager_write t l k w =
    TM.critical (key_region t k) (fun () ->
        lock_key t l k;
        L.lock_key_write t.locks l.txn k;
        L.conflict_key t.locks ~self:l.txn k;
        let shard = shard_of t k in
        let old = S.find shard k in
        (match buf_find l.buffer k with
        | Some e -> e.w <- S.combine ~earlier:e.w ~later:w
        | None -> buf_add l.buffer k { w; prior = Some old });
        S.apply shard k w;
        old)

  (* Transactional write: buffer the op (combining with an earlier write
     to the same key) and return the prior observation.  Blind writes
     read nothing and lock nothing — two blind writers of the same key
     never conflict with each other, only with the key's readers (this
     is what makes counter increments commute).  Eager writes are never
     blind: their prior is the undo record. *)
  let write t k w ~blind =
    if not (TM.in_txn ()) then nontxn_write t k w
    else if eager then eager_write t (local_of t) k w
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match buf_find l.buffer k with
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
                buf_add l.buffer k { w; prior = None };
                l.stripes_mask <-
                  l.stripes_mask lor (1 lsl L.stripe_index t.locks k);
                None
              end
              else begin
                (* Returning the prior observation reads the key
                   (Table 2: value-returning writes take a key lock). *)
                lock_key t l k;
                let p = S.find (shard_of t k) k in
                buf_add l.buffer k { w; prior = Some p };
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
    if not (TM.in_txn ()) then 0 else buf_size (local_of t).buffer

  (* Length of the shadow chain of [k]'s stripe. *)
  let key_history_length t k =
    Coll.Vchain.length t.snap.(L.stripe_index t.locks k)

  (* Longest shadow chain (stripes and size) — reclamation probe: at most
     2 once no snapshot reader is pinned below the newest versions. *)
  let snapshot_history_length t =
    Array.fold_left
      (fun acc chain -> max acc (Coll.Vchain.length chain))
      (Coll.Vchain.length t.snap_size)
      t.snap
end
