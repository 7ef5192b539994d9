(* The Proust-style semantic functor: derive a transactional collection
   class from a sequential implementation plus a commutativity/lock spec.

   Every collection class needs the same concurrent plumbing — semantic
   lock acquisition under the right stripe regions, a keyed store buffer
   (redo log), a commit region plan, two-phase prepare/apply handlers,
   abort teardown, snapshot version chains — and a write-write conflict
   once lost by a hand-written wrapper showed that this plumbing is
   exactly where the bugs live.
   {!Make} generates all of it from a {!SPEC}: the spec contributes only
   the *sequential* semantics (overlay a buffered write on an
   observation, collapse two writes to one key, the weight an observation
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
     order; ordered shadows, which range reads walk in key order.  The
     committed endpoints are maintained under the structure region; a
     commit that may empty a key plans every region, so that apply can
     rescan them when it removes one.

   Committed state.  Each stripe keeps one copy of its committed state:
   a chain ([Coll.Vchain]) of immutable shadows (a persistent map under
   the comparator for ordered specs, from key hash to bucket for hashed
   ones), plus one structure chain carrying the committed size.  The
   newest shadow of a stripe is its committed state: under the stripe's
   region every committed read resolves against it — point reads, the
   buffered priors, enumerations, ordered walks and endpoints.  A commit
   writes each buffered key once, binding it to [view before w] in the
   stripe's new shadow, and publishes that shadow at its commit stamp
   while still holding the stripe's region (the structure chain under the
   structure region); a non-transactional write draws its stamp through
   [TM.begin_publish] under the same regions, so publications to one
   chain are serialized and stamp-monotone.  This is the redo log of
   §5.1 over one versioned committed state, Proust's lazy update.  Inside
   [TM.in_snapshot] every read resolves against the newest shadow at or
   below the pinned stamp: no region, no semantic lock, no abort.

   Update discipline (§5.1 "Redo versus undo logging"; Proust's
   lazy/eager update axis).  The spec fixes it per class:
   - [Lazy] (every class but the undo map): writes go to the store
     buffer, a redo log, which apply flushes into the shadows after the
     commit point — the paper's optimistic protocol above.
   - [Eager] (hashed specs only): the spec also names an in-place table
     (one per stripe, the wrapped structure), and a write updates it at
     operation time.  Under the key's region it waits by [TM.retry] while
     a foreign pending writer holds the key, registers as the key's
     writer and aborts the key's other holders at once — only one
     transaction may update a key in place.  Its store-buffer entry,
     whose prior is always read, is the undo record: abort writes the
     priors back before the writer lock goes.  Point reads inside a
     transaction read the table and wait by retry on a foreign pending
     writer of their key, enumerations on any foreign pending writer;
     reads outside a transaction resolve against the newest shadows,
     which hold committed state only, and a write outside one waits out
     the key's pending writer.  The committed size still moves only at
     commit, so size and isEmpty read it without waiting.  Prepare is
     unchanged; apply folds the size delta and publishes the shadows at
     the commit stamp, so snapshots never see an uncommitted or undone
     write.
   The queue (§3.3) adds two operations.  [append] is a blind write whose
   key is drawn at commit, under the structure region, so key order is
   commit order.  [first_now] reads the first binding without a lock and
   can remove it at operation time, reducing isolation on purpose; abort
   binds it back. *)

type 'k keying =
  | Hashed of { hash : 'k -> int; equal : 'k -> 'k -> bool }
      (** Equality with a hash that agrees with it. *)
  | Ordered of ('k -> 'k -> int)
      (** A comparator: keys are equal when it says 0.  Gives the spec
          the range, first and last facets. *)

(* How a class's writes reach committed state (see the header).  [Eager]
   carries the in-place table — mutable, not thread-safe: the generated
   class serialises all access under the stripe's commit region — and
   the write that restores a prior observation on abort. *)
type ('key, 'value, 'wop) update =
  | Lazy
  | Eager : {
      create : unit -> 'table;
      find : 'table -> 'key -> 'value option;
      apply : 'table -> 'key -> 'wop -> unit;
      restore : 'value option -> 'wop;
    }
      -> ('key, 'value, 'wop) update

(* The facets lock introspection reads ({!Make.holds_lock},
   {!Make.lockers}). *)
type facet = Semlock.facet = Keys | Size | Isempty | First | Last | Ranges

module type SPEC = sig
  type key

  type 'v value
  (** What a read of one key observes (map: the bound value, set: [unit]
      presence, bag and priority queue: multiplicity, counter: the
      shard key's sum).  ['v] is the element type of classes that carry
      values (the maps); the others ignore it. *)

  type 'v wop
  (** One buffered write to one key — the store-buffer (redo log)
      alphabet. *)

  val name : string
  val keying : key keying

  val update : (key, 'v value, 'v wop) update
  (** Fixed per class: [Lazy] redo logging, or [Eager] in-place update
      with an undo log (hashed specs only). *)

  (* ---- store-buffer algebra ---- *)

  val combine : earlier:'v wop -> later:'v wop -> 'v wop
  (** Two buffered writes to the same key collapse into one (last-write
      wins for map-style ops, sum for commutative deltas), keeping the
      buffer O(distinct keys) and the apply phase one-op-per-key. *)

  val view : 'v value option -> 'v wop -> 'v value option
  (** Overlay a buffered write on a prior observation: what a read of
      the key returns inside the transaction that buffered it, and what
      the commit binds the key to.  An [Eager] table's [apply] must agree
      with it. *)

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
     order, so range reads merge it with the committed shadows. *)
  type 'v buffer =
    | Hbuffer of (S.key, 'v bw) Coll.Chain_hashmap.t
    | Obuffer of (S.key, 'v bw) Coll.Ordmap.t

  (* A hashed shadow's bucket: the bindings sharing one key hash. *)
  type 'v bucket = Nil | Cons of S.key * 'v S.value * 'v bucket

  (* Immutable committed state of one stripe: a persistent map under the
     comparator (ordered specs), or from key hash to bucket (hashed
     ones). *)
  type 'v shadow =
    | Hshadow of (int, 'v bucket) Coll.Pmap.t
    | Oshadow of (S.key, 'v S.value) Coll.Pmap.t

  (* An [Eager] spec's in-place table for one stripe. *)
  type 'v table = {
    tfind : S.key -> 'v S.value option;
    tapply : S.key -> 'v S.wop -> unit;
  }

  type 'v local = {
    mutable txn : TM.txn;
    buffer : 'v buffer;
    mutable key_locks : S.key list;
    mutable stripes_mask : int; (* stripes of held key locks + blind keys *)
    mutable ranges_mask : int; (* stripes holding this txn's range locks *)
    mutable struct_locked : bool; (* holds a size/isEmpty/first/last lock *)
    appends : ((unit -> S.key) * 'v S.wop) Coll.Fifo_deque.t;
        (* [append]ed writes, oldest first, with their key sources *)
    mutable undo : (S.key * 'v S.value) list;
        (* bindings [first_now] removed, newest first *)
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
    snap : 'v shadow Coll.Vchain.t array;
        (* chain [i] versions the committed state of stripe [i]; its
           newest shadow is that state; published only while stripe [i]'s
           region is held *)
    tables : 'v table array;
        (* eager specs: stripe [i]'s in-place table; empty for lazy ones *)
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
    | Nil -> Nil
    | Cons (k', v, rest) ->
        if equal k k' then rest else Cons (k', v, drop_key k rest)

  let rec bucket_find k = function
    | Nil -> None
    | Cons (k', v, rest) -> if equal k k' then Some v else bucket_find k rest

  let rec bucket_fold f b acc =
    match b with
    | Nil -> acc
    | Cons (k, v, rest) -> bucket_fold f rest (f k v acc)

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
          match Coll.Pmap.find pm h with None -> Nil | Some b -> drop_key k b
        in
        match (v, rest) with
        | Some v, b -> Hshadow (Coll.Pmap.add pm h (Cons (k, v, b)))
        | None, Nil -> Hshadow (Coll.Pmap.remove pm h)
        | None, b -> Hshadow (Coll.Pmap.add pm h b))

  let shadow_find sh k =
    match sh with
    | Oshadow pm -> Coll.Pmap.find pm k
    | Hshadow pm -> (
        match Coll.Pmap.find pm (hash k) with
        | None -> None
        | Some b -> bucket_find k b)

  let shadow_fold f sh acc =
    match sh with
    | Oshadow pm -> Coll.Pmap.fold f pm acc
    | Hshadow pm -> Coll.Pmap.fold (fun _ b acc -> bucket_fold f b acc) pm acc

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
      snap = Array.init k (fun _ -> Coll.Vchain.make 0 (shadow_empty ()));
      tables =
        (match S.update with
        | Lazy -> [||]
        | Eager { create; find; apply; _ } ->
            Array.init k (fun _ ->
                let s = create () in
                { tfind = find s; tapply = apply s }));
      csize = 0;
      snap_size = Coll.Vchain.make 0 0;
      cmin = None;
      cmax = None;
      copy_key;
      local_key = TM.new_local_key ();
    }

  let sregion t = L.struct_region t.locks
  let table_of t k = t.tables.(L.stripe_index t.locks k)
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

  (* Snapshot reads resolve against the chains at the pinned stamp; every
     other committed read against the newest shadows, under the stripes'
     regions. *)
  let snap_shadow t si = Coll.Vchain.read_at t.snap.(si) (TM.snapshot_stamp ())
  let latest_shadow t si = Coll.Vchain.latest t.snap.(si)
  let snap_size t = Coll.Vchain.read_at t.snap_size (TM.snapshot_stamp ())

  (* Committed observation of [k]; caller holds [key_region t k]. *)
  let committed_find t k =
    shadow_find (latest_shadow t (L.stripe_index t.locks k)) k

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
     after] makes [k] appear or vanish, and return the endpoints that
     vanished, for [rescan_endpoints]: bit 0 the first, bit 1 the last.  A
     presence change holds the structure region. *)
  let track_endpoints t k ~before ~after =
    if (not ordered) || present before = present after then 0
    else
      let appears = present after in
      let first = moves t.cmin k (-1) ~appears in
      let last = moves t.cmax k 1 ~appears in
      if appears then begin
        if first then t.cmin <- Some k;
        if last then t.cmax <- Some k;
        0
      end
      else Bool.to_int first lor (Bool.to_int last lsl 1)

  (* Recompute the endpoints [vanished] names.  Caller holds every region,
     and has published the stripes' shadows. *)
  let rescan_endpoints t vanished =
    if vanished land 1 <> 0 then
      t.cmin <- Option.map fst (edge t latest_shadow ~last:false);
    if vanished land 2 <> 0 then
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
      TM.critical (sregion t) (fun () -> L.release_structure t.locks l.txn);
    l.undo <- []

  (* Committed observation backing a buffer entry; blind entries read it
     under a nested stripe critical (ascending rid from the structure
     region; reentrant from prepare with the plan held). *)
  let prior_of t k (e : _ bw) =
    match e.prior with
    | Some p -> p
    | None -> TM.critical (key_region t k) (fun () -> committed_find t k)

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
     region: removing an endpoint rescans every stripe for the new one.
     So does a batch with appends, whose keys are not drawn yet. *)
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
    if
      (ordered && effects land 1 <> 0)
      || not (Coll.Fifo_deque.is_empty l.appends)
    then all_regions t
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
     structural ones.  Read-only on committed state and may raise; it runs
     before the TM's commit point so an exception aborts with nothing
     applied.  A weight change or a presence flip puts the structure
     region in the plan, so every critical below re-enters a region the
     plan holds.  It first draws the appends' keys, oldest first, under the
     structure region, which every commit or non-transactional write with
     appends holds from then until its keys are bound: key order is the
     order appends reach committed state.  From here they are writes in
     the buffer whose prior is known: a fresh key has no binding. *)
  let prepare_handler t l () =
    let self = l.txn in
    if not (Coll.Fifo_deque.is_empty l.appends) then begin
      TM.critical (sregion t) (fun () ->
          Coll.Fifo_deque.iter
            (fun (fresh, w) ->
              buf_add l.buffer (fresh ()) { w; prior = Some None })
            l.appends);
      Coll.Fifo_deque.clear l.appends
    end;
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

  (* Apply phase, after the commit point: bind each buffered key once in
     its stripe's next shadow (one combined op per key), fold the weight
     delta into the committed size and the presence flips into the
     endpoints, publish each changed stripe's shadow (and the size) once
     at the commit stamp, release semantic locks.  A read-only commit only
     releases its locks. *)
  (* One key of [flush]; caller holds [key_region t k]. *)
  let flush_key t l ~delta ~rescan k e =
    let si = L.stripe_index t.locks k in
    let shadow =
      match l.shadows.(si) with Some sh -> sh | None -> latest_shadow t si
    in
    let before =
      match e.prior with Some p -> p | None -> shadow_find shadow k
    in
    let after = S.view before e.w in
    delta := !delta + S.weight after - S.weight before;
    rescan := !rescan lor track_endpoints t k ~before ~after;
    l.shadows.(si) <- Some (shadow_set shadow k after)

  let flush t l stamp =
    let delta = ref 0 and rescan = ref 0 in
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
    if track_struct && (!delta <> 0 || !rescan <> 0) then
      TM.critical (sregion t) (fun () ->
          t.csize <- t.csize + !delta;
          rescan_endpoints t !rescan;
          if !delta <> 0 then publish_size t ~min_epoch stamp)

  let apply_handler t l stamp =
    if not (buf_is_empty l.buffer) then flush t l stamp;
    cleanup t l

  (* Bind [k] in committed state to [after before] at once, [before] being
     its committed observation, and return [before]; [table] applies the
     write to an eager spec's table.  Caller holds [k]'s region, and the
     structure region when a structural facet is in use (every region when
     an ordered spec's key may empty, for the endpoint rescan), so the new
     shadow, the committed size and endpoints are atomic for structural
     readers; the publication draws its stamp through [TM.begin_publish]
     under those regions. *)
  let bind_held t k ~table after =
    let si = L.stripe_index t.locks k in
    let shadow = latest_shadow t si in
    let before = shadow_find shadow k in
    if eager then table t.tables.(si);
    let after = after before in
    let d = if track_struct then S.weight after - S.weight before else 0 in
    if d <> 0 then t.csize <- t.csize + d;
    let stamp = TM.begin_publish () in
    (match
       let min_epoch = TM.reclaim_epoch () in
       publish_stripe t si ~min_epoch stamp (shadow_set shadow k after);
       if d <> 0 then publish_size t ~min_epoch stamp
     with
    | () -> TM.end_publish ()
    | exception e ->
        TM.end_publish ();
        raise e);
    rescan_endpoints t (track_endpoints t k ~before ~after);
    before

  (* [bind_held] under its regions, taken structure-then-stripe (ascending
     rid); [vacate]: the binding may leave [k] absent.  On an eager spec it
     spins while a transaction has the key updated in place: its undo
     would overwrite this write. *)
  exception Pending_writer

  let rec bind_now t k ~vacate ~table after =
    let doit () =
      TM.critical (key_region t k) (fun () ->
          if eager && L.key_writer t.locks k <> None then
            raise_notrace Pending_writer;
          bind_held t k ~table after)
    in
    let run () =
      if ordered && vacate then L.critical_all t.locks doit
      else if track_struct then TM.critical (sregion t) doit
      else doit ()
    in
    if not eager then run ()
    else
      match run () with
      | before -> before
      | exception Pending_writer ->
          Domain.cpu_relax ();
          bind_now t k ~vacate ~table after

  (* Abort phase: bind back what reduced-isolation writes replaced, newest
     first.  An eager transaction writes each key's prior back under the
     key's region while it still holds the key's writer lock, so no other
     transaction sees the table between the undo and the release. *)
  let abort_handler t l =
    List.iter
      (fun (k, v) ->
        ignore (bind_now t k ~vacate:false ~table:ignore (fun _ -> Some v)))
      l.undo;
    (match S.update with
    | Lazy -> ()
    | Eager { restore; _ } ->
        buf_iter
          (fun k e ->
            TM.critical (key_region t k) (fun () ->
                (table_of t k).tapply k (restore (prior_of t k e))))
          l.buffer);
    cleanup t l

  (* One local record per top-level transaction; its first use registers
     the single commit handler and single abort handler of §5's
     guidelines.  A spare offered by the TM keeps its handlers and buffer
     capacity; it is reset here rather than by [cleanup], so a handler
     that raised half-way cannot leak state into the reuse.

     Read-only certificate: an empty store buffer and no appends mean
     prepare would detect nothing and apply only releases read locks, so a
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
          Coll.Fifo_deque.clear l.appends;
          l.undo <- [];
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
              appends = Coll.Fifo_deque.create ~initial_capacity:1 ();
              undo = [];
              shadows = Array.make (stripe_count t) None;
              h_read_only =
                (fun () ->
                  buf_is_empty l.buffer && Coll.Fifo_deque.is_empty l.appends);
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
     retry while another transaction has [k] updated in place: the table
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

  (* The calling transaction's read of [k] outside its buffer, after
     [lock_key]: the newest shadow, or an eager spec's table, which also
     holds the transaction's own in-place writes ([lock_key] waited out
     every foreign one).  Caller holds [key_region t k]. *)
  let txn_find t k =
    if eager then (table_of t k).tfind k else committed_find t k

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
                      let p = committed_find t k in
                      e.prior <- Some p;
                      p
                in
                S.view prior e.w
          | None ->
              lock_key t l k;
              txn_find t k)
    end

  (* Committed size, ignoring the calling transaction and taking no lock:
     the pinned one inside a snapshot. *)
  let committed_size t =
    if TM.in_snapshot () then snap_size t
    else TM.critical (sregion t) (fun () -> t.csize)

  let size t =
    if not S.uses_size then invalid_arg (S.name ^ ": size facet not in spec");
    if TM.in_snapshot () || not (TM.in_txn ()) then committed_size t
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

  (* The first ([up]) or last binding the calling transaction's buffer
     leaves present in [lo, hi), strictly above [above] when given. *)
  let buffered_seek t l ~up ~above ~lo ~hi =
    first_visited (fun f ->
        (if up then Coll.Ordmap.iter_range else Coll.Ordmap.iter_range_rev)
          (fun k e ->
            if past above k then
              match S.view (prior_of t k e) e.w with
              | Some v -> f k v
              | None -> ())
          (ordered_buffer l) ~lo ~hi)

  (* The calling transaction's first ([up]) or last binding in [lo, hi),
     strictly above [above] when given ([lo] is then [above]): the first
     committed key the buffer does not override against the first
     buffered key still present, each found by an early-exit walk.
     Caller holds the span's regions. *)
  let merged_seek t l ~up ~above ~lo ~hi =
    let committed =
      committed_seek t latest_shadow ~up ~above ~lo ~hi
        ~skip:(Coll.Ordmap.mem (ordered_buffer l))
    in
    let buffered = buffered_seek t l ~up ~above ~lo ~hi in
    match (committed, buffered) with
    | None, x | x, None -> x
    | Some (kc, _), Some (kb, _) ->
        let c = cmp kb kc in
        if (up && c < 0) || ((not up) && c > 0) then buffered else committed

  (* Caller holds [sregion t]. *)
  let committed_endpoint_held t ~last =
    match if last then t.cmax else t.cmin with
    | None -> None
    | Some k ->
        Option.map
          (fun v -> (k, v))
          (TM.critical (key_region t k) (fun () -> committed_find t k))

  (* The committed first (or last) binding, ignoring the calling
     transaction and taking no lock: the pinned one inside a snapshot. *)
  let committed_endpoint t ~last =
    if not ordered then hashed_spec ();
    if TM.in_snapshot () then edge t snap_shadow ~last
    else TM.critical (sregion t) (fun () -> committed_endpoint_held t ~last)

  (* The first (or last) facet: the least (greatest) present key, with its
     binding.  Inside a transaction it takes the facet's lock; committers
     that move the endpoint conflict it in prepare.  With nothing
     buffered the maintained committed endpoint answers; otherwise the
     merged walk runs under every region. *)
  let endpoint t ~last =
    if TM.in_snapshot () || not (TM.in_txn ()) then committed_endpoint t ~last
    else begin
      if not ordered then hashed_spec ();
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          lock_endpoint_held t l ~last;
          if buf_is_empty l.buffer then committed_endpoint_held t ~last
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
    let overlay k e acc =
      match S.view (prior_of t k e) e.w with Some v -> f k v acc | None -> acc
    in
    let acc =
      shadows_fold latest_shadow
        (fun k v acc ->
          match buf_find l.buffer k with
          | Some e -> overlay k e acc
          | None ->
              on_committed k;
              f k v acc)
        t init
    in
    (* Buffered keys with no committed binding. *)
    buf_fold
      (fun k e acc ->
        if Option.is_none (committed_find t k) then overlay k e acc else acc)
      l.buffer acc

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
      L.critical_all t.locks (fun () -> shadows_fold latest_shadow f t init)
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
      L.critical_all t.locks (fun () -> shadows_fold latest_shadow key t [])
    else begin
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          if with_size then lock_size t l;
          merged_fold t l ~on_committed:ignore key [])
    end

  (* ---------------- writes ---------------- *)

  let no_snapshot_write () =
    if TM.in_snapshot () then
      invalid_arg (S.name ^ ": write inside a snapshot read section")

  let nontxn_write t k w =
    no_snapshot_write ();
    bind_now t k ~vacate:(may_vacate None w)
      ~table:(fun table -> table.tapply k w)
      (fun before -> S.view before w)

  (* ---------------- the work queue's operations (§3.3) ---------------- *)

  (* Append: a blind write of [w] at a key [fresh] draws when the write
     reaches committed state, always under the structure region, so key
     order is that order (and [fresh] needs no synchronisation of its own).
     [fresh] must draw keys that were never bound.
     Inside a transaction the write waits in the local record until
     prepare draws its key; until then only [first_now] sees it. *)
  let append t ~fresh w =
    no_snapshot_write ();
    if TM.in_txn () then Coll.Fifo_deque.enqueue (local_of t).appends (fresh, w)
    else
      TM.critical (sregion t) (fun () -> ignore (nontxn_write t (fresh ()) w))

  (* The first binding's value, taking no lock: the committed first
     binding, else the calling transaction's oldest append, else [None],
     which inside a transaction locks isEmpty — all in one critical
     section, so a commit cannot slip between the reads and the lock.
     [take] also removes what it returns: an append from the local record,
     a committed binding at once (§3.3, §5 "writes to the underlying state
     from within open-nested transactions"), as a non-transactional write
     does, with no semantic lock and no wait.  Inside a transaction that
     removal is recorded: abort binds it back at its key, commit drops it.
     Sound on a lazy spec whose keys no other transaction writes or locks
     (the queue's: each key is appended once and taken once). *)
  let first_now t ~take =
    if not ordered then hashed_spec ();
    if take then no_snapshot_write ();
    if TM.in_snapshot () then Option.map snd (edge t snap_shadow ~last:false)
    else
      let l = if TM.in_txn () then Some (local_of t) else None in
      L.critical_all t.locks (fun () ->
          match t.cmin with
          | Some k ->
              let before =
                if take then bind_held t k ~table:ignore (fun _ -> None)
                else committed_find t k
              in
              (match (l, before) with
              | Some l, Some v when take -> l.undo <- (k, v) :: l.undo
              | _ -> ());
              before
          | None -> (
              match l with
              | None -> None
              | Some l -> (
                  match Coll.Fifo_deque.peek l.appends with
                  | Some (_, w) ->
                      if take then ignore (Coll.Fifo_deque.dequeue l.appends);
                      S.view None w
                  | None ->
                      L.lock_isempty t.locks l.txn;
                      l.struct_locked <- true;
                      None)))

  (* Eager write, under the key's region: wait by retry on a foreign
     pending writer ([lock_key]), register as the key's writer and abort
     its other holders at once, keep the first prior as the undo record
     and update the table in place.  Returns the key's observation before
     the write. *)
  let eager_write t l k w =
    TM.critical (key_region t k) (fun () ->
        lock_key t l k;
        L.lock_key_write t.locks l.txn k;
        L.conflict_key t.locks ~self:l.txn k;
        let table = table_of t k in
        let old = table.tfind k in
        (match buf_find l.buffer k with
        | Some e -> e.w <- S.combine ~earlier:e.w ~later:w
        | None -> buf_add l.buffer k { w; prior = Some old });
        table.tapply k w;
        old)

  (* Transactional write: buffer the op (combining with an earlier write
     to the same key) and return the prior observation.  Blind writes
     read nothing and lock nothing — two blind writers of the same key
     never conflict with each other, only with the key's readers (this
     is what makes counter increments commute) — and touch only the
     transaction's own buffer, so they take no region either.  Eager
     writes are never blind: their prior is the undo record. *)
  let write t k w ~blind =
    if not (TM.in_txn ()) then nontxn_write t k w
    else if eager then eager_write t (local_of t) k w
    else begin
      let l = local_of t in
      if blind then begin
        (match buf_find l.buffer k with
        | Some e -> e.w <- S.combine ~earlier:e.w ~later:w
        | None ->
            buf_add l.buffer k { w; prior = None };
            l.stripes_mask <-
              l.stripes_mask lor (1 lsl L.stripe_index t.locks k));
        None
      end
      else
        TM.critical (key_region t k) (fun () ->
            match buf_find l.buffer k with
            | Some e ->
                let old =
                  if S.absorbing e.w then S.view None e.w
                  else
                    let prior =
                      match e.prior with
                      | Some p -> p
                      | None ->
                          lock_key t l k;
                          let p = committed_find t k in
                          e.prior <- Some p;
                          p
                    in
                    S.view prior e.w
                in
                e.w <- S.combine ~earlier:e.w ~later:w;
                old
            | None ->
                (* Returning the prior observation reads the key
                   (Table 2: value-returning writes take a key lock). *)
                lock_key t l k;
                let p = committed_find t k in
                buf_add l.buffer k { w; prior = Some p };
                p)
    end

  let write_blind t k w = ignore (write t k w ~blind:true)

  (* ---------------- introspection ---------------- *)

  let holds_key_lock t k =
    TM.critical (key_region t k) (fun () ->
        L.key_locked_by t.locks (TM.current ()) k)

  let outstanding_locks t =
    L.critical_all t.locks (fun () -> L.total_lockers t.locks)

  (* Does the calling transaction hold a lock on [facet]?  Not [Keys]:
     [holds_key_lock] probes a key. *)
  let holds_lock t facet =
    L.critical_all t.locks (fun () ->
        L.locked_by t.locks (TM.current ()) facet)

  (* Registrations on [facet]: key entries, coalesced ranges, or the
     owners of a structural facet. *)
  let lockers t facet =
    L.critical_all t.locks (fun () -> L.locker_count t.locks facet)

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
