(* TransactionalSortedMap (paper §3.2): extends the TransactionalMap design
   with the SortedMap abstract state — ordered iteration, range views and
   the first/last endpoints.

   Per Table 5:
   - ordered iteration takes a range lock over the iterated values, plus a
     first lock when iteration starts at the map's minimum and a last lock
     when it runs off the maximum;
   - [first_key]/[last_key] take the first/last locks;
   - writes detect, at commit time, key conflicts, range conflicts on the
     written key, first/last conflicts on endpoint changes and size/isEmpty
     conflicts as in the plain map.

   Per Table 6, the local state adds a sorted store buffer (ordered
   enumeration must merge local changes in key order) and the list of range
   locks held.

   Interval partitioning.  The key space is cut into B ordered intervals by
   [~splitters] (B = 1 by default: one interval, exactly the historical
   single-structure behaviour).  Each interval owns its own committed
   sub-map (shard) and its own commit region, and the semantic lock table
   uses the same partition ([Semlock.create_intervals]), so key locks,
   pending-writer tables *and range locks* are all interval-local: a range
   lock registers in exactly the stripes its span overlaps, and the
   commit-time [conflict_range k] consults only [k]'s interval.  A writer's
   commit plan therefore names only the intervals its buffered keys and
   locked ranges touch — plus the structure region when a presence change
   moves size/isEmpty/first/last — instead of all B+1 regions, so writers
   in disjoint intervals commit in parallel.  The exceptions that still
   plan every region are removals (the new first/last may live in any
   interval, so the endpoint rescan needs them all).

   Boundary linearizability: ordered operations acquire the regions of
   every interval their span overlaps, nested in ascending index (= region
   id) order, so the merged view across interval boundaries is a stable
   snapshot; committed size and the first/last endpoints are maintained
   counters/keys guarded by the structure region, which every
   presence-changing commit enters, so size/isEmpty/first/last reads stay
   linearizable without touching the interval shards.  Region nesting is
   always ascending (structure region first, then intervals by index), and
   commit plans are rid-sorted by the TM, so acquisition stays
   deadlock-free.

   Multi-version snapshots.  Each interval shard carries a bounded chain
   of immutable ordered shadows ([Coll.Vchain] of [Coll.Pmap]), and a
   structure chain versions (size, min, max) as one tuple.  Mutating
   commits publish the shards they changed — and the structure tuple when
   size or an endpoint moved — at their commit stamp while still holding
   the corresponding regions, so each chain's publications are serialized
   and stamp-monotone; non-transactional writes draw a stamp through
   [TM.begin_publish] under [critical_all].  A snapshot reader resolves
   point reads, size/isEmpty, first/last, range folds and cursors —
   including cross-interval spans — against the shadows at its single
   pinned stamp: a prefix-consistent cut of the whole map with no regions,
   no semantic locks and no aborts. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.SORTED_MAP_OPS) = struct
  module L = Semlock.Make (TM)

  type isempty_policy = Dedicated | Via_size

  type write_policy = Optimistic | Pessimistic_aggressive | Pessimistic_timid

  type 'v write = { pending : 'v option; prior : bool option }

  (* The transaction-local record, reused through the TM's spare as in
     [Derive]: [txn] is rebound and the handler closures, built once over
     the record itself, are kept. *)
  type 'v local = {
    mutable txn : TM.txn;
    buffer : (M.key, 'v write) Coll.Ordmap.t; (* sortedStoreBuffer *)
    mutable key_locks : M.key list;
    mutable stripes_mask : int; (* intervals of held key locks + blind keys *)
    mutable ranges_mask : int; (* intervals of held range locks *)
    mutable struct_locked : bool; (* holds size/isEmpty/first/last *)
    h_read_only : unit -> bool;
    h_regions : unit -> TM.region list;
    h_prepare : unit -> unit;
    h_apply : int -> unit;
    h_abort : unit -> unit;
  }

  type 'v t = {
    shards : 'v M.t array; (* shard i = interval i's committed bindings *)
    locks : M.key L.t;
    mutable csize : int; (* committed size; structure region *)
    mutable cmin : M.key option; (* committed endpoints; structure region *)
    mutable cmax : M.key option;
    snap : (M.key, 'v) Coll.Pmap.t Coll.Vchain.t array;
        (* ordered shadow chain per interval shard; published only while
           that interval's region is held *)
    snap_struct : (int * M.key option * M.key option) Coll.Vchain.t;
        (* (size, min, max) chain; published only under the structure
           region *)
    local_key : 'v local TM.local_key;
    isempty_policy : isempty_policy;
    write_policy : write_policy;
    copy_key : M.key -> M.key;
  }

  type 'v view = { parent : 'v t; lo : M.key option; hi : M.key option }

  let wrap ?(splitters = []) ?(isempty_policy = Dedicated)
      ?(write_policy = Optimistic) ?(copy_key = Fun.id) map =
    let locks =
      L.create_intervals ~splitters:(Array.of_list splitters)
        ~compare:M.compare_key ()
    in
    let b = L.stripe_count locks in
    let shards =
      if b = 1 then [| map |]
      else begin
        let shards = Array.init b (fun _ -> M.create ()) in
        M.iter (fun k v -> M.add shards.(L.stripe_index locks k) k v) map;
        shards
      end
    in
    let csize = M.size map in
    let cmin = Option.map fst (M.min_binding map) in
    let cmax = Option.map fst (M.max_binding map) in
    let shadow_of shard =
      let pm = ref (Coll.Pmap.empty ~compare:M.compare_key) in
      M.iter (fun k v -> pm := Coll.Pmap.add !pm k v) shard;
      !pm
    in
    {
      shards;
      locks;
      csize;
      cmin;
      cmax;
      snap =
        Array.map (fun shard -> Coll.Vchain.make 0 (shadow_of shard)) shards;
      snap_struct = Coll.Vchain.make 0 (csize, cmin, cmax);
      local_key = TM.new_local_key ();
      isempty_policy;
      write_policy;
      copy_key;
    }

  let create ?splitters ?isempty_policy ?write_policy ?copy_key () =
    wrap ?splitters ?isempty_policy ?write_policy ?copy_key (M.create ())

  let compare_key = M.compare_key
  let sregion t = L.struct_region t.locks
  let key_region t k = L.region_of_key t.locks k
  let stripe_count t = L.stripe_count t.locks
  let shard_of t k = t.shards.(L.stripe_index t.locks k)

  let all_regions t =
    let acc = ref [] in
    for i = stripe_count t - 1 downto 0 do
      acc := L.stripe_region t.locks i :: !acc
    done;
    sregion t :: !acc

  let all_region_count t = List.length (all_regions t)

  (* Nested criticals over the interval regions [i..j], ascending index
     (= ascending rid). *)
  let rec critical_stripes t i j f =
    if i > j then f ()
    else
      TM.critical (L.stripe_region t.locks i) (fun () ->
          critical_stripes t (i + 1) j f)

  (* Ordered iteration of the committed bindings in [lo, hi): shards hold
     disjoint ascending intervals, so visiting them in index order yields
     global key order.  Caller holds the regions of the overlapped span;
     [f] may raise (early exit). *)
  let iter_committed t f ~lo ~hi =
    let ilo, ihi = L.interval_span t.locks ~lo ~hi in
    for i = ilo to ihi do
      M.iter_range f t.shards.(i) ~lo ~hi
    done

  (* The same walk in descending key order: shards by descending index,
     each in reverse.  With an early exit from [f], finding the last
     committed binding of [lo, hi) costs O(log n). *)
  let iter_committed_rev t f ~lo ~hi =
    let ilo, ihi = L.interval_span t.locks ~lo ~hi in
    for i = ihi downto ilo do
      M.iter_range_rev f t.shards.(i) ~lo ~hi
    done

  (* First binding an ordered walk visits; [iter] gets a visitor that ends
     the walk at once. *)
  let first_visited iter =
    let r = ref None in
    (try
       iter (fun k v ->
           r := Some (k, v);
           raise_notrace Exit)
     with Exit -> ());
    !r

  (* ---------------- snapshot publication ---------------- *)

  (* Caller holds interval [i]'s region: publications to one shadow chain
     are serialized there and every publisher drew its stamp while already
     holding the region, so stamps are monotone per chain. *)
  let publish_shard t i ~min_epoch stamp shadow =
    TM.note_reclaimed (Coll.Vchain.publish t.snap.(i) ~min_epoch stamp shadow)

  (* Caller holds the structure region; snapshots the maintained
     (size, min, max) triple as of now. *)
  let publish_struct t ~min_epoch stamp =
    TM.note_reclaimed
      (Coll.Vchain.publish t.snap_struct ~min_epoch stamp
         (t.csize, t.cmin, t.cmax))

  (* ---------------- handlers ---------------- *)

  (* Sequential (never nested) criticals per touched region: reentrant when
     the commit plan holds them, standalone on the abort/read-only paths. *)
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

  (* Commit region plan.  The apply mutates only the shards of the buffered
     keys' intervals, so the plan names those intervals (all buffered keys
     are in [stripes_mask]: non-blind writes lock the key, blind writes
     record the interval at buffering time) plus the intervals of held
     range locks, plus the structure region when a presence change can move
     size/isEmpty/first/last (or structure locks are held and cleanup will
     re-enter).  Removals still plan every region: deleting the committed
     minimum/maximum forces an endpoint rescan across all shards. *)
  let regions_plan t l () =
    let removal = ref false in
    let struct_needed = ref l.struct_locked in
    Coll.Ordmap.iter
      (fun _ w ->
        (match w.prior with
        | None -> struct_needed := true
        | Some p -> if p <> Option.is_some w.pending then struct_needed := true);
        if w.pending = None && w.prior <> Some false then removal := true)
      l.buffer;
    if !removal then all_regions t
    else begin
      let mask = l.stripes_mask lor l.ranges_mask in
      let acc = ref [] in
      for i = stripe_count t - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then
          acc := L.stripe_region t.locks i :: !acc
      done;
      if !struct_needed then sregion t :: !acc else !acc
    end

  (* Presence delta of the buffer against the committed shards.  Non-blind
     priors are trusted (the key lock was held since the read, so a
     conflicting committer would have aborted us); blind priors probe the
     key's shard under its own interval region. *)
  let presence_changes t l =
    Coll.Ordmap.fold
      (fun k w acc ->
        let prior =
          match w.prior with
          | Some p -> p
          | None ->
              TM.critical (key_region t k) (fun () -> M.mem (shard_of t k) k)
        in
        let after = Option.is_some w.pending in
        if after && not prior then acc + 1
        else if (not after) && prior then acc - 1
        else acc)
      l.buffer 0

  (* Prepare phase (before the TM's commit point, read-only, may raise):
     per-entry key and range conflicts under the key's interval region,
     then size/isEmpty conflicts under the structure region when the
     presence delta is non-zero (which implies the plan holds the
     structure region).  Endpoint (first/last) conflicts are detected in
     the apply phase below, where each write is compared against the
     committed endpoints as they evolve — the same point the seed detected
     them at, so a loser of an endpoint race is aborted by the committer
     rather than deferring it (committer wins, as in the seed semantics).
     All criticals below only re-enter regions the plan holds. *)
  let prepare_handler t l () =
    if not (Coll.Ordmap.is_empty l.buffer) then begin
      let self = l.txn in
      Coll.Ordmap.iter
        (fun k _ ->
          TM.critical (key_region t k) (fun () ->
              L.conflict_key t.locks ~self k;
              L.conflict_range t.locks ~self ~compare:M.compare_key k))
        l.buffer;
      let delta = presence_changes t l in
      if delta <> 0 then
        TM.critical (sregion t) (fun () ->
            L.conflict_size t.locks ~self;
            let was_size = t.csize in
            if (was_size = 0) <> (was_size + delta = 0) then
              L.conflict_isempty t.locks ~self)
    end

  (* Recompute the committed endpoints after a removal may have deleted
     one.  Shards are interval-ordered, so the first non-empty shard holds
     the minimum and the last non-empty shard the maximum.  Caller holds
     every region (removals plan [all_regions]). *)
  let recompute_endpoints t =
    let n = Array.length t.shards in
    let mn = ref None in
    let i = ref 0 in
    while !mn = None && !i < n do
      (match M.min_binding t.shards.(!i) with
      | Some (k, _) -> mn := Some k
      | None -> ());
      incr i
    done;
    let mx = ref None in
    let j = ref (n - 1) in
    while !mx = None && !j >= 0 do
      (match M.max_binding t.shards.(!j) with
      | Some (k, _) -> mx := Some k
      | None -> ());
      decr j
    done;
    t.cmin <- !mn;
    t.cmax <- !mx

  (* Apply phase: mutate each buffered key's shard under its interval
     region; presence-changing entries additionally enter the structure
     region (held by the plan) to fire first/last conflicts against the
     maintained endpoints and update them, and the committed size is
     adjusted at the end.  Removing a committed endpoint triggers a
     cross-shard rescan — legal because removals plan every region.
     Shadows accumulate across the buffer and each touched interval's
     chain is published exactly once at the commit stamp; the structure
     chain is published whenever the (size, min, max) triple moved. *)
  let apply_handler t l stamp =
    if not (Coll.Ordmap.is_empty l.buffer) then begin
      let self = l.txn in
      let delta = ref 0 in
      let removed_endpoint = ref false in
      let endpoints_changed = ref false in
      let shadows = Array.make (stripe_count t) None in
      Coll.Ordmap.iter
        (fun k w ->
          let before =
            TM.critical (key_region t k) (fun () ->
                let si = L.stripe_index t.locks k in
                let shadow =
                  match shadows.(si) with
                  | Some pm -> pm
                  | None -> Coll.Vchain.latest t.snap.(si)
                in
                let shard = shard_of t k in
                let b =
                  match w.prior with Some p -> p | None -> M.mem shard k
                in
                (match w.pending with
                | Some v ->
                    M.add shard k v;
                    shadows.(si) <- Some (Coll.Pmap.add shadow k v)
                | None ->
                    if b then begin
                      M.remove shard k;
                      shadows.(si) <- Some (Coll.Pmap.remove shadow k)
                    end);
                b)
          in
          let after = Option.is_some w.pending in
          if after && not before then begin
            incr delta;
            TM.critical (sregion t) (fun () ->
                (match t.cmin with
                | None ->
                    (* empty -> non-empty: both endpoints change *)
                    L.conflict_first t.locks ~self;
                    L.conflict_last t.locks ~self;
                    t.cmin <- Some k;
                    t.cmax <- Some k;
                    endpoints_changed := true
                | Some mn ->
                    if M.compare_key k mn < 0 then begin
                      L.conflict_first t.locks ~self;
                      t.cmin <- Some k;
                      endpoints_changed := true
                    end;
                    (match t.cmax with
                    | Some mx when M.compare_key k mx > 0 ->
                        L.conflict_last t.locks ~self;
                        t.cmax <- Some k;
                        endpoints_changed := true
                    | _ -> ())))
          end
          else if (not after) && before then begin
            decr delta;
            TM.critical (sregion t) (fun () ->
                (match t.cmin with
                | Some mn when M.compare_key k mn = 0 ->
                    L.conflict_first t.locks ~self;
                    removed_endpoint := true
                | _ -> ());
                match t.cmax with
                | Some mx when M.compare_key k mx = 0 ->
                    L.conflict_last t.locks ~self;
                    removed_endpoint := true
                | _ -> ())
          end)
        l.buffer;
      let min_epoch = TM.reclaim_epoch () in
      for si = 0 to stripe_count t - 1 do
        match shadows.(si) with
        | None -> ()
        | Some shadow ->
            TM.critical (L.stripe_region t.locks si) (fun () ->
                publish_shard t si ~min_epoch stamp shadow)
      done;
      if !delta <> 0 || !removed_endpoint || !endpoints_changed then
        TM.critical (sregion t) (fun () ->
            t.csize <- t.csize + !delta;
            if !removed_endpoint then recompute_endpoints t;
            publish_struct t ~min_epoch stamp)
    end;
    cleanup t l

  (* A spare offered by the TM keeps its handlers and its buffer; it is
     reset here rather than by [cleanup], so a handler that raised half-way
     cannot leak state into the reuse.

     Empty write buffer: prepare has no conflicts to detect and apply only
     releases key/range/endpoint read locks, so getter-only transactions
     (get/first/last/range scans) commit on the TM's read-only fast
     path. *)
  let attach t txn spare =
    let l =
      match spare with
      | Some l ->
          l.txn <- txn;
          Coll.Ordmap.clear l.buffer;
          l.key_locks <- [];
          l.stripes_mask <- 0;
          l.ranges_mask <- 0;
          l.struct_locked <- false;
          l
      | None ->
          let rec l =
            {
              txn;
              buffer = Coll.Ordmap.create ~compare:M.compare_key ();
              key_locks = [];
              stripes_mask = 0;
              ranges_mask = 0;
              struct_locked = false;
              h_read_only = (fun () -> Coll.Ordmap.is_empty l.buffer);
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

  (* Takes the key's stripe critical itself: callers hold either that same
     stripe (point operations — reentrant) or lower-rid regions (ordered
     operations — ascending-rid nesting). *)
  let lock_key t l k =
    TM.critical (key_region t k) (fun () ->
        if not (L.key_locked_by t.locks l.txn k) then begin
          let committed_copy = t.copy_key k in
          L.lock_key t.locks l.txn committed_copy;
          l.key_locks <- committed_copy :: l.key_locks;
          l.stripes_mask <-
            l.stripes_mask lor (1 lsl L.stripe_index t.locks committed_copy)
        end)

  (* Pessimistic early conflict detection (§5.1); the [`Retry] verdict is
     acted on outside the critical regions.  Caller holds the key's
     interval region — range locks are interval-local, so even the
     range-examining aggressive policy needs no structure region. *)
  let pessimistic_status t l k =
    match t.write_policy with
    | Optimistic -> `Ok
    | Pessimistic_aggressive ->
        L.conflict_key t.locks ~self:l.txn k;
        L.conflict_range t.locks ~self:l.txn ~compare:M.compare_key k;
        `Ok
    | Pessimistic_timid ->
        if L.key_has_other_reader t.locks ~self:l.txn k then `Retry else `Ok

  (* ---------------- point operations (as TransactionalMap) ------------- *)

  (* Snapshot reads resolve against the shadow chains at the pinned stamp:
     no region, no semantic lock, no conflict, no abort.  [stripe_index]
     and [interval_span] are pure (binary search over the splitters). *)
  let snap_shadow t i =
    Coll.Vchain.read_at t.snap.(i) (TM.snapshot_stamp ())

  let snap_struct_at t =
    Coll.Vchain.read_at t.snap_struct (TM.snapshot_stamp ())

  (* Point reads hold only the key's interval region: the underlying
     ordered [find] is a pure traversal, and any committing writer of that
     interval holds its region, so the traversal never races a mutation. *)
  let find t k =
    if TM.in_snapshot () then
      Coll.Pmap.find (snap_shadow t (L.stripe_index t.locks k)) k
    else if not (TM.in_txn ()) then
      TM.critical (key_region t k) (fun () -> M.find (shard_of t k) k)
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match Coll.Ordmap.find l.buffer k with
          | Some w -> w.pending
          | None ->
              lock_key t l k;
              M.find (shard_of t k) k)
    end

  let mem t k = Option.is_some (find t k)

  let size t =
    if TM.in_snapshot () then
      let n, _, _ = snap_struct_at t in
      n
    else if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () -> t.csize)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_size t.locks l.txn;
          l.struct_locked <- true;
          t.csize + presence_changes t l)
    end

  let is_empty t =
    if TM.in_snapshot () then
      let n, _, _ = snap_struct_at t in
      n = 0
    else if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () -> t.csize = 0)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          (match t.isempty_policy with
          | Dedicated -> L.lock_isempty t.locks l.txn
          | Via_size -> L.lock_size t.locks l.txn);
          l.struct_locked <- true;
          t.csize + presence_changes t l = 0)
    end

  let buffer_write t l k pending ~blind =
    match Coll.Ordmap.find l.buffer k with
    | Some w ->
        let old = w.pending in
        Coll.Ordmap.add l.buffer k { pending; prior = w.prior };
        old
    | None ->
        if blind then begin
          Coll.Ordmap.add l.buffer k { pending; prior = None };
          (* No key lock, but the commit plan must still cover the key's
             interval. *)
          l.stripes_mask <-
            l.stripes_mask lor (1 lsl L.stripe_index t.locks k);
          None
        end
        else begin
          lock_key t l k;
          let old = M.find (shard_of t k) k in
          Coll.Ordmap.add l.buffer k { pending; prior = Some (Option.is_some old) };
          old
        end

  (* Transactional writes hold only the key's interval region: range locks
     are interval-local (so even the pessimistic policies find them there),
     and the structure region is not needed until commit decides a
     presence change happened. *)
  let rec write_op t k pending ~blind =
    let l = local_of t in
    let verdict =
      TM.critical (key_region t k) (fun () ->
          match pessimistic_status t l k with
          | `Retry -> `Retry
          | `Ok -> `Done (buffer_write t l k pending ~blind))
    in
    match verdict with
    | `Done old -> old
    | `Retry ->
        TM.retry () |> ignore;
        write_op t k pending ~blind

  (* Non-transactional writes mutate the shared committed state including
     size/endpoints: hold everything.  The shadow publication draws its
     stamp through [TM.begin_publish] with every region held, so it
     serializes with committing transactions on each chain it touches. *)
  let nontxn_write t k pending =
    if TM.in_snapshot () then
      invalid_arg
        "Transactional_sorted_map: write inside a snapshot read section";
    L.critical_all t.locks (fun () ->
        let shard = shard_of t k in
        let old = M.find shard k in
        (match pending with
        | Some v -> M.add shard k v
        | None -> M.remove shard k);
        (match (old, pending) with
        | None, Some _ ->
            t.csize <- t.csize + 1;
            (match t.cmin with
            | None -> t.cmin <- Some k
            | Some mn -> if M.compare_key k mn < 0 then t.cmin <- Some k);
            (match t.cmax with
            | None -> t.cmax <- Some k
            | Some mx -> if M.compare_key k mx > 0 then t.cmax <- Some k)
        | Some _, None ->
            t.csize <- t.csize - 1;
            let was_endpoint ep =
              match ep with Some e -> M.compare_key k e = 0 | None -> false
            in
            if was_endpoint t.cmin || was_endpoint t.cmax then
              recompute_endpoints t
        | _ -> ());
        let stamp = TM.begin_publish () in
        Fun.protect ~finally:TM.end_publish (fun () ->
            let min_epoch = TM.reclaim_epoch () in
            let si = L.stripe_index t.locks k in
            let shadow = Coll.Vchain.latest t.snap.(si) in
            let shadow =
              match pending with
              | Some v -> Coll.Pmap.add shadow k v
              | None -> Coll.Pmap.remove shadow k
            in
            publish_shard t si ~min_epoch stamp shadow;
            if Option.is_some old <> Option.is_some pending then
              publish_struct t ~min_epoch stamp);
        old)

  let put t k v =
    if not (TM.in_txn ()) then nontxn_write t k (Some v)
    else write_op t k (Some v) ~blind:false

  let remove t k =
    if not (TM.in_txn ()) then nontxn_write t k None
    else write_op t k None ~blind:false

  let put_blind t k v =
    if not (TM.in_txn ()) then ignore (nontxn_write t k (Some v))
    else ignore (write_op t k (Some v) ~blind:true)

  let remove_blind t k =
    if not (TM.in_txn ()) then ignore (nontxn_write t k None)
    else ignore (write_op t k None ~blind:true)

  (* ---------------- ordered views and iteration ---------------- *)

  (* Merge the committed shards and the sorted store buffer over [lo, hi),
     in key order; buffered entries override committed ones.  Caller holds
     the span's interval regions. *)
  let merged_range t l ~lo ~hi =
    let under = ref [] in
    iter_committed t
      (fun k v ->
        match Coll.Ordmap.find l.buffer k with
        | Some _ -> () (* overridden by the buffer *)
        | None -> under := (k, v) :: !under)
      ~lo ~hi;
    let buf = ref [] in
    Coll.Ordmap.iter_range
      (fun k w ->
        match w.pending with Some v -> buf := (k, v) :: !buf | None -> ())
      l.buffer ~lo ~hi;
    List.merge
      (fun (a, _) (b, _) -> M.compare_key a b)
      (List.rev !under) (List.rev !buf)

  (* Registers the range in the lock table (caller holds the span's
     interval regions) and records the overlapped intervals so the commit
     plan covers them and cleanup releases them. *)
  let take_range_lock t l range =
    let ilo, ihi =
      L.interval_span t.locks ~lo:range.L.lo ~hi:range.L.hi
    in
    L.lock_range t.locks l.txn ~compare:M.compare_key range;
    for i = ilo to ihi do
      l.ranges_mask <- l.ranges_mask lor (1 lsl i)
    done

  (* Snapshot ordered iteration over [lo, hi): every overlapped shard's
     shadow is read at the same pinned stamp, so the cross-interval
     concatenation (shards hold disjoint ascending intervals) is one
     prefix-consistent ordered cut — no regions, no range/first/last
     locks, no aborts. *)
  let snap_iter_range t f ~lo ~hi =
    let ts = TM.snapshot_stamp () in
    let ilo, ihi = L.interval_span t.locks ~lo ~hi in
    for i = ilo to ihi do
      Coll.Pmap.iter_range f (Coll.Vchain.read_at t.snap.(i) ts) ~lo ~hi
    done

  let snap_iter_range_rev t f ~lo ~hi =
    let ts = TM.snapshot_stamp () in
    let ilo, ihi = L.interval_span t.locks ~lo ~hi in
    for i = ihi downto ilo do
      Coll.Pmap.iter_range_rev f (Coll.Vchain.read_at t.snap.(i) ts) ~lo ~hi
    done

  (* Ordered fold over [lo, hi) with Table 5 locking: range lock over the
     iterated span, first lock when the span starts at the map's minimum,
     last lock when it runs past the maximum.  Runs under the span's
     interval regions, nested ascending (committing writers of those
     intervals hold them, so the merged view is stable); the structure
     region is entered first — it has the lowest rid — only when an
     unbounded end needs a first/last lock.  The user callback runs after
     the regions are released: the registered locks, not the regions, are
     what guarantee serializability of the observed snapshot. *)
  let fold_range f t init ~lo ~hi =
    if TM.in_snapshot () then begin
      let acc = ref init in
      snap_iter_range t (fun k v -> acc := f k v !acc) ~lo ~hi;
      !acc
    end
    else
    let ilo, ihi = L.interval_span t.locks ~lo ~hi in
    if not (TM.in_txn ()) then begin
      let items =
        critical_stripes t ilo ihi (fun () ->
            let acc = ref [] in
            iter_committed t (fun k v -> acc := (k, v) :: !acc) ~lo ~hi;
            List.rev !acc)
      in
      List.fold_left (fun acc (k, v) -> f k v acc) init items
    end
    else begin
      let l = local_of t in
      let run () =
        critical_stripes t ilo ihi (fun () ->
            take_range_lock t l { lo; hi };
            merged_range t l ~lo ~hi)
      in
      let items =
        if lo = None || hi = None then
          TM.critical (sregion t) (fun () ->
              if lo = None then L.lock_first t.locks l.txn;
              if hi = None then L.lock_last t.locks l.txn;
              l.struct_locked <- true;
              run ())
        else run ()
      in
      List.fold_left (fun acc (k, v) -> f k v acc) init items
    end

  let fold f t init = fold_range f t init ~lo:None ~hi:None
  let iter f t = fold (fun k v () -> f k v) t ()
  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  (* Visitor filters for the merged walks below: committed bindings the
     buffer does not override, buffered bindings that are present, keys
     strictly above [above] (any key when [None]). *)
  let not_overridden l f k v = if not (Coll.Ordmap.mem l.buffer k) then f k v

  let buffered_some f k w =
    match w.pending with Some v -> f k v | None -> ()

  let strictly_above above f k v =
    match above with Some a when M.compare_key k a <= 0 -> () | _ -> f k v

  (* Of two candidates with distinct keys, [b] when [wins (compare kb ka)]. *)
  let pick wins a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some (ka, _), Some (kb, _) -> if wins (M.compare_key kb ka) then b else a

  (* First merged binding strictly above [above] (or from [lo] when [above]
     is [None]), below [hi]: the first committed key the buffer does not
     override against the first buffered [Some], each found by an
     early-exit walk.  Caller holds the span's interval regions. *)
  let merged_first_above t l ~above ~lo ~hi =
    let lo = match above with Some _ -> above | None -> lo in
    let under =
      first_visited (fun f ->
          iter_committed t (strictly_above above (not_overridden l f)) ~lo ~hi)
    in
    let buf =
      first_visited (fun f ->
          Coll.Ordmap.iter_range
            (buffered_some (strictly_above above f))
            l.buffer ~lo ~hi)
    in
    pick (fun c -> c < 0) under buf

  let merged_first t l ~lo ~hi = merged_first_above t l ~above:None ~lo ~hi

  (* The mirror image: the larger of the last unoverridden committed key and
     the last buffered [Some], both found walking in reverse. *)
  let merged_last t l ~lo ~hi =
    let under =
      first_visited (fun f ->
          iter_committed_rev t (not_overridden l f) ~lo ~hi)
    in
    let buf =
      first_visited (fun f ->
          Coll.Ordmap.iter_range_rev (buffered_some f) l.buffer ~lo ~hi)
    in
    pick (fun c -> c > 0) under buf

  (* firstKey/lastKey read the maintained committed endpoints under the
     structure region; only a transaction with local buffered writes needs
     the full merged view (and then holds every interval region, nested
     ascending from the structure region). *)
  (* Endpoint of a snapshot: the (size, min, max) tuple and the endpoint's
     shard shadow were published at the same commit stamp, so the lookup
     always lands. *)
  let snap_binding_at t k =
    Option.map
      (fun v -> (k, v))
      (Coll.Pmap.find (snap_shadow t (L.stripe_index t.locks k)) k)

  let first_binding t =
    let committed_at k =
      TM.critical (key_region t k) (fun () ->
          match M.find (shard_of t k) k with
          | Some v -> Some (k, v)
          | None -> None)
    in
    if TM.in_snapshot () then
      let _, mn, _ = snap_struct_at t in
      Option.bind mn (snap_binding_at t)
    else if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () ->
          match t.cmin with None -> None | Some k -> committed_at k)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_first t.locks l.txn;
          l.struct_locked <- true;
          if Coll.Ordmap.is_empty l.buffer then
            match t.cmin with None -> None | Some k -> committed_at k
          else
            critical_stripes t 0
              (stripe_count t - 1)
              (fun () -> merged_first t l ~lo:None ~hi:None))
    end

  let last_binding t =
    let committed_at k =
      TM.critical (key_region t k) (fun () ->
          match M.find (shard_of t k) k with
          | Some v -> Some (k, v)
          | None -> None)
    in
    if TM.in_snapshot () then
      let _, _, mx = snap_struct_at t in
      Option.bind mx (snap_binding_at t)
    else if not (TM.in_txn ()) then
      TM.critical (sregion t) (fun () ->
          match t.cmax with None -> None | Some k -> committed_at k)
    else begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          L.lock_last t.locks l.txn;
          l.struct_locked <- true;
          if Coll.Ordmap.is_empty l.buffer then
            match t.cmax with None -> None | Some k -> committed_at k
          else
            critical_stripes t 0
              (stripe_count t - 1)
              (fun () -> merged_last t l ~lo:None ~hi:None))
    end

  let first_key t = Option.map fst (first_binding t)
  let last_key t = Option.map fst (last_binding t)

  (* ---------------- SortedMap views (subMap/headMap/tailMap) ----------- *)

  let in_bounds v k =
    (match v.lo with None -> true | Some b -> M.compare_key k b >= 0)
    && match v.hi with None -> true | Some b -> M.compare_key k b < 0

  let sub_map t ~lo ~hi = { parent = t; lo = Some lo; hi = Some hi }
  let head_map t ~hi = { parent = t; lo = None; hi = Some hi }
  let tail_map t ~lo = { parent = t; lo = Some lo; hi = None }

  module View = struct
    let find v k = if in_bounds v k then find v.parent k else None
    let mem v k = Option.is_some (find v k)

    let put v k value =
      if not (in_bounds v k) then invalid_arg "TransactionalSortedMap.View.put";
      put v.parent k value

    let remove v k =
      if not (in_bounds v k) then
        invalid_arg "TransactionalSortedMap.View.remove";
      remove v.parent k

    let fold f v init = fold_range f v.parent init ~lo:v.lo ~hi:v.hi
    let iter f v = fold (fun k value () -> f k value) v ()
    let to_list v = List.rev (fold (fun k value acc -> (k, value) :: acc) v [])
    let size v = fold (fun _ _ n -> n + 1) v 0

    (* firstKey of a view reveals the absence of any key in [lo, found):
       a range lock over that prefix plus a key lock on the found key.
       Every mode stops at the first binding it meets: O(log n). *)
    let first_binding v =
      let t = v.parent in
      if TM.in_snapshot () then
        first_visited (fun f -> snap_iter_range t f ~lo:v.lo ~hi:v.hi)
      else
      let ilo, ihi = L.interval_span t.locks ~lo:v.lo ~hi:v.hi in
      if not (TM.in_txn ()) then
        critical_stripes t ilo ihi (fun () ->
            first_visited (fun f -> iter_committed t f ~lo:v.lo ~hi:v.hi))
      else begin
        let l = local_of t in
        critical_stripes t ilo ihi (fun () ->
            match merged_first t l ~lo:v.lo ~hi:v.hi with
            | None ->
                take_range_lock t l { lo = v.lo; hi = v.hi };
                None
            | Some (k, value) ->
                take_range_lock t l { lo = v.lo; hi = Some k };
                lock_key t l k;
                Some (k, value))
      end

    (* The mirror image, walking in reverse: O(log n) in every mode. *)
    let last_binding v =
      let t = v.parent in
      if TM.in_snapshot () then
        first_visited (fun f -> snap_iter_range_rev t f ~lo:v.lo ~hi:v.hi)
      else
      let ilo, ihi = L.interval_span t.locks ~lo:v.lo ~hi:v.hi in
      if not (TM.in_txn ()) then
        critical_stripes t ilo ihi (fun () ->
            first_visited (fun f -> iter_committed_rev t f ~lo:v.lo ~hi:v.hi))
      else begin
        let l = local_of t in
        critical_stripes t ilo ihi (fun () ->
            match merged_last t l ~lo:v.lo ~hi:v.hi with
            | None ->
                take_range_lock t l { lo = v.lo; hi = v.hi };
                None
            | Some (k, value) ->
                (* Conservative: [k, hi) covers the suffix whose emptiness
                   above [k] the answer reveals, plus [k] itself. *)
                take_range_lock t l { lo = Some k; hi = v.hi };
                lock_key t l k;
                Some (k, value))
      end

    let first_key v = Option.map fst (first_binding v)
    let last_key v = Option.map fst (last_binding v)

    (* An empty view holds a range lock over all of it; a non-empty one
       holds [first_binding]'s locks, which pin one present key. *)
    let is_empty v = Option.is_none (first_binding v)
  end

  (* ---------------- ordered cursor (Table 5 iterator) ---------------- *)

  (* An incremental ordered iterator with the exact locking of Table 5:
     each [next] extends the transaction's range lock over the span it has
     observed ([previous key, returned key)), takes a key lock on the
     returned key, and — when the iteration starts at the map's minimum —
     a first lock; exhaustion locks the remaining span up to [hi], plus the
     last lock when [hi] is unbounded.  Unlike [fold_range], the span ahead
     of the cursor stays unlocked, so inserts ahead of the cursor commute
     (and are observed live) while inserts behind it abort the iterator.
     Range insertions coalesce in the lock table, so the incremental span
     extension holds a bounded number of range entries.  Each [next] holds
     the interval regions of the remaining span (advancing the cursor
     shrinks that span), plus the structure region when the upper bound is
     unbounded (exhaustion must take the last lock there). *)
  type 'v cursor = {
    cparent : 'v t;
    clo : M.key option;
    chi : M.key option;
    mutable cpos : M.key option; (* last returned key *)
    mutable cexhausted : bool;
  }

  let cursor ?lo ?hi t =
    if TM.in_txn () then begin
      let l = local_of t in
      TM.critical (sregion t) (fun () ->
          if lo = None then begin
            L.lock_first t.locks l.txn;
            l.struct_locked <- true
          end)
    end;
    { cparent = t; clo = lo; chi = hi; cpos = None; cexhausted = false }

  let cursor_next c =
    let t = c.cparent in
    let span_lo = match c.cpos with Some _ as p -> p | None -> c.clo in
    if TM.in_snapshot () then begin
      (* Each step re-resolves against the section's pinned stamp, so the
         whole walk — across interval boundaries included — observes one
         consistent cut without locking anything. *)
      let r =
        first_visited (fun f ->
            snap_iter_range t (strictly_above c.cpos f) ~lo:span_lo ~hi:c.chi)
      in
      (match r with
      | Some (k, _) -> c.cpos <- Some k
      | None -> c.cexhausted <- true);
      r
    end
    else
    let ilo, ihi = L.interval_span t.locks ~lo:span_lo ~hi:c.chi in
    if not (TM.in_txn ()) then
      critical_stripes t ilo ihi (fun () ->
          (* Outside a transaction: plain ordered walk of the committed
             shards. *)
          let r =
            first_visited (fun f ->
                iter_committed t (strictly_above c.cpos f) ~lo:span_lo
                  ~hi:c.chi)
          in
          (match r with Some (k, _) -> c.cpos <- Some k | None -> ());
          r)
    else begin
      let l = local_of t in
      let run () =
        critical_stripes t ilo ihi (fun () ->
            match merged_first_above t l ~above:c.cpos ~lo:c.clo ~hi:c.chi with
            | Some (k, v) ->
                take_range_lock t l { lo = span_lo; hi = Some k };
                lock_key t l k;
                c.cpos <- Some k;
                Some (k, v)
            | None ->
                if not c.cexhausted then begin
                  c.cexhausted <- true;
                  take_range_lock t l { lo = span_lo; hi = c.chi };
                  if c.chi = None then begin
                    L.lock_last t.locks l.txn;
                    l.struct_locked <- true
                  end
                end;
                None)
      in
      if c.chi = None then TM.critical (sregion t) run else run ()
    end

  (* ---------------- introspection ---------------- *)

  (* Longest shadow chain (intervals and structure) — reclamation probe
     for leak tests. *)
  let snapshot_history_length t =
    Array.fold_left
      (fun acc chain -> max acc (Coll.Vchain.length chain))
      (Coll.Vchain.length t.snap_struct)
      t.snap

  let holds_key_lock t k =
    TM.critical (key_region t k) (fun () ->
        L.key_locked_by t.locks (TM.current ()) k)

  let holds_size_lock t =
    TM.critical (sregion t) (fun () ->
        L.size_locked_by t.locks (TM.current ()))

  let holds_range_lock t =
    L.critical_all t.locks (fun () ->
        L.range_locked_by t.locks (TM.current ()))

  let holds_first_lock t =
    TM.critical (sregion t) (fun () ->
        L.first_locked_by t.locks (TM.current ()))

  let holds_last_lock t =
    TM.critical (sregion t) (fun () ->
        L.last_locked_by t.locks (TM.current ()))

  let outstanding_locks t =
    L.critical_all t.locks (fun () -> L.total_lockers t.locks)

  let outstanding_range_locks t =
    L.critical_all t.locks (fun () -> L.range_locker_count t.locks)

  (* Number of regions the calling transaction's commit would plan right
     now (meaningful only inside a transaction).  Lets tests assert that a
     single-interval writer plans strictly fewer regions than
     [all_region_count]. *)
  let commit_plan_size t = List.length (regions_plan t (local_of t) ())

  (* Live rendering of Table 6's state inventory (local state is the
     calling transaction's). *)
  let dump_state ppf t =
    let local = if TM.in_txn () then Some (local_of t) else None in
    L.critical_all t.locks (fun () ->
        Format.fprintf ppf "Committed state:@.";
        Format.fprintf ppf "  sortedMap           %d bindings (%d intervals)@."
          t.csize (stripe_count t);
        Format.fprintf ppf "  comparator          (read-only)@.";
        Format.fprintf ppf "Shared transactional state (open-nested):@.";
        Format.fprintf ppf "  key2lockers         %d entries@."
          (L.key_entry_count t.locks);
        Format.fprintf ppf "  sizeLockers         %d@."
          (L.size_locker_count t.locks);
        Format.fprintf ppf "  firstLockers        %d@."
          (L.first_locker_count t.locks);
        Format.fprintf ppf "  lastLockers         %d@."
          (L.last_locker_count t.locks);
        Format.fprintf ppf "  rangeLockers        %d@."
          (L.range_locker_count t.locks);
        Format.fprintf ppf "Local transactional state (calling txn):@.";
        match local with
        | None -> Format.fprintf ppf "  none (outside a transaction)@."
        | Some l ->
            Format.fprintf ppf
              "  txn %-6d sortedStoreBuffer=%d entries, keyLocks=%d@."
              (TM.txn_id l.txn)
              (Coll.Ordmap.size l.buffer)
              (List.length l.key_locks))
end
