(* TransactionalMap (paper §3.1): wraps an existing Map implementation and
   replaces memory-level conflicts (size field, bucket collisions) with
   semantic conflict detection on the Map abstract data type.

   Structure mirrors Table 3:
   - committed state: the wrapped map, sharded into one sub-map per lock
     stripe and read/written only inside [critical] regions (the
     open-nesting discipline of §5);
   - shared transactional state: the striped semantic lock tables
     ([Semlock]);
   - local transactional state: a store buffer of deferred writes plus the
     list of key locks held, one record per active top-level transaction.

   Locking follows Table 2: read operations take key/size/isEmpty locks when
   executed; writes are buffered and detect conflicts at commit time by
   aborting other transactions that hold locks on the abstract state being
   written (optimistic semantic concurrency control, §5.1).

   Striping.  Key [k] lives — lock entry and committed binding both — in
   stripe [hash k mod K], behind that stripe's critical region; the
   size/isEmpty locks and the committed size counter live behind the
   dedicated structure region.  A commit names the regions it needs through
   its region plan ([regions_plan]): the stripes of every buffered or
   locked key, plus the structure region when the transaction holds
   structure locks or its writes may change the map's size.  Two
   transactions committing disjoint-key writes therefore pre-acquire
   disjoint stripe sets and commit in parallel; a size reader serialises
   against exactly the committers that change size.  All nested region
   acquisition is in ascending rid order — structure first (lowest rid),
   then stripes by index — so the combination of op-time nesting and
   rid-sorted commit plans is deadlock-free.

   The buffered [prior] presence bit stays trustworthy until commit: a
   non-blind writer holds the key's semantic lock from operation time, so
   any other transaction committing a presence change on that key either
   aborts this one through [conflict_key] (it is still Active) or finds it
   already past its commit point — by commit time, [prior] is the committed
   presence.

   Multi-version snapshots.  Alongside each mutable shard the map keeps a
   bounded chain of immutable shadow copies ([Coll.Vchain] of persistent
   hash-bucketed [Coll.Pmap]s), one chain per stripe plus one structure
   chain carrying the committed size.  Every mutating commit publishes the
   stripes it changed at its commit stamp while still holding those
   stripes' regions — publications to one chain are therefore serialized
   and stamp-monotone — and non-transactional writes draw a stamp through
   [TM.begin_publish] under the same regions.  A snapshot reader
   ([TM.in_snapshot]) resolves every operation against the newest shadow
   at or below its pinned stamp, touching no region, taking no semantic
   lock, and never aborting. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.MAP_OPS) = struct
  module L = Semlock.Make (TM)

  type isempty_policy =
    | Dedicated  (** isEmpty is a primitive operation with its own lock,
                     conflicting only when emptiness changes (§5.1). *)
    | Via_size  (** isEmpty derives from size and takes the size lock — the
                    concurrency-limiting variant, kept for the ablation. *)

  (** When are write-write/write-read semantic conflicts detected (§5.1
      "Alternatives to optimistic concurrency control")? *)
  type write_policy =
    | Optimistic  (** at commit time: the committer aborts lock holders. *)
    | Pessimistic_aggressive
        (** at operation time: the writer immediately aborts every other
            holder of the key's lock. *)
    | Pessimistic_timid
        (** at operation time: the writer aborts itself (transparent retry
            with backoff) while any other transaction holds the key. *)

  type 'v write = {
    pending : 'v option; (* None = removal *)
    prior : bool option; (* presence read at operation time; None = blind *)
  }

  (* The transaction-local record.  [local_of] reuses the TM's spare
     record when it offers one: [txn] is rebound and the handler closures,
     built once over the record itself, are kept, so steady-state
     transactions allocate neither a fresh store buffer nor fresh
     handlers.  [stripes_mask] accumulates the stripe indices of every
     locked or buffered key; [struct_locked] is set by the structure reads
     (size/isEmpty/enumeration) — together they are the transaction's
     commit region plan. *)
  type 'v local = {
    mutable txn : TM.txn;
    buffer : (M.key, 'v write) Coll.Chain_hashmap.t;
    mutable key_locks : M.key list;
    mutable stripes_mask : int;
    mutable struct_locked : bool;
    h_read_only : unit -> bool;
    h_regions : unit -> TM.region list;
    h_prepare : unit -> unit;
    h_apply : int -> unit;
    h_abort : unit -> unit;
  }

  (* Immutable shadow of one shard: persistent map from key hash to the
     bucket of bindings sharing that hash (same hash/equality discipline as
     the store buffer: [Hashtbl.hash] and structural equality). *)
  type 'v shadow = (int, (M.key * 'v) list) Coll.Pmap.t

  type 'v t = {
    locks : M.key L.t;
    shards : 'v M.t array; (* shard [i] holds the keys of stripe [i] *)
    mutable csize : int;
        (* committed bindings across all shards; read/written only under
           the structure region *)
    snap : 'v shadow Coll.Vchain.t array;
        (* shadow chain [i] versions shard [i]; published only while
           stripe [i]'s region is held *)
    snap_struct : int Coll.Vchain.t;
        (* committed-size chain; published only under the structure region *)
    local_key : 'v local TM.local_key;
    isempty_policy : isempty_policy;
    write_policy : write_policy;
    copy_key : M.key -> M.key;
        (* §5.1 "Leaking uncommitted data": keys recorded in the shared lock
           table may be objects whose construction has not committed, and
           they remain visible to other transactions through equals/hash.
           Supplying a copier stores an independent committed copy instead.
           The default is identity — correct for immutable keys. *)
  }

  let default_stripes = 16

  (* ---------------- snapshot shadows ---------------- *)

  let snap_hash k = Hashtbl.hash k land max_int
  let shadow_empty () : 'v shadow = Coll.Pmap.empty ~compare:Int.compare

  let shadow_add (pm : 'v shadow) k v =
    let h = snap_hash k in
    let bucket =
      match Coll.Pmap.find pm h with
      | None -> []
      | Some b -> List.filter (fun (k', _) -> k' <> k) b
    in
    Coll.Pmap.add pm h ((k, v) :: bucket)

  let shadow_remove (pm : 'v shadow) k =
    let h = snap_hash k in
    match Coll.Pmap.find pm h with
    | None -> pm
    | Some b -> (
        match List.filter (fun (k', _) -> k' <> k) b with
        | [] -> Coll.Pmap.remove pm h
        | b' -> Coll.Pmap.add pm h b')

  let shadow_find (pm : 'v shadow) k =
    match Coll.Pmap.find pm (snap_hash k) with
    | None -> None
    | Some b ->
        List.find_map (fun (k', v) -> if k' = k then Some v else None) b

  let shadow_of_shard shard =
    let pm = ref (shadow_empty ()) in
    M.iter (fun k v -> pm := shadow_add !pm k v) shard;
    !pm

  let wrap ?(stripes = default_stripes) ?hash ?(isempty_policy = Dedicated)
      ?(write_policy = Optimistic) ?(copy_key = Fun.id) map =
    let locks = L.create ~stripes ?hash () in
    let k = L.stripe_count locks in
    let shards, csize =
      if k = 1 then ([| map |], M.size map)
      else begin
        let shards = Array.init k (fun _ -> M.create ()) in
        let n = ref 0 in
        M.iter
          (fun key v ->
            M.add shards.(L.stripe_index locks key) key v;
            incr n)
          map;
        (shards, !n)
      end
    in
    {
      locks;
      shards;
      csize;
      snap =
        Array.map (fun shard -> Coll.Vchain.make 0 (shadow_of_shard shard))
          shards;
      snap_struct = Coll.Vchain.make 0 csize;
      local_key = TM.new_local_key ();
      isempty_policy;
      write_policy;
      copy_key;
    }

  let create ?stripes ?hash ?isempty_policy ?write_policy ?copy_key () =
    wrap ?stripes ?hash ?isempty_policy ?write_policy ?copy_key (M.create ())

  let sregion t = L.struct_region t.locks
  let shard_of t k = t.shards.(L.stripe_index t.locks k)
  let key_region t k = L.region_of_key t.locks k
  let stripe_count t = L.stripe_count t.locks

  (* ---------------- commit/abort handlers ---------------- *)

  (* Runs exactly once per transaction (the apply and abort handlers are
     mutually exclusive).  The releases run as sequential (never nested)
     criticals, one per touched region: with the commit's region plan held
     they are reentrant; on the abort and read-only paths nothing is held,
     so each stands alone and no ordering constraint arises. *)
  let cleanup t l =
    List.iter
      (fun k ->
        TM.critical (key_region t k) (fun () -> L.release_key t.locks l.txn k))
      l.key_locks;
    if l.struct_locked then
      TM.critical (sregion t) (fun () -> L.release_structure t.locks l.txn)

  (* Net size change of the store buffer.  Blind writes read their prior
     presence from the shard under a nested stripe critical (ascending rid
     when called under the structure region; reentrant when called from
     prepare with the plan held). *)
  let presence_changes t l =
    Coll.Chain_hashmap.fold
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

  (* Commit region plan, evaluated once at commit time: the stripes of
     every locked/buffered key, plus the structure region when the
     transaction read structure state or its writes may change the size
     (a blind write's effect is unknown until applied, so it is planned
     conservatively).  [delta <> 0] at prepare/apply therefore implies the
     structure region is in the plan. *)
  let regions_plan t l () =
    let struct_needed =
      l.struct_locked
      || Coll.Chain_hashmap.fold
           (fun _ w acc ->
             acc
             ||
             match w.prior with
             | None -> true
             | Some p -> p <> Option.is_some w.pending)
           l.buffer false
    in
    let acc = ref [] in
    for i = stripe_count t - 1 downto 0 do
      if l.stripes_mask land (1 lsl i) <> 0 then
        acc := L.stripe_region t.locks i :: !acc
    done;
    if struct_needed then sregion t :: !acc else !acc

  (* Prepare phase: conflict detection per Table 2 — aborting holders of
     key locks on written keys, size lockers when the size changes, and
     isEmpty lockers when emptiness flips.  Read-only on the map and may
     raise (remote-abort deferral, injected fault): it runs before the
     TM's commit point so an exception here aborts with nothing applied.
     Every critical below re-enters a region the plan already holds. *)
  let prepare_handler t l () =
    let self = l.txn in
    Coll.Chain_hashmap.iter
      (fun k _ ->
        TM.critical (key_region t k) (fun () ->
            L.conflict_key t.locks ~self k))
      l.buffer;
    let delta = presence_changes t l in
    if delta <> 0 then
      TM.critical (sregion t) (fun () ->
          L.conflict_size t.locks ~self;
          let was_size = t.csize in
          if (was_size = 0) <> (was_size + delta = 0) then
            L.conflict_isempty t.locks ~self)

  (* Publish one stripe's updated shadow at [stamp].  Caller holds the
     stripe's region (commit plan or an explicit critical), which
     serializes publications to the chain and makes stamps monotone:
     every publisher draws its stamp while already holding the region. *)
  let publish_stripe t si ~min_epoch stamp shadow =
    TM.note_reclaimed (Coll.Vchain.publish t.snap.(si) ~min_epoch stamp shadow)

  let publish_struct t ~min_epoch stamp =
    TM.note_reclaimed
      (Coll.Vchain.publish t.snap_struct ~min_epoch stamp t.csize)

  (* Apply phase, after the commit point: flush the store buffer (redo
     log) to the shards, fold the net presence change into the committed
     size, publish the changed stripes' shadows at the commit stamp, and
     release semantic locks.  Shadows accumulate across the buffer so each
     touched chain is published exactly once per commit. *)
  let apply_handler t l stamp =
    let delta = ref 0 in
    let n = stripe_count t in
    let shadows = Array.make n None in
    Coll.Chain_hashmap.iter
      (fun k w ->
        TM.critical (key_region t k) (fun () ->
            let si = L.stripe_index t.locks k in
            let shadow =
              match shadows.(si) with
              | Some pm -> pm
              | None -> Coll.Vchain.latest t.snap.(si)
            in
            let shard = shard_of t k in
            let before =
              match w.prior with Some p -> p | None -> M.mem shard k
            in
            (match w.pending with
            | Some v ->
                M.add shard k v;
                shadows.(si) <- Some (shadow_add shadow k v)
            | None ->
                M.remove shard k;
                shadows.(si) <- Some (shadow_remove shadow k));
            let after = Option.is_some w.pending in
            if after && not before then incr delta
            else if before && not after then decr delta))
      l.buffer;
    let min_epoch = TM.reclaim_epoch () in
    for si = 0 to n - 1 do
      match shadows.(si) with
      | None -> ()
      | Some shadow ->
          TM.critical (L.stripe_region t.locks si) (fun () ->
              publish_stripe t si ~min_epoch stamp shadow)
    done;
    if !delta <> 0 then
      TM.critical (sregion t) (fun () ->
          t.csize <- t.csize + !delta;
          publish_struct t ~min_epoch stamp);
    cleanup t l

  (* One local record per top-level transaction; its first use registers
     the single commit handler and single abort handler of §5's
     guidelines.  A spare offered by the TM keeps its handlers and buffer
     capacity; it is reset here rather than by [cleanup], so a handler
     that raised half-way cannot leak state into the reuse.

     Read-only certificate: an empty store buffer means prepare would
     detect nothing and apply only releases read locks, so a getter-only
     transaction (find/mem/size/is_empty) can take the TM's read-only
     commit fast path. *)
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
      let committed_copy = t.copy_key k in
      L.lock_key t.locks l.txn committed_copy;
      l.key_locks <- committed_copy :: l.key_locks;
      l.stripes_mask <-
        l.stripes_mask lor (1 lsl L.stripe_index t.locks committed_copy)
    end

  (* ---------------- read operations ---------------- *)

  (* Snapshot reads resolve against the shadow chains at the pinned stamp:
     no region, no semantic lock, no conflict, no abort. *)
  let snap_shadow t k =
    Coll.Vchain.read_at t.snap.(L.stripe_index t.locks k) (TM.snapshot_stamp ())

  let find t k =
    if TM.in_snapshot () then shadow_find (snap_shadow t k) k
    else if not (TM.in_txn ()) then
      TM.critical (key_region t k) (fun () -> M.find (shard_of t k) k)
    else begin
      let l = local_of t in
      TM.critical (key_region t k) (fun () ->
          match Coll.Chain_hashmap.find l.buffer k with
          | Some w -> w.pending (* own write: no global read involved *)
          | None ->
              lock_key t l k;
              M.find (shard_of t k) k)
    end

  let mem t k = Option.is_some (find t k)

  let size t =
    if TM.in_snapshot () then
      Coll.Vchain.read_at t.snap_struct (TM.snapshot_stamp ())
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
      Coll.Vchain.read_at t.snap_struct (TM.snapshot_stamp ()) = 0
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

  (* ---------------- write operations ---------------- *)

  (* Pessimistic early conflict detection on the written key (§5.1).  Runs
     inside the stripe's critical region; a [`Retry] verdict is acted on
     outside it (TM.retry must be raised from transaction context, not from
     inside the open-nested atomic section). *)
  let pessimistic_status t l k =
    match t.write_policy with
    | Optimistic -> `Ok
    | Pessimistic_aggressive ->
        L.conflict_key t.locks ~self:l.txn k;
        `Ok
    | Pessimistic_timid ->
        let others =
          L.key_has_other_reader t.locks ~self:l.txn k
          || L.key_has_foreign_writer t.locks ~self:l.txn k
        in
        if others then `Retry else `Ok

  let buffer_write t l k pending ~blind =
    match Coll.Chain_hashmap.find l.buffer k with
    | Some w ->
        let old = w.pending in
        Coll.Chain_hashmap.add l.buffer k { pending; prior = w.prior };
        old
    | None ->
        if blind then begin
          Coll.Chain_hashmap.add l.buffer k { pending; prior = None };
          l.stripes_mask <-
            l.stripes_mask lor (1 lsl L.stripe_index t.locks k);
          None
        end
        else begin
          (* Returning the previous value reads the key (Table 2: put and
             remove take a key lock on their argument). *)
          lock_key t l k;
          let old = M.find (shard_of t k) k in
          Coll.Chain_hashmap.add l.buffer k
            { pending; prior = Some (Option.is_some old) };
          old
        end

  (* Transactional write entry point: pessimistic policies may demand a
     transparent retry, raised outside the critical region. *)
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

  (* Non-transactional writes nest structure-then-stripe (ascending rid):
     the shard mutation and the committed-size update must be atomic for
     size readers.  The shadow publication draws its stamp through
     [TM.begin_publish] while both regions are held, so it serializes with
     committing transactions that touch the same stripe or the size. *)
  let nontxn_write t k pending =
    if TM.in_snapshot () then
      invalid_arg "Transactional_map: write inside a snapshot read section";
    TM.critical (sregion t) (fun () ->
        TM.critical (key_region t k) (fun () ->
            let shard = shard_of t k in
            let old = M.find shard k in
            (match pending with
            | Some v -> M.add shard k v
            | None -> M.remove shard k);
            (match (old, pending) with
            | None, Some _ -> t.csize <- t.csize + 1
            | Some _, None -> t.csize <- t.csize - 1
            | _ -> ());
            let stamp = TM.begin_publish () in
            Fun.protect ~finally:TM.end_publish (fun () ->
                let min_epoch = TM.reclaim_epoch () in
                let si = L.stripe_index t.locks k in
                let shadow = Coll.Vchain.latest t.snap.(si) in
                let shadow =
                  match pending with
                  | Some v -> shadow_add shadow k v
                  | None -> shadow_remove shadow k
                in
                publish_stripe t si ~min_epoch stamp shadow;
                if Option.is_some old <> Option.is_some pending then
                  publish_struct t ~min_epoch stamp);
            old))

  let put t k v =
    if not (TM.in_txn ()) then nontxn_write t k (Some v)
    else write_op t k (Some v) ~blind:false

  let remove t k =
    if not (TM.in_txn ()) then nontxn_write t k None
    else write_op t k None ~blind:false

  (* Blind variants (§5.1 "Extensions to java.util.Map"): no previous-value
     read, hence no key lock and no ordering between two transactions that
     only write the same key. *)
  let put_blind t k v =
    if not (TM.in_txn ()) then ignore (nontxn_write t k (Some v))
    else ignore (write_op t k (Some v) ~blind:true)

  let remove_blind t k =
    if not (TM.in_txn ()) then ignore (nontxn_write t k None)
    else ignore (write_op t k None ~blind:true)

  (* ---------------- iteration ---------------- *)

  (* Full enumeration under all regions (structure then stripes, ascending):
     merges the shards with the store buffer, takes a key lock on every key
     returned and — as the enumeration observes the complete contents — the
     size lock. *)
  (* Snapshot enumeration: every stripe's shadow is read at the same
     pinned stamp, so the result is a prefix-consistent cut across the
     whole map (commits are published stripe-by-stripe under their
     regions, but all at a single stamp the pin has already waited out). *)
  let snap_fold f t init =
    let ts = TM.snapshot_stamp () in
    let acc = ref init in
    Array.iter
      (fun chain ->
        Coll.Pmap.iter
          (fun _ bucket -> List.iter (fun (k, v) -> acc := f k v !acc) bucket)
          (Coll.Vchain.read_at chain ts))
      t.snap;
    !acc

  let fold f t init =
    if TM.in_snapshot () then snap_fold f t init
    else if not (TM.in_txn ()) then
      L.critical_all t.locks (fun () ->
          let acc = ref init in
          Array.iter
            (fun shard -> M.iter (fun k v -> acc := f k v !acc) shard)
            t.shards;
          !acc)
    else begin
      let l = local_of t in
      L.critical_all t.locks (fun () ->
          L.lock_size t.locks l.txn;
          l.struct_locked <- true;
          let acc = ref init in
          Array.iter
            (fun shard ->
              M.iter
                (fun k v ->
                  match Coll.Chain_hashmap.find l.buffer k with
                  | Some { pending = None; _ } -> () (* removed by us *)
                  | Some { pending = Some v'; _ } ->
                      lock_key t l k;
                      acc := f k v' !acc
                  | None ->
                      lock_key t l k;
                      acc := f k v !acc)
                shard)
            t.shards;
          (* Keys added only in the buffer. *)
          Coll.Chain_hashmap.iter
            (fun k w ->
              match w.pending with
              | Some v when not (M.mem (shard_of t k) k) -> acc := f k v !acc
              | _ -> ())
            l.buffer;
          !acc)
    end

  let iter f t = fold (fun k v () -> f k v) t ()
  let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
  let keys t = fold (fun k _ acc -> k :: acc) t []
  let values t = fold (fun _ v acc -> v :: acc) t []

  (* Compound convenience operations built from the primitives, so their
     conflict behaviour follows from the primitive locks (the paper's
     primitive/derivative categorisation). *)

  let put_if_absent t k v =
    (* Reads the key (lock), writes only when absent; returns the residing
       value. *)
    match find t k with
    | Some existing -> existing
    | None ->
        ignore (put t k v);
        v

  let update t k f =
    (* Read-modify-write under the key lock. *)
    match f (find t k) with
    | Some v -> ignore (put t k v)
    | None -> ignore (remove t k)

  (* ---------------- cursor-style iteration ---------------- *)

  (* The paper's iterator takes a key lock on each key as [next] returns it
     and reveals the size when the enumeration completes.  Two policies for
     the size lock:
     - [`Eager] (default): taken at cursor creation, so a concurrent
       size-changing commit always aborts the iterating transaction — the
       enumeration is strictly serializable;
     - [`At_exhaustion]: taken only when [next] first returns [None],
       matching Table 2's "size lock on false return value of hasNext"
       exactly; a key committed mid-iteration into an already-passed
       position can then be missed without a conflict (the anomaly is
       discussed in EXPERIMENTS.md). *)
  type 'v cursor = {
    cparent : 'v t;
    mutable candidates : M.key list;
    mutable exhausted : bool;
    cpolicy : [ `Eager | `At_exhaustion ];
  }

  let cursor ?(size_lock = `Eager) t =
    let candidates =
      if TM.in_snapshot () then
        (* Candidate keys from the pinned shadows; [next] re-resolves each
           against the same stamp, so the cursor never sees a torn state
           and takes no locks.  Must be drained inside the same snapshot
           section it was created in. *)
        snap_fold (fun k _ acc -> k :: acc) t []
      else if TM.in_txn () then begin
        let l = local_of t in
        L.critical_all t.locks (fun () ->
            if size_lock = `Eager then begin
              L.lock_size t.locks l.txn;
              l.struct_locked <- true
            end;
            let keys = ref [] in
            Array.iter
              (fun shard -> M.iter (fun k _ -> keys := k :: !keys) shard)
              t.shards;
            Coll.Chain_hashmap.iter
              (fun k w ->
                if Option.is_some w.pending && not (M.mem (shard_of t k) k)
                then keys := k :: !keys)
              l.buffer;
            !keys)
      end
      else
        L.critical_all t.locks (fun () ->
            let keys = ref [] in
            Array.iter
              (fun shard -> M.iter (fun k _ -> keys := k :: !keys) shard)
              t.shards;
            !keys)
    in
    { cparent = t; candidates; exhausted = false; cpolicy = size_lock }

  let rec next c =
    let t = c.cparent in
    match c.candidates with
    | [] ->
        if not c.exhausted then begin
          c.exhausted <- true;
          if c.cpolicy = `At_exhaustion && TM.in_txn () then begin
            let l = local_of t in
            TM.critical (sregion t) (fun () ->
                L.lock_size t.locks l.txn;
                l.struct_locked <- true)
          end
        end;
        None
    | k :: rest -> (
        c.candidates <- rest;
        let hit =
          if TM.in_snapshot () then
            Option.map (fun v -> (k, v)) (shadow_find (snap_shadow t k) k)
          else if not (TM.in_txn ()) then
            TM.critical (key_region t k) (fun () ->
                Option.map (fun v -> (k, v)) (M.find (shard_of t k) k))
          else begin
            let l = local_of t in
            TM.critical (key_region t k) (fun () ->
                match Coll.Chain_hashmap.find l.buffer k with
                | Some { pending = Some v; _ } -> Some (k, v)
                | Some { pending = None; _ } -> None (* removed by us *)
                | None -> (
                    match M.find (shard_of t k) k with
                    | Some v ->
                        lock_key t l k;
                        Some (k, v)
                    | None -> None (* removed by an earlier-serialized txn *)))
          end
        in
        match hit with Some kv -> Some kv | None -> next c)

  (* ---------------- introspection for tests/traces ---------------- *)

  (* Longest shadow chain (stripes and structure) — reclamation probe for
     leak tests: at most 2 once no snapshot reader is pinned below the
     newest versions. *)
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

  let holds_isempty_lock t =
    TM.critical (sregion t) (fun () ->
        L.isempty_locked_by t.locks (TM.current ()))

  let outstanding_locks t =
    L.critical_all t.locks (fun () -> L.total_lockers t.locks)

  (* Live rendering of Table 3's state inventory: committed state (the
     sharded wrapped map), shared transactional state (lock tables), and
     the calling transaction's local state. *)
  let dump_state ppf t =
    let local = if TM.in_txn () then Some (local_of t) else None in
    L.critical_all t.locks (fun () ->
        Format.fprintf ppf "Committed state:@.";
        Format.fprintf ppf "  map                 %d bindings in %d stripes@."
          t.csize (stripe_count t);
        Format.fprintf ppf "Shared transactional state (open-nested):@.";
        Format.fprintf ppf "  key2lockers         %d entries@."
          (L.key_entry_count t.locks);
        Format.fprintf ppf "  sizeLockers         %d@."
          (L.size_locker_count t.locks);
        Format.fprintf ppf "  isEmptyLockers      %d@."
          (L.isempty_locker_count t.locks);
        Format.fprintf ppf "Local transactional state (calling txn):@.";
        match local with
        | None -> Format.fprintf ppf "  none (outside a transaction)@."
        | Some l ->
            Format.fprintf ppf
              "  txn %-6d storeBuffer=%d entries, keyLocks=%d@."
              (TM.txn_id l.txn)
              (Coll.Chain_hashmap.size l.buffer)
              (List.length l.key_locks))

  let buffered_writes t =
    if not (TM.in_txn ()) then 0
    else Coll.Chain_hashmap.size (local_of t).buffer
end
