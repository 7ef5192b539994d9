(* Undo-logging TransactionalMap — the alternative implementation strategy
   of paper §5.1 ("Redo versus undo logging"): writes update the wrapped map
   in place and keep an undo log for compensation, instead of buffering a
   redo log applied at commit.

   As the paper notes, "undo logging requires early conflict detection
   since only one writer can be allowed to update a piece of semantic state
   in place at a time", so this variant is necessarily pessimistic:

   - a write takes an exclusive semantic write lock on its key, aborting
     any other holder immediately (aggressive contention management);
   - a read of a key write-locked by another transaction retries
     transparently until the writer finishes (wait-by-retry);
   - full enumeration retries while any foreign writer exists;
   - size is read live from the underlying map, so it can observe another
     transaction's uncommitted in-place insertions; to preserve
     serializability the abort handler re-checks size/isEmpty conflicts
     after undoing, aborting any size readers that saw the dirty value.

   The redo-based {!Transactional_map} is the paper's (and our) default:
   this module exists to make the design-space comparison executable (see
   the redo-vs-undo ablation).

   Excluded from multi-version snapshots: in-place undo logging publishes
   uncommitted state to the underlying map, so no committed-only version
   chain can be maintained at apply time (the committed image exists only
   between commits).  Operations raise [Invalid_argument] inside a
   snapshot read section rather than serve a possibly-dirty live read. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.MAP_OPS) = struct
  module L = Semlock.Make (TM)

  type 'v local = {
    txn : TM.txn;
    mutable undo : (M.key * 'v option) list; (* newest first; first write only *)
    written : (M.key, unit) Coll.Chain_hashmap.t;
    mutable key_locks : M.key list;
    mutable delta : int; (* net size change of in-place updates *)
  }

  type 'v t = {
    map : 'v M.t;
    locks : M.key L.t;
    local_key : 'v local TM.local_key;
  }

  (* A single stripe (K = 1): in-place updates plus an undo log need one
     atomic view of the whole map (size is read live, compensation replays
     against it), so the lock manager's structure region — which K = 1
     shares with its only key stripe — serialises everything, exactly the
     historical single-region behaviour. *)
  let wrap map =
    {
      map;
      locks = L.create ~hash:Hashtbl.hash ~equal:( = ) ();
      local_key = TM.new_local_key ();
    }

  let create () = wrap (M.create ())
  let critical t f = TM.critical (L.struct_region t.locks) f

  let cleanup t l = L.release_all t.locks l.txn ~keys:l.key_locks

  (* In-place changes are already applied; the prepare phase (read-only,
     before the TM's commit point) detects the remaining abstract-state
     conflicts, the apply phase only releases. *)
  let prepare_handler t l () =
    critical t (fun () ->
        if l.delta <> 0 then begin
          L.conflict_size t.locks ~self:l.txn;
          let now = M.size t.map in
          let before = now - l.delta in
          if (before = 0) <> (now = 0) then L.conflict_isempty t.locks ~self:l.txn
        end)

  let apply_handler t l _stamp = critical t (fun () -> cleanup t l)

  (* No snapshot support (see header): fail fast instead of leaking a
     non-snapshot-consistent read into a snapshot section. *)
  let no_snapshot () =
    if TM.in_snapshot () then
      invalid_arg
        "Transactional_map_undo: unsupported inside a snapshot read section"

  let abort_handler t l () =
    critical t (fun () ->
        (* Compensate newest-first, then abort any transaction that read the
           dirty size/emptiness. *)
        List.iter
          (fun (k, prior) ->
            match prior with
            | Some v -> M.add t.map k v
            | None -> M.remove t.map k)
          l.undo;
        if l.delta <> 0 then begin
          L.conflict_size t.locks ~self:l.txn;
          L.conflict_isempty t.locks ~self:l.txn
        end;
        cleanup t l)

  let attach t txn _spare =
    let l =
      {
        txn;
        undo = [];
        written = Coll.Chain_hashmap.create ();
        key_locks = [];
        delta = 0;
      }
    in
    (* The undo variant mutates in place at operation time, so "read only"
       means no undo log, no size delta and no recorded writes: then
       prepare detects nothing, apply only releases read locks, and the
       commit can take the TM's read-only fast path. *)
    TM.on_commit_prepared
      ~read_only:(fun () ->
        l.undo = [] && l.delta = 0 && Coll.Chain_hashmap.is_empty l.written)
      (L.struct_region t.locks)
      ~prepare:(prepare_handler t l)
      ~apply:(apply_handler t l);
    TM.on_abort (abort_handler t l);
    l

  let local_of t = TM.txn_local t.local_key attach t

  let lock_read t l k =
    if not (L.key_locked_by t.locks l.txn k) then begin
      L.lock_key t.locks l.txn k;
      l.key_locks <- k :: l.key_locks
    end

  (* Precise even when several writers are pending on [k]: [key_writer]
     could return [l.txn] itself while a different writer is also
     registered, so the blocked-check must ask the table directly. *)
  let foreign_writer t l k =
    L.key_has_foreign_writer t.locks ~self:l.txn k

  (* Run [f] in the critical region, retrying the whole transaction while
     [blocked] holds (wait-by-retry: the paper's "have the conflicting
     operation wait for the other transaction to complete", without the
     deadlock risk of in-place blocking). *)
  let rec guarded t ~blocked f =
    let verdict =
      critical t (fun () ->
          let l = local_of t in
          if blocked l then `Retry else `Done (f l))
    in
    match verdict with
    | `Done r -> r
    | `Retry ->
        TM.retry () |> ignore;
        guarded t ~blocked f

  (* ---------------- operations ---------------- *)

  let find t k =
    no_snapshot ();
    if not (TM.in_txn ()) then critical t (fun () -> M.find t.map k)
    else
      guarded t
        ~blocked:(fun l -> foreign_writer t l k)
        (fun l ->
          lock_read t l k;
          M.find t.map k)

  let mem t k = Option.is_some (find t k)

  let write t k pending =
    (* A foreign writer cannot be aborted: its pending compensation would
       clobber our in-place update.  Wait for it by retrying.  Foreign
       readers are safe to abort aggressively (they have no in-place
       effects). *)
    guarded t
      ~blocked:(fun l -> foreign_writer t l k)
      (fun l ->
        L.conflict_key t.locks ~self:l.txn k;
        if not (L.key_locked_by t.locks l.txn k) then
          l.key_locks <- k :: l.key_locks;
        L.lock_key_write t.locks l.txn k;
        let prior = M.find t.map k in
        if not (Coll.Chain_hashmap.mem l.written k) then begin
          Coll.Chain_hashmap.add l.written k ();
          l.undo <- (k, prior) :: l.undo
        end;
        (match (prior, pending) with
        | None, Some _ -> l.delta <- l.delta + 1
        | Some _, None -> l.delta <- l.delta - 1
        | _ -> ());
        (match pending with
        | Some v -> M.add t.map k v
        | None -> M.remove t.map k);
        prior)

  let put t k v =
    no_snapshot ();
    if not (TM.in_txn ()) then
      critical t (fun () ->
          let old = M.find t.map k in
          M.add t.map k v;
          old)
    else write t k (Some v)

  let remove t k =
    no_snapshot ();
    if not (TM.in_txn ()) then
      critical t (fun () ->
          let old = M.find t.map k in
          M.remove t.map k;
          old)
    else write t k None

  let size t =
    no_snapshot ();
    if not (TM.in_txn ()) then critical t (fun () -> M.size t.map)
    else
      guarded t
        ~blocked:(fun l -> L.any_other_writer t.locks ~self:l.txn)
        (fun l ->
          L.lock_size t.locks l.txn;
          M.size t.map)

  let is_empty t = size t = 0

  let fold f t init =
    no_snapshot ();
    if not (TM.in_txn ()) then
      critical t (fun () ->
          let acc = ref init in
          M.iter (fun k v -> acc := f k v !acc) t.map;
          !acc)
    else
      guarded t
        ~blocked:(fun l -> L.any_other_writer t.locks ~self:l.txn)
        (fun l ->
          L.lock_size t.locks l.txn;
          let acc = ref init in
          M.iter
            (fun k v ->
              lock_read t l k;
              acc := f k v !acc)
            t.map;
          !acc)

  let iter f t = fold (fun k v () -> f k v) t ()
  let to_list t = fold (fun k v acc -> (k, v) :: acc) t []

  let outstanding_locks t = critical t (fun () -> L.total_lockers t.locks)
end
