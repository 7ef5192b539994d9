(* TransactionalSortedMap (paper §3.2): the TransactionalMap design
   extended with the SortedMap abstract state — ordered iteration, range
   views and the first/last endpoints — derived through {!Derive}.

   The spec is the map's (a write is the binding it installs, last write
   wins, an observation weighs its presence) under the map's comparator,
   so {!Derive} generates exactly Tables 5 and 6: key locks on point
   reads and value-returning writes, the range lock over every iterated
   span, first/last locks on the endpoints and on unbounded iterations,
   size/isEmpty as for the map; a sorted store buffer merged in key order;
   interval stripes cut by [~splitters], each its own shard, commit region
   and lock table; and the snapshot shadows that serve every read inside
   [Stm.snapshot].  Range, first and last conflicts are decided there.

   What stays here is what only the sorted map has: its views
   (subMap/headMap/tailMap), the incremental Table 5 cursor, the blind
   writes, and the Table 6 state dump and lock probes. *)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.ORDERED) = struct
  module D =
    Derive.Make
      (TM)
      (Transactional_map.Spec_with (struct
        type key = K.t

        let name = "Transactional_sorted_map"
        let keying = Derive.Ordered K.compare
      end))

  type 'v t = 'v D.t

  let create ?splitters ?copy_key () : 'v t = D.create ?splitters ?copy_key ()
  let compare_key = K.compare
  let stripe_count = D.stripe_count

  (* ---------------- point operations (as TransactionalMap) ------------- *)

  let find = D.find
  let mem t k = Option.is_some (find t k)
  let size = D.size
  let is_empty = D.is_empty
  let put t k v = D.write t k (Some v) ~blind:false
  let remove t k = D.write t k None ~blind:false

  (* Blind variants (§5.1): no previous-value read, hence no key lock. *)
  let put_blind t k v = D.write_blind t k (Some v)
  let remove_blind t k = D.write_blind t k None

  (* ---------------- ordered access ---------------- *)

  let first_binding t = D.endpoint t ~last:false
  let last_binding t = D.endpoint t ~last:true
  let first_key t = Option.map fst (first_binding t)
  let last_key t = Option.map fst (last_binding t)
  let fold_range = D.fold_range
  let fold = D.fold
  let iter = D.iter
  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  (* ---------------- SortedMap views (subMap/headMap/tailMap) ----------- *)

  type 'v view = { parent : 'v t; lo : K.t option; hi : K.t option }

  let in_bounds v k =
    (match v.lo with None -> true | Some b -> K.compare k b >= 0)
    && match v.hi with None -> true | Some b -> K.compare k b < 0

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

    (* firstKey of a view reveals the absence of any key in [lo, found): a
       range lock over that prefix plus a key lock on the found key;
       lastKey the mirror image over [found, hi). *)
    let first_binding v = D.seek v.parent ~up:true ~above:None ~lo:v.lo ~hi:v.hi
    let last_binding v = D.seek v.parent ~up:false ~above:None ~lo:v.lo ~hi:v.hi
    let first_key v = Option.map fst (first_binding v)
    let last_key v = Option.map fst (last_binding v)

    (* An empty view holds a range lock over all of it; a non-empty one
       holds [first_binding]'s locks, which pin one present key. *)
    let is_empty v = Option.is_none (first_binding v)
  end

  (* ---------------- ordered cursor (Table 5 iterator) ---------------- *)

  (* An incremental ordered iterator with the exact locking of Table 5:
     each [next] extends the transaction's range lock over the span it has
     observed ([previous key, returned key)) and key-locks the returned
     key; a cursor starting at the map's minimum takes the first lock, and
     exhaustion locks the remaining span up to [hi], plus the last lock
     when [hi] is unbounded.  The span ahead of the cursor stays unlocked,
     so inserts ahead of it commute (and are observed live) while inserts
     behind it abort the iterator.  Range insertions coalesce in the lock
     table, so the sweep holds a bounded number of range entries.  Inside a
     snapshot every step resolves at the section's pinned stamp. *)
  type 'v cursor = {
    cparent : 'v t;
    clo : K.t option;
    chi : K.t option;
    mutable cpos : K.t option; (* last returned key *)
    mutable cexhausted : bool;
  }

  let cursor ?lo ?hi t =
    if lo = None then D.lock_endpoint t ~last:false;
    { cparent = t; clo = lo; chi = hi; cpos = None; cexhausted = false }

  let cursor_next c =
    let r = D.seek c.cparent ~up:true ~above:c.cpos ~lo:c.clo ~hi:c.chi in
    (match r with
    | Some (k, _) -> c.cpos <- Some k
    | None ->
        if (not c.cexhausted) && c.chi = None then
          D.lock_endpoint c.cparent ~last:true;
        c.cexhausted <- true);
    r

  (* ---------------- introspection ---------------- *)

  let snapshot_history_length = D.snapshot_history_length
  let holds_key_lock = D.holds_key_lock
  let outstanding_locks = D.outstanding_locks

  let holds_size_lock t = D.holds_lock t Derive.Size
  let holds_first_lock t = D.holds_lock t Derive.First
  let holds_last_lock t = D.holds_lock t Derive.Last
  let holds_range_lock t = D.holds_lock t Derive.Ranges
  let outstanding_range_locks t = D.lockers t Derive.Ranges

  (* Number of regions the calling transaction's commit would plan right
     now (meaningful only inside a transaction).  Lets tests assert that a
     single-interval writer plans strictly fewer regions than
     [all_region_count]. *)
  let commit_plan_size t = List.length (D.regions_plan t (D.local_of t) ())
  let all_region_count t = List.length (D.all_regions t)

  (* Live rendering of Table 6's state inventory (local state is the
     calling transaction's). *)
  let dump_state ppf t =
    let local = if TM.in_txn () then Some (D.local_of t) else None in
    Format.fprintf ppf "Committed state:@.";
    Format.fprintf ppf "  sortedMap           %d bindings (%d intervals)@."
      (D.committed_size t) (stripe_count t);
    Format.fprintf ppf "  comparator          (read-only)@.";
    Format.fprintf ppf "Shared transactional state (open-nested):@.";
    Format.fprintf ppf "  key2lockers         %d entries@."
      (D.lockers t Derive.Keys);
    Format.fprintf ppf "  sizeLockers         %d@." (D.lockers t Derive.Size);
    Format.fprintf ppf "  firstLockers        %d@." (D.lockers t Derive.First);
    Format.fprintf ppf "  lastLockers         %d@." (D.lockers t Derive.Last);
    Format.fprintf ppf "  rangeLockers        %d@." (D.lockers t Derive.Ranges);
    Format.fprintf ppf "Local transactional state (calling txn):@.";
    match local with
    | None -> Format.fprintf ppf "  none (outside a transaction)@."
    | Some l ->
        Format.fprintf ppf
          "  txn %-6d sortedStoreBuffer=%d entries, keyLocks=%d@."
          (TM.txn_id l.D.txn) (D.buf_size l.D.buffer)
          (List.length l.D.key_locks)
end
