(* Semantic lock tables for one collection instance, sharded into K
   cache-padded stripes.

   Lock owners are top-level transactions (paper §3.1: "The owner of a lock
   is the top-level transaction at the time of the read operation").

   Partitioning (scalability of the semantic layer itself): per-key state —
   reader/writer entries keyed by the collection key — lives in a stripe
   chosen by the table's partition function, each stripe behind its own
   [TM.critical] region, so operations and commits touching disjoint keys
   of the same collection never contend.  Two partition modes exist:

   - [Hashed]: stripe [hash key mod K].  Used by the hashed classes, which
     take no range locks.
   - [Intervals]: B ordered intervals cut by a sorted splitter array
     (interval i = [s_{i-1}, s_i), unbounded at the edges); the stripe of
     [k] is found by binary search.  Because intervals respect key order,
     a range lock is registered in exactly the stripes its span overlaps
     ([interval_span]), and [conflict_range_at] needs to consult only the
     stripe owning [k] — any range containing [k] necessarily overlaps
     [k]'s interval and is registered there.  Per-stripe registration
     stores the *uncut* range in each overlapped stripe; coalescing is
     per-stripe, and merging only touching half-open ranges is exact
     (the merge is the union), so stripe-local verdicts equal the verdict
     of the raw fragment list.

   Whole-structure state — size/isEmpty/first/last lockers — lives in a
   dedicated structure stripe behind [struct_region].  Deadlock freedom:
   the structure region is created first, so its rid is the lowest of the
   collection's regions and stripe rids ascend with stripe index;
   operations nest structure-then-stripe criticals in ascending order and
   commits pre-acquire their rid-sorted region plan, so every acquisition
   order is ascending.

   Synchronisation discipline: per-key functions take the stripe the
   caller found ([stripe_index t k], computed once per key and operation)
   and require the caller to hold that stripe's region
   ([lock_key_at], [conflict_key_at], [conflict_range_at],
   [release_key_at], ...); [release_all] and the introspection probe
   [key_locked_by] find the stripe themselves.  [lock_range] and
   [release_ranges_in_stripe] require the overlapped stripe regions;
   structure functions ([lock_size], [release_structure], ...) require
   [struct_region t].  [release_all] and the whole-table introspection
   helpers synchronise internally (regions are reentrant, so calling them
   with regions held is fine).

   Lock owners (a key's readers and pending writers, the size, isEmpty,
   first and last lockers) are plain lists deduplicated by [TM.txn_id] —
   which coincides with [TM.same_txn] equality on both TM
   implementations.  A list holds at most one entry per live transaction,
   so the scans stay short, and read-locking a key no one holds costs one
   entry record and one cons.  [any_other_writer] stays O(1) per stripe
   via a maintained per-transaction write-lock count.  Key write locks track
   *every* pending writer: a second writer registering on the same key
   must not displace the first, or the first's write-write conflict would
   be lost at commit time.  The commit-time conflict checks walk the
   lists directly and allocate nothing.

   Key tables follow the partition's notion of key equality: hashed mode
   keys them by the collection's own [hash]/[equal], interval mode by the
   partition's comparator, so a map under a coarser equality (say,
   case-insensitive strings) locks the same key its store buffer and
   committed shards see.

   Conflict detection is optimistic (paper §5.1): writers examine these
   tables at commit time and abort conflicting readers (and conflicting
   pending writers) through program-directed abort.  [remote_abort]
   returning [false] means the victim already passed its commit point and
   thereby serialised before the committing writer, which is not a
   conflict. *)

(* The facets whose lock state introspection reads: every key entry, the
   structural facets, and the range locks. *)
type facet = Keys | Size | Isempty | First | Last | Ranges

module Make (TM : Tm_intf.TM_OPS) = struct
  type 'k range = { lo : 'k option; hi : 'k option }
  (* Half-open interval [lo, hi); [None] = unbounded on that side. *)

  type lockers = TM.txn list
  (* Distinct owners by [TM.txn_id], newest first. *)

  type key_entry = {
    mutable readers : lockers;
    mutable writers : lockers;
        (* Pending writers, registered only by eager (undo-logging)
           classes (§5.1); lazy classes never write here.
           Plural: concurrent writers of the same key must all stay
           registered so each one's commit conflicts with the others. *)
  }

  type 'k key_table =
    | Hashed_keys of ('k, key_entry) Coll.Chain_hashmap.t
    | Ordered_keys of ('k, key_entry) Coll.Ordmap.t

  type 'k stripe = {
    st_region : TM.region;
    key_lockers : 'k key_table;
    st_writers : (int, int) Hashtbl.t;
        (* txn_id -> number of key write-locks held in this stripe *)
    st_ranges : (int, 'k range list * TM.txn) Hashtbl.t;
        (* txn_id -> coalesced ranges overlapping this stripe's
           interval *)
    mutable st_range_count : int; (* total (range, owner) pairs here *)
    (* Pad the hot fields apart: stripes sit in one array and are locked
       from different domains, so without padding two stripes share a
       cache line and "disjoint" critical sections still ping-pong. *)
    mutable st_pad0 : int;
    mutable st_pad1 : int;
    mutable st_pad2 : int;
    mutable st_pad3 : int;
    mutable st_pad4 : int;
  }

  type 'k partition =
    | Hashed of { hash : 'k -> int; equal : 'k -> 'k -> bool }
    | Intervals of { splitters : 'k array; cmp : 'k -> 'k -> int }
        (* [splitters] sorted ascending, no duplicates; B = len + 1
           intervals: interval 0 = (-inf, s0), interval i = [s_{i-1}, s_i),
           interval B-1 = [s_{B-2}, +inf). *)

  type 'k t = {
    stripes : 'k stripe array;
    partition : 'k partition;
    sregion : TM.region; (* structure stripe: size/isEmpty/first/last locks *)
    mutable size_lockers : lockers;
    mutable isempty_lockers : lockers;
    mutable first_lockers : lockers;
    mutable last_lockers : lockers;
  }

  let max_stripes = 62
  (* Collection wrappers plan commit regions with an int bitmask. *)

  let make_stripe partition region =
    let key_lockers =
      match partition with
      | Hashed { hash; equal } ->
          Hashed_keys (Coll.Chain_hashmap.create ~hash ~equal ())
      | Intervals { cmp; _ } -> Ordered_keys (Coll.Ordmap.create ~compare:cmp ())
    in
    {
      st_region = region;
      key_lockers;
      st_writers = Hashtbl.create 8;
      st_ranges = Hashtbl.create 8;
      st_range_count = 0;
      st_pad0 = 0;
      st_pad1 = 0;
      st_pad2 = 0;
      st_pad3 = 0;
      st_pad4 = 0;
    }

  (* The structure region is created first so its rid is the lowest of
     the collection; when there is a single stripe it shares the structure
     region, making the unsharded instance behave exactly like the
     historical one-region table. *)
  let build partition n =
    let sregion = TM.new_region () in
    let stripes =
      if n = 1 then [| make_stripe partition sregion |]
      else Array.init n (fun _ -> make_stripe partition (TM.new_region ()))
    in
    {
      stripes;
      partition;
      sregion;
      size_lockers = [];
      isempty_lockers = [];
      first_lockers = [];
      last_lockers = [];
    }

  (* Hash-partitioned table; [hash] must agree with [equal]. *)
  let create ?(stripes = 1) ~hash ~equal () =
    let k = max 1 (min stripes max_stripes) in
    build (Hashed { hash; equal }) k

  (* Interval-partitioned table: [splitters] (any order, duplicates fine)
     is sorted, deduplicated and clamped to [max_stripes - 1] cut points. *)
  let create_intervals ~splitters ~compare () =
    let sorted = Array.copy splitters in
    Array.sort compare sorted;
    let dedup =
      Array.of_list
        (Array.fold_right
           (fun s acc ->
             match acc with
             | s' :: _ when compare s s' = 0 -> acc
             | _ -> s :: acc)
           sorted [])
    in
    let dedup =
      if Array.length dedup > max_stripes - 1 then Array.sub dedup 0 (max_stripes - 1)
      else dedup
    in
    build (Intervals { splitters = dedup; cmp = compare }) (Array.length dedup + 1)

  (* -------------------- stripe geometry -------------------------------- *)

  let stripe_count t = Array.length t.stripes
  let struct_region t = t.sregion

  (* Number of splitters at or below [k] ([< k] when [strict]): a plain
     binary search over the sorted splitter array.  No predicate closure,
     so the several stripe lookups of every sorted-map operation allocate
     nothing; without splitters the loop never runs. *)
  let count_splitters ~strict cmp splitters k =
    let lo = ref 0 and hi = ref (Array.length splitters) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = cmp splitters.(mid) k in
      if c < 0 || (c = 0 && not strict) then lo := mid + 1 else hi := mid
    done;
    !lo

  let stripe_index t k =
    match t.partition with
    | Hashed { hash; _ } -> hash k land max_int mod Array.length t.stripes
    | Intervals { splitters; cmp } ->
        (* interval index = #{ s | s <= k } *)
        count_splitters ~strict:false cmp splitters k

  let stripe_region t i = t.stripes.(i).st_region

  (* Inclusive stripe span overlapped by the half-open range [lo, hi).
     Hashed mode destroys order, so every stripe is overlapped.  Interval
     mode: the upper index counts splitters *strictly below* [hi], so a
     range ending exactly on a splitter stays inside the interval below
     it.  Degenerate (empty) ranges clamp to a single stripe. *)
  let interval_span t ~lo ~hi =
    match t.partition with
    | Hashed _ -> (0, Array.length t.stripes - 1)
    | Intervals { splitters; cmp } ->
        let ilo =
          match lo with
          | None -> 0
          | Some l -> count_splitters ~strict:false cmp splitters l
        in
        let ihi =
          match hi with
          | None -> Array.length t.stripes - 1
          | Some h -> count_splitters ~strict:true cmp splitters h
        in
        (ilo, max ilo ihi)

  (* Nested criticals over the structure region then every stripe region in
     ascending index (= ascending rid) order: whole-table operations
     (enumeration, introspection) exclude all concurrent stripe activity. *)
  let critical_all t f =
    let n = Array.length t.stripes in
    let rec go i =
      if i = n then f () else TM.critical t.stripes.(i).st_region (fun () -> go (i + 1))
    in
    TM.critical t.sregion (fun () -> go 0)

  (* Owner-list primitives.  Membership and removal go by [TM.txn_id];
     [drop_id] returns the list itself when [id] is absent and copies only
     the prefix before it otherwise. *)
  let rec mem_id id = function
    | [] -> false
    | o :: rest -> TM.txn_id o = id || mem_id id rest

  let rec drop_id id = function
    | [] -> []
    | o :: rest as l ->
        if TM.txn_id o = id then rest
        else
          let rest' = drop_id id rest in
          if rest' == rest then l else o :: rest'

  let locker_mem l txn = mem_id (TM.txn_id txn) l
  let add_locker l txn = if locker_mem l txn then l else txn :: l
  let drop_locker l txn = drop_id (TM.txn_id txn) l

  (* Does [l] hold an owner other than [self]? *)
  let rec has_other ~self = function
    | [] -> false
    | o :: rest -> (not (TM.same_txn self o)) || has_other ~self rest

  let kt_find kt k =
    match kt with
    | Hashed_keys h -> Coll.Chain_hashmap.find h k
    | Ordered_keys o -> Coll.Ordmap.find o k

  let kt_size = function
    | Hashed_keys h -> Coll.Chain_hashmap.size h
    | Ordered_keys o -> Coll.Ordmap.size o

  let kt_fold f kt acc =
    match kt with
    | Hashed_keys h -> Coll.Chain_hashmap.fold f h acc
    | Ordered_keys o -> Coll.Ordmap.fold f o acc

  let find_entry_at t si k = kt_find t.stripes.(si).key_lockers k

  let writer_incr st txn =
    let id = TM.txn_id txn in
    let n =
      match Hashtbl.find st.st_writers id with
      | n -> n
      | exception Not_found -> 0
    in
    Hashtbl.replace st.st_writers id (n + 1)

  let writer_decr st txn =
    let id = TM.txn_id txn in
    match Hashtbl.find st.st_writers id with
    | exception Not_found -> ()
    | 1 -> Hashtbl.remove st.st_writers id
    | n -> Hashtbl.replace st.st_writers id (n - 1)

  (* -------------------- acquisition (read operations) ------------------ *)
  (* Per-key: [si] is [stripe_index t k] and the caller holds
     [stripe_region t si].  Structure: caller holds [struct_region t]. *)

  let new_entry () = { readers = []; writers = [] }

  (* [k]'s entry in stripe [st], added under [copy k] when missing: one
     find-or-add. *)
  let entry_for st ~copy k =
    match st.key_lockers with
    | Hashed_keys h ->
        Coll.Chain_hashmap.find_or_add h k ~copy ~make:new_entry
    | Ordered_keys o -> Coll.Ordmap.find_or_add o k ~copy ~make:new_entry

  (* Read-lock [k]: one find-or-add in the stripe's table.  Returns [true]
     when this call registered [txn], [false] when [txn] already held the
     key as a reader or a writer.  A new entry is stored under [copy k]. *)
  let lock_key_at t si txn ~copy k =
    let e = entry_for t.stripes.(si) ~copy k in
    if locker_mem e.readers txn || locker_mem e.writers txn then false
    else begin
      e.readers <- txn :: e.readers;
      true
    end

  (* Register [txn] as a pending writer of [k].  Idempotent per
     transaction; every distinct writer stays registered, so a later
     writer's commit still conflicts with an earlier one. *)
  let lock_key_write_at t si txn ~copy k =
    let st = t.stripes.(si) in
    let e = entry_for st ~copy k in
    if not (locker_mem e.writers txn) then begin
      e.writers <- txn :: e.writers;
      writer_incr st txn
    end

  (* Some registered writer of [k], if any (introspection; when several
     writers are pending the choice is arbitrary — callers that need
     "a writer other than me" must use [key_has_foreign_writer_at]). *)
  let key_writer_at t si k =
    match find_entry_at t si k with
    | Some { writers = w :: _; _ } -> Some w
    | _ -> None

  let key_has_foreign_writer_at t si ~self k =
    match find_entry_at t si k with
    | None -> false
    | Some e -> has_other ~self e.writers

  let any_other_writer t ~self =
    let id = TM.txn_id self in
    let other st =
      let n = Hashtbl.length st.st_writers in
      n > 1 || (n = 1 && not (Hashtbl.mem st.st_writers id))
    in
    let rec go i = i < Array.length t.stripes && (other t.stripes.(i) || go (i + 1)) in
    go 0

  let lock_size t txn = t.size_lockers <- add_locker t.size_lockers txn
  let lock_isempty t txn = t.isempty_lockers <- add_locker t.isempty_lockers txn
  let lock_first t txn = t.first_lockers <- add_locker t.first_lockers txn
  let lock_last t txn = t.last_lockers <- add_locker t.last_lockers txn

  (* Range insertion coalesces: the per-transaction range list is kept
     pairwise non-touching, so a cursor sweeping an interval in small
     increments holds one growing range instead of an unbounded pile of
     overlapping fragments.  One filter pass is complete: existing ranges
     are mutually separated by gaps, so the merged range can only absorb
     ranges the *new* range already touches.  Merging touching half-open
     ranges is exact (the merge equals the union), so coalescing never
     changes which keys a transaction's ranges cover. *)
  let touches compare a b =
    (* half-open ranges union into one interval iff max lo <= min hi *)
    let lo_le_hi lo hi =
      match (lo, hi) with
      | None, _ | _, None -> true
      | Some l, Some h -> compare l h <= 0
    in
    lo_le_hi a.lo b.hi && lo_le_hi b.lo a.hi

  let merge_ranges compare a b =
    let lo =
      match (a.lo, b.lo) with
      | None, _ | _, None -> None
      | Some x, Some y -> Some (if compare x y <= 0 then x else y)
    in
    let hi =
      match (a.hi, b.hi) with
      | None, _ | _, None -> None
      | Some x, Some y -> Some (if compare x y >= 0 then x else y)
    in
    { lo; hi }

  (* Coalescing insert into one txn_id-keyed range table; returns the
     entry-count delta. *)
  let insert_range_coalesced ~compare tbl id txn range =
    let existing =
      match Hashtbl.find_opt tbl id with None -> [] | Some (rs, _) -> rs
    in
    let merged = ref range in
    let kept =
      List.filter
        (fun r ->
          if touches compare r !merged then begin
            merged := merge_ranges compare r !merged;
            false
          end
          else true)
        existing
    in
    let rs = !merged :: kept in
    Hashtbl.replace tbl id (rs, txn);
    List.length rs - List.length existing

  (* Caller holds the stripe regions of [interval_span t ~lo:range.lo
     ~hi:range.hi]; the uncut range is registered in each overlapped
     stripe. *)
  let lock_range t txn ~compare range =
    let id = TM.txn_id txn in
    let ilo, ihi = interval_span t ~lo:range.lo ~hi:range.hi in
    for i = ilo to ihi do
      let st = t.stripes.(i) in
      st.st_range_count <-
        st.st_range_count + insert_range_coalesced ~compare st.st_ranges id txn range
    done

  (* -------------------- release (commit/abort handlers) ---------------- *)

  (* Drop [txn] from entry [e]; [true] when that leaves [e] empty. *)
  let release_entry st txn e =
    e.readers <- drop_locker e.readers txn;
    if locker_mem e.writers txn then begin
      e.writers <- drop_locker e.writers txn;
      writer_decr st txn
    end;
    e.readers = [] && e.writers = []

  (* One find-and-drop-if-empty. *)
  let release_key_at t si txn k =
    let st = t.stripes.(si) in
    match st.key_lockers with
    | Hashed_keys h -> Coll.Chain_hashmap.remove_if h k release_entry st txn
    | Ordered_keys o -> Coll.Ordmap.remove_if o k release_entry st txn

  (* Caller holds [stripe_region t i]. *)
  let release_ranges_in_stripe t txn i =
    let st = t.stripes.(i) in
    let id = TM.txn_id txn in
    match Hashtbl.find_opt st.st_ranges id with
    | None -> ()
    | Some (rs, _) ->
        st.st_range_count <- st.st_range_count - List.length rs;
        Hashtbl.remove st.st_ranges id

  (* Caller holds [struct_region]. *)
  let release_structure t txn =
    t.size_lockers <- drop_locker t.size_lockers txn;
    t.isempty_lockers <- drop_locker t.isempty_lockers txn;
    t.first_lockers <- drop_locker t.first_lockers txn;
    t.last_lockers <- drop_locker t.last_lockers txn

  (* Internally synchronised: sequential (non-nested) criticals per touched
     stripe, then the structure region — each reentrant if already held. *)
  let release_all t txn ~keys =
    List.iter
      (fun k ->
        let si = stripe_index t k in
        TM.critical (stripe_region t si) (fun () -> release_key_at t si txn k))
      keys;
    Array.iteri
      (fun i st ->
        if st.st_range_count > 0 then
          TM.critical st.st_region (fun () -> release_ranges_in_stripe t txn i))
      t.stripes;
    TM.critical t.sregion (fun () -> release_structure t txn)

  (* -------------------- conflict detection (write commit) -------------- *)

  let abort_other ~self owner =
    if not (TM.same_txn self owner) then ignore (TM.remote_abort owner)

  let rec abort_others ~self = function
    | [] -> ()
    | owner :: rest ->
        abort_other ~self owner;
        abort_others ~self rest

  let conflict_key_at t si ~self k =
    match find_entry_at t si k with
    | None -> ()
    | Some e ->
        abort_others ~self e.readers;
        abort_others ~self e.writers

  (* Does any transaction hold a first or last lock?  Lets a committer
     skip the endpoint check nobody would observe. *)
  let endpoint_locked t = t.first_lockers <> [] || t.last_lockers <> []

  let conflict_size t ~self = abort_others ~self t.size_lockers
  let conflict_isempty t ~self = abort_others ~self t.isempty_lockers
  let conflict_first t ~self = abort_others ~self t.first_lockers
  let conflict_last t ~self = abort_others ~self t.last_lockers

  let range_contains compare { lo; hi } k =
    (match lo with None -> true | Some b -> compare k b >= 0)
    && match hi with None -> true | Some b -> compare k b < 0

  (* Consults only [k]'s stripe [si] (caller holds its region): any
     range containing [k] overlaps [k]'s interval and is registered
     there.  A stripe holding no ranges returns before building the
     iteration closure: prepare calls this for every buffered key. *)
  let conflict_range_at t si ~self ~compare k =
    let st = t.stripes.(si) in
    if st.st_range_count > 0 then
      Hashtbl.iter
        (fun _ (ranges, owner) ->
          if
            (not (TM.same_txn self owner))
            && List.exists (fun r -> range_contains compare r k) ranges
          then ignore (TM.remote_abort owner))
        st.st_ranges

  (* -------------------- introspection (tests, Table 3/6/9 dumps) ------- *)

  let key_locked_by t txn k =
    match find_entry_at t (stripe_index t k) k with
    | None -> false
    | Some e -> locker_mem e.readers txn || locker_mem e.writers txn

  let structural t = function
    | Size -> t.size_lockers
    | Isempty -> t.isempty_lockers
    | First -> t.first_lockers
    | Last -> t.last_lockers
    | Keys | Ranges -> []

  (* Does [txn] hold a lock on [facet] (some range)?  Keys are probed one
     at a time, by [key_locked_by]. *)
  let locked_by t txn = function
    | Keys -> invalid_arg "Semlock.locked_by: probe keys with key_locked_by"
    | Ranges ->
        let id = TM.txn_id txn in
        Array.exists (fun st -> Hashtbl.mem st.st_ranges id) t.stripes
    | f -> locker_mem (structural t f) txn

  (* Registrations on [facet]: key entries, coalesced ranges, or the
     owners of a structural facet. *)
  let locker_count t = function
    | Keys ->
        Array.fold_left (fun acc st -> acc + kt_size st.key_lockers) 0 t.stripes
    | Ranges ->
        Array.fold_left (fun acc st -> acc + st.st_range_count) 0 t.stripes
    | f -> List.length (structural t f)

  let total_lockers t =
    Array.fold_left
      (fun acc st ->
        kt_fold
          (fun _ e acc -> acc + List.length e.readers + List.length e.writers)
          st.key_lockers acc
        + st.st_range_count)
      0 t.stripes
    + List.length t.size_lockers
    + List.length t.isempty_lockers
    + List.length t.first_lockers
    + List.length t.last_lockers
end
