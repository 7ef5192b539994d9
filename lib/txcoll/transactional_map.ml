(* TransactionalMap (paper §3.1): replaces the memory-level conflicts of
   a shared Map implementation (size field, bucket collisions) with
   semantic conflict detection on the Map abstract data type.

   The map is a class derived through {!Derive} from its commutativity
   spec: a write is the binding it installs ([None] = removal),
   last-write-wins in the store buffer and absorbing (reading back one's
   own put needs no committed read), and an observation weighs its
   presence.  The functor therefore generates exactly Table 2's locking —
   key locks on reads and value-returning writes, the size lock on size
   and enumeration, the isEmpty lock when emptiness flips — together with
   the striped shadow chains that hold the committed bindings, the store
   buffer, the commit region plan and the prepare/apply/abort handlers
   (Table 3's committed, shared and local state).

   What stays here is what only the map has: the compound operations
   built from the primitives, the [isEmpty] encoding ablation, the
   incremental cursor, and the Table 3 state dump.  The set is the same
   spec at [unit] values ({!Transactional_set}). *)

module Spec_with (K : sig
  type key

  val name : string
  val keying : key Derive.keying
end) =
struct
  type key = K.key
  type 'v value = 'v
  type 'v wop = 'v option (* the binding after the write; None = removal *)

  let name = K.name
  let keying = K.keying
  let update = Derive.Lazy
  let combine ~earlier:_ ~later = later
  let view _ w = w
  let absorbing _ = true
  let weight = function Some _ -> 1 | None -> 0
  let uses_size = true
  let uses_isempty = true
end

module Spec (K : Underlying.HASHED) = Spec_with (struct
  type key = K.t

  let name = "Transactional_map"
  let keying = Derive.Hashed { hash = K.hash; equal = K.equal }
end)

module Make (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) = struct
  module D = Derive.Make (TM) (Spec (K))

  type isempty_policy =
    | Dedicated  (** isEmpty is a primitive operation with its own lock,
                     conflicting only when emptiness changes (§5.1). *)
    | Via_size  (** isEmpty derives from size and takes the size lock — the
                    concurrency-limiting variant, kept for the ablation. *)

  type 'v t = { d : 'v D.t; isempty_policy : isempty_policy }

  let create ?stripes ?(isempty_policy = Dedicated) ?copy_key () =
    { d = D.create ?stripes ?copy_key (); isempty_policy }

  let stripe_count t = D.stripe_count t.d

  (* ---------------- primitives ---------------- *)

  let find t k = D.find t.d k
  let mem t k = Option.is_some (find t k)
  let size t = D.size t.d

  let is_empty t =
    match t.isempty_policy with
    | Dedicated -> D.is_empty t.d
    | Via_size -> size t = 0

  let put t k v = D.write t.d k (Some v) ~blind:false
  let remove t k = D.write t.d k None ~blind:false

  (* Blind variants (§5.1 "Extensions to java.util.Map"): no previous-value
     read, hence no key lock and no ordering between two transactions that
     only write the same key. *)
  let put_blind t k v = D.write_blind t.d k (Some v)
  let remove_blind t k = D.write_blind t.d k None

  (* ---------------- enumeration ---------------- *)

  let fold f t init = D.fold f t.d init
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
       discussed in EXPERIMENTS.md).
     Inside a snapshot the candidates and every [next] resolve at the
     pinned stamp; such a cursor must be drained in the same section. *)
  type 'v cursor = {
    cparent : 'v t;
    mutable candidates : K.t list;
    mutable exhausted : bool;
    cpolicy : [ `Eager | `At_exhaustion ];
  }

  let cursor ?(size_lock = `Eager) t =
    let candidates = D.candidate_keys t.d ~lock_size:(size_lock = `Eager) in
    { cparent = t; candidates; exhausted = false; cpolicy = size_lock }

  let rec next c =
    match c.candidates with
    | [] ->
        if not c.exhausted then begin
          c.exhausted <- true;
          if c.cpolicy = `At_exhaustion && TM.in_txn () then
            ignore (size c.cparent)
        end;
        None
    | k :: rest -> (
        c.candidates <- rest;
        (* A key removed since the candidates were taken (by us, or by an
           earlier-serialized committer) is skipped. *)
        match find c.cparent k with Some v -> Some (k, v) | None -> next c)

  (* ---------------- introspection for tests/traces ---------------- *)

  let snapshot_history_length t = D.snapshot_history_length t.d
  let key_history_length t k = D.key_history_length t.d k
  let holds_key_lock t k = D.holds_key_lock t.d k

  let holds_size_lock t = D.holds_lock t.d Derive.Size
  let holds_isempty_lock t = D.holds_lock t.d Derive.Isempty

  let outstanding_locks t = D.outstanding_locks t.d
  let buffered_writes t = D.buffered_writes t.d

  (* Live rendering of Table 3's state inventory: committed state (the
     striped shadows), shared transactional state (lock tables), and
     the calling transaction's local state. *)
  let dump_state ppf t =
    let d = t.d in
    let local = if TM.in_txn () then Some (D.local_of d) else None in
    Format.fprintf ppf "Committed state:@.";
    Format.fprintf ppf "  map                 %d bindings in %d stripes@."
      (D.committed_size d) (stripe_count t);
    Format.fprintf ppf "Shared transactional state (open-nested):@.";
    Format.fprintf ppf "  key2lockers         %d entries@."
      (D.lockers d Derive.Keys);
    Format.fprintf ppf "  sizeLockers         %d@." (D.lockers d Derive.Size);
    Format.fprintf ppf "  isEmptyLockers      %d@."
      (D.lockers d Derive.Isempty);
    Format.fprintf ppf "Local transactional state (calling txn):@.";
    match local with
    | None -> Format.fprintf ppf "  none (outside a transaction)@."
    | Some l ->
        Format.fprintf ppf "  txn %-6d storeBuffer=%d entries, keyLocks=%d@."
          (TM.txn_id l.txn) (D.buf_size l.buffer) (D.key_lock_count l.key_locks)
end

(* The undo-logging map (paper §5.1, "Redo versus undo logging"): the same
   spec under the eager discipline, which detects write conflicts at the
   write.  A write registers as its key's one pending writer, aborting the
   key's readers at once and waiting by retry on another writer; versions
   live in the same store buffer and shadows as the redo map's.  The redo
   map above is the default; this one makes the design-space comparison
   executable (the redo-vs-undo ablation). *)
module Make_undo (TM : Tm_intf.TM_OPS) (K : Underlying.HASHED) = struct
  module D =
    Derive.Make
      (TM)
      (struct
        include Spec (K)

        let name = "Transactional_map.Make_undo"
        let update = Derive.Eager
      end)

  type 'v t = 'v D.t

  let create () = D.create ()
  let find = D.find
  let mem t k = Option.is_some (find t k)
  let put t k v = D.write t k (Some v) ~blind:false
  let remove t k = D.write t k None ~blind:false
  let size = D.size
  let is_empty = D.is_empty
  let fold = D.fold
  let iter = D.iter
  let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
  let outstanding_locks = D.outstanding_locks
  let snapshot_history_length = D.snapshot_history_length
end
