(* TransactionalQueue (paper §3.3): a transactional work queue with
   selectively reduced isolation, wrapping a Queue implementation behind the
   util.concurrent Channel interface (put/take/poll/peek/offer only).

   Per Table 9 the state is:
   - committed: the underlying queue;
   - shared: the set of transactions that observed emptiness (emptyLockers);
   - local: addBuffer (elements to enqueue at commit) and removeBuffer
     (elements already taken, to be returned to the queue on abort).

   Isolation is deliberately reduced (§5 "if we want reduced isolation, we
   ... allow writes to the underlying state from within open-nested
   transactions"): [poll]/[take] remove from the underlying queue
   immediately, so other transactions cannot steal work that would become
   invalid if this transaction aborts — the Delaunay-mesh motivation.
   [put] defers to commit so speculative new work never leaks.  Per Tables 7
   and 8, the only semantic conflict is observing emptiness that a
   committing [put] invalidates.

   Multi-version snapshots: a bounded chain of immutable queue images
   ([Coll.Pdeque] in a [Coll.Vchain]) mirrors the underlying queue.  Every
   mutation of the underlying queue — commit-time flushes, op-time takes
   (reduced isolation makes those visible immediately by design), abort
   compensation, non-transactional operations — publishes the new image
   while holding the structure region, so publications are serialized and
   stamp-monotone.  Snapshot readers serve [peek]/[committed_length] from
   the image at their pinned stamp; mutating operations raise. *)

module Make (TM : Tm_intf.TM_OPS) (Q : Tm_intf.QUEUE_OPS) = struct
  module L = Semlock.Make (TM)

  type 'v local = {
    txn : TM.txn;
    add_buffer : 'v Coll.Fifo_deque.t;
    remove_buffer : 'v Coll.Fifo_deque.t; (* in removal order *)
  }

  type 'v t = {
    queue : 'v Q.t;
    locks : unit L.t; (* only the empty lock is used *)
    local_key : 'v local TM.local_key;
    snap : 'v Coll.Pdeque.t Coll.Vchain.t;
        (* immutable images of [queue]; published only while the structure
           region is held, so [Vchain.latest] is the current image there *)
  }

  (* A single stripe (K = 1): the queue's isolation is already reduced —
     takes hit the underlying queue at operation time — so every operation
     serialises on the lock manager's structure region, which doubles as
     the commit region. *)
  let wrap queue =
    (* QUEUE_OPS has no iteration, so the initial image drains and refills
       the wrapped queue (wrap-time is quiescent: the caller hands the
       queue over and must not touch it afterwards). *)
    let items = ref [] in
    let rec drain () =
      match Q.dequeue queue with
      | Some v ->
          items := v :: !items;
          drain ()
      | None -> ()
    in
    drain ();
    let items = List.rev !items in
    List.iter (Q.enqueue queue) items;
    {
      queue;
      locks = L.create ~hash:(fun () -> 0) ~equal:(fun () () -> true) ();
      local_key = TM.new_local_key ();
      snap = Coll.Vchain.make 0 (Coll.Pdeque.of_list items);
    }

  let create () = wrap (Q.create ())
  let critical t f = TM.critical (L.struct_region t.locks) f

  (* Publish the next queue image at [stamp].  Caller holds the structure
     region (commit plan or an explicit critical). *)
  let publish_at t stamp image =
    TM.note_reclaimed
      (Coll.Vchain.publish t.snap ~min_epoch:(TM.reclaim_epoch ()) stamp image)

  (* Same, for mutations outside a commit's apply phase (op-time takes,
     abort compensation, non-transactional operations): draw a fresh stamp
     inside the held region through the TM's publication window. *)
  let publish_now t image =
    let stamp = TM.begin_publish () in
    Fun.protect ~finally:TM.end_publish (fun () -> publish_at t stamp image)

  let image t = Coll.Vchain.latest t.snap

  let cleanup t l = L.release_all t.locks l.txn ~keys:[]

  (* Prepare phase (before the TM's commit point, read-only, may raise):
     additions becoming visible invalidate transactions that observed an
     empty queue (Table 8: put conflicts "if now non-empty"). *)
  let prepare_handler t l () =
    critical t (fun () ->
        if not (Coll.Fifo_deque.is_empty l.add_buffer) then
          L.conflict_isempty t.locks ~self:l.txn)

  let apply_handler t l stamp =
    critical t (fun () ->
        if not (Coll.Fifo_deque.is_empty l.add_buffer) then begin
          let img = ref (image t) in
          Coll.Fifo_deque.iter
            (fun v ->
              Q.enqueue t.queue v;
              img := Coll.Pdeque.enqueue !img v)
            l.add_buffer;
          publish_at t stamp !img
        end;
        (* Taken elements are consumed for good; drop the removeBuffer. *)
        cleanup t l)

  let abort_handler t l () =
    critical t (fun () ->
        (* Compensation: return taken-but-unprocessed elements to the front
           of the queue in their original order.  [remove_buffer] lists them
           oldest-removal-first, so pushing front in reverse restores the
           original sequence. *)
        let items = List.rev (Coll.Fifo_deque.to_list l.remove_buffer) in
        if items <> [] then begin
          let img = ref (image t) in
          List.iter
            (fun v ->
              Q.push_front t.queue v;
              img := Coll.Pdeque.push_front !img v)
            items;
          publish_now t !img
        end;
        cleanup t l)

  let attach t txn _spare =
    let l =
      {
        txn;
        add_buffer = Coll.Fifo_deque.create ();
        remove_buffer = Coll.Fifo_deque.create ();
      }
    in
    (* An empty add buffer means prepare would check nothing (the isempty
       conflict only fires for pending enqueues) and apply only drops
       buffers and releases locks: peek-only transactions take the TM's
       read-only commit fast path.  Takes are applied to the underlying
       queue at operation time, so a taking transaction still qualifies —
       its commit publishes nothing. *)
    TM.on_commit_prepared
      ~read_only:(fun () -> Coll.Fifo_deque.is_empty l.add_buffer)
      (L.struct_region t.locks)
      ~prepare:(prepare_handler t l)
      ~apply:(apply_handler t l);
    TM.on_abort (abort_handler t l);
    l

  let local_of t = TM.txn_local t.local_key attach t

  let lock_empty t l = L.lock_isempty t.locks l.txn

  (* ---------------- Channel operations ---------------- *)

  let no_snapshot_write () =
    if TM.in_snapshot () then
      invalid_arg "Transactional_queue: write inside a snapshot read section"

  let put t v =
    no_snapshot_write ();
    if not (TM.in_txn ()) then
      critical t (fun () ->
          Q.enqueue t.queue v;
          publish_now t (Coll.Pdeque.enqueue (image t) v))
    else critical t (fun () -> Coll.Fifo_deque.enqueue (local_of t).add_buffer v)

  let offer = put

  (* An op-time take mutates the underlying queue immediately (reduced
     isolation), so it publishes a new image right away — snapshot readers
     pinned before the take's stamp still see the element. *)
  let take_underlying t =
    match Q.dequeue t.queue with
    | Some v ->
        publish_now t (snd (Coll.Pdeque.dequeue (image t)));
        Some v
    | None -> None

  let poll t =
    no_snapshot_write ();
    if not (TM.in_txn ()) then critical t (fun () -> take_underlying t)
    else
      critical t (fun () ->
          let l = local_of t in
          match take_underlying t with
          | Some v ->
              Coll.Fifo_deque.enqueue l.remove_buffer v;
              Some v
          | None -> (
              (* Fall back to our own deferred additions. *)
              match Coll.Fifo_deque.dequeue l.add_buffer with
              | Some v -> Some v
              | None ->
                  lock_empty t l;
                  None))

  let take = poll

  let peek t =
    if TM.in_snapshot () then
      Coll.Pdeque.peek (Coll.Vchain.read_at t.snap (TM.snapshot_stamp ()))
    else if not (TM.in_txn ()) then critical t (fun () -> Q.peek t.queue)
    else
      critical t (fun () ->
          let l = local_of t in
          match Q.peek t.queue with
          | Some v -> Some v
          | None -> (
              match Coll.Fifo_deque.peek l.add_buffer with
              | Some v -> Some v
              | None ->
                  lock_empty t l;
                  None))

  (* Committed length: a debugging/statistics view, NOT part of the Channel
     interface (the paper removes size-revealing operations from the work
     queue on purpose); takes no locks. *)
  let committed_length t =
    if TM.in_snapshot () then
      Coll.Pdeque.length (Coll.Vchain.read_at t.snap (TM.snapshot_stamp ()))
    else critical t (fun () -> Q.length t.queue)

  (* Reclamation probe for leak tests. *)
  let snapshot_history_length t = Coll.Vchain.length t.snap

  let holds_empty_lock t =
    critical t (fun () -> L.isempty_locked_by t.locks (TM.current ()))

  let outstanding_locks t = critical t (fun () -> L.total_lockers t.locks)

  (* Live rendering of Table 9's state inventory (local state is the
     calling transaction's). *)
  let dump_state ppf t =
    let local = if TM.in_txn () then Some (local_of t) else None in
    critical t (fun () ->
        Format.fprintf ppf "Committed state:@.";
        Format.fprintf ppf "  queue               %d elements@." (Q.length t.queue);
        Format.fprintf ppf "Shared transactional state (open-nested):@.";
        Format.fprintf ppf "  emptyLockers        %d@."
          (L.isempty_locker_count t.locks);
        Format.fprintf ppf "Local transactional state (calling txn):@.";
        match local with
        | None -> Format.fprintf ppf "  none (outside a transaction)@."
        | Some l ->
            Format.fprintf ppf "  txn %-6d addBuffer=%d, removeBuffer=%d@."
              (TM.txn_id l.txn)
              (Coll.Fifo_deque.length l.add_buffer)
              (Coll.Fifo_deque.length l.remove_buffer))
end
