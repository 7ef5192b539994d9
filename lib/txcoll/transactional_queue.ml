(* TransactionalQueue (paper §3.3): a transactional work queue with
   selectively reduced isolation, behind the util.concurrent Channel
   interface (put/take/poll/peek/offer only).

   The queue is a class derived through {!Derive} from an ordered spec
   over [int] sequence keys: an element is bound at the key its [put]
   drew from a per-queue counter when it committed, so key order is
   commit order and queue order.  Table 9's state maps onto the derived
   one: the committed queue is the shadow chain of the single interval,
   emptyLockers is the isEmpty facet, addBuffer is the transaction's
   appends and removeBuffer is the record of the elements it took.

   - [put] is {!Derive.Make.append}: a blind write whose key is drawn at
     commit under the queue's structure region.  It takes no lock, never
     leaks speculative work, and its commit conflicts only through
     {!Derive}'s emptiness-flip rule (Tables 7 and 8: "if now
     non-empty").
   - [poll]/[take] reduce isolation on purpose (§5: "writes to the
     underlying state from within open-nested transactions"): the
     committed first element is removed at operation time by
     {!Derive.Make.first_now}, with no lock, so no other transaction can
     steal work that would be invalid if this one aborts — the
     Delaunay-mesh motivation.  Abort binds each taken element back at its
     original key, which restores the queue order whatever order aborting
     takers run in.
   - Reads see the committed first element without locking.  With nothing
     committed they fall back to the transaction's own puts, oldest
     first, and a [None] result locks isEmpty.  Inside [Stm.snapshot]
     they read the chains at the pinned stamp. *)

module Spec = struct
  type key = int
  type 'v value = 'v

  (* A write puts its value; a take removes a binding without passing
     through the store buffer. *)
  type 'v wop = 'v

  let name = "Transactional_queue"
  let keying = Derive.Ordered Int.compare
  let update = Derive.Lazy
  let combine ~earlier:_ ~later = later
  let view _ v = Some v
  let absorbing _ = true
  let weight = function Some _ -> 1 | None -> 0
  let uses_size = true
  let uses_isempty = true
end

module Make (TM : Tm_intf.TM_OPS) = struct
  module D = Derive.Make (TM) (Spec)

  type 'v t = { d : 'v D.t; fresh : unit -> int (* draws a put's key *) }

  let create () =
    let next = Atomic.make 0 in
    { d = D.create (); fresh = (fun () -> Atomic.fetch_and_add next 1) }

  (* ---------------- Channel operations ---------------- *)

  let put t v = D.append t.d ~fresh:t.fresh v
  let offer = put
  let peek t = D.first_now t.d ~take:false
  let poll t = D.first_now t.d ~take:true
  let take = poll

  (* Committed length: a debugging/statistics view, NOT part of the Channel
     interface (the paper removes size-revealing operations from the work
     queue on purpose); takes no locks. *)
  let committed_length t = D.committed_size t.d

  (* ---------------- introspection ---------------- *)

  let snapshot_history_length t = D.snapshot_history_length t.d
  let holds_empty_lock t = D.holds_lock t.d Derive.Isempty
  let outstanding_locks t = D.outstanding_locks t.d

  (* Live rendering of Table 9's state inventory (local state is the
     calling transaction's). *)
  let dump_state ppf t =
    let local = if TM.in_txn () then Some (D.local_of t.d) else None in
    Format.fprintf ppf "Committed state:@.";
    Format.fprintf ppf "  queue               %d elements@."
      (committed_length t);
    Format.fprintf ppf "Shared transactional state (open-nested):@.";
    Format.fprintf ppf "  emptyLockers        %d@."
      (D.lockers t.d Derive.Isempty);
    Format.fprintf ppf "Local transactional state (calling txn):@.";
    match local with
    | None -> Format.fprintf ppf "  none (outside a transaction)@."
    | Some l ->
        Format.fprintf ppf "  txn %-6d addBuffer=%d, removeBuffer=%d@."
          (TM.txn_id l.D.txn)
          (Coll.Fifo_deque.length l.D.appends)
          (List.length l.D.undo)
end
