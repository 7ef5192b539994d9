(* Multi-version chain of one cell: the versions a snapshot reader can
   still resolve, newest first, each stamped with the commit-clock value
   that published it.  A singly linked list of nodes behind an [Atomic.t]
   head; a node's stamp and value are immutable, its [next] link is the
   only mutable word:

   - readers [Atomic.get] the head once and walk [next] links without any
     lock; a concurrent publication simply isn't part of their walk;
   - publishers are expected to be externally serialised per chain (the
     STM publishes tvar chains while holding the tvar's versioned lock,
     and semantic shadow chains while holding the shard's commit region),
     so publication is a plain read-modify-write, no CAS loop.

   Publication prepends one node (4 words) and reclaims in place: it cuts
   the tail right after the first entry stamped <= [min_epoch] by
   overwriting that node's [next] with [Nil].  Nothing else is copied, so
   a publication allocates one node however long the chain is, and the
   surviving nodes — long-lived, hence promoted — are never rebuilt.

   What is retained.  [min_epoch] is the oldest epoch any present or
   future snapshot reader can resolve (the clock-first pin protocol in
   [Types]: a reader pinned now or later has a stamp >= [min_epoch]).
   The first entry stamped <= [min_epoch] is what a reader pinned at
   [min_epoch] resolves, the entries before it may be later pins'
   versions, and every entry after it is shadowed for all such readers.
   A publisher's window sample is below its stamp, so the new head is
   stamped above [min_epoch] and a chain with no reader pinned and no
   other publication in flight settles at two entries: the new head and
   the version it replaced.  A TM without snapshots passes [max_int] and
   keeps the head alone.

   Why the cut is safe against concurrent readers.  Stamps descend along
   the chain, so the cut node [c] has [c.stamp <= min_epoch <= ts] for
   every reader [ts] above.  A walk stops at the first node stamped
   <= [ts] and reads the [next] link only of nodes stamped above [ts]; it
   therefore stops at [c] or earlier and never reads the one word the cut
   writes.  This holds even for a reader that loaded an older head: its
   walk is a suffix of the current chain and meets the same nodes.  When
   no entry is stamped <= [min_epoch] nothing is cut: the chain grows
   under a long-pinned reader instead of blocking the writer, and the
   first publication after the reader's epoch advances cuts it back. *)

type 'a node = Nil | Node of { stamp : int; v : 'a; mutable next : 'a node }
type 'a t = 'a node Atomic.t

let rec count n = function Nil -> n | Node r -> count (n + 1) r.next

let make stamp v = Atomic.make (Node { stamp; v; next = Nil })

let length t = count 0 (Atomic.get t)

let latest t =
  match Atomic.get t with
  | Node r -> r.v
  | Nil -> assert false (* chains are never empty *)

(* Newest committed version with stamp <= [ts].  Under the snapshot pin
   protocol such an entry always exists (the pin caps every later trim at
   the pinned epoch); the [None] case means the caller read an unpinned
   timestamp.  The walks are top-level functions so that no closure is
   allocated per call. *)
let rec find_opt ts = function
  | Node r when r.stamp <= ts -> Some r.v
  | Node r -> find_opt ts r.next
  | Nil -> None

let read_at_opt t ts = find_opt ts (Atomic.get t)

(* Total variant: falls back to the oldest surviving version when nothing
   is stamped <= [ts] — reachable only outside the pin protocol. *)
let rec find_or ts last = function
  | Node r when r.stamp <= ts -> r.v
  | Node r -> find_or ts r.v r.next
  | Nil -> last

let read_at t ts =
  match Atomic.get t with
  | Nil -> assert false
  | Node r as head -> find_or ts r.v head

(* Cut the chain right after its first entry stamped <= [min_epoch];
   returns the number of nodes cut off. *)
let rec trim min_epoch = function
  | Nil -> 0
  | Node r when r.stamp <= min_epoch ->
      let dropped = count 0 r.next in
      r.next <- Nil;
      dropped
  | Node r -> trim min_epoch r.next

(* Publish a new version stamped [stamp] and lazily reclaim shadowed
   entries.  Publishers are serialised per chain and stamps grow
   monotonically (each publisher advances the commit clock while holding
   the serialising lock), so the plain insert-at-head is order-correct;
   the in-place sorted insert below is a defensive fallback for a stamp
   race that the locking discipline should make impossible (a reader
   walking past the splice sees either link, both valid chains).  A
   publication at the head's own stamp replaces the head: one commit can
   publish a chain more than once (two open-nested transactions' handlers
   run at their outer commit), each time building on the version before.
   Returns the number of versions reclaimed. *)
let publish t ~min_epoch stamp v =
  (match Atomic.get t with
  | Node r when r.stamp = stamp ->
      Atomic.set t (Node { stamp; v; next = r.next })
  | Node r as head when r.stamp > stamp ->
      (* Out-of-order stamp (defensive): splice after the last node
         stamped >= [stamp], keeping the chain newest first. *)
      let rec ins = function
        | Node r -> (
            match r.next with
            | Node n when n.stamp >= stamp -> ins r.next
            | next -> r.next <- Node { stamp; v; next })
        | Nil -> assert false
      in
      ins head
  | head -> Atomic.set t (Node { stamp; v; next = head }));
  trim min_epoch (Atomic.get t)
