(* Bounded multi-version chain: the last K committed versions of one cell,
   newest first, each stamped with the commit-clock value that published
   it.  The chain is a singly linked list of nodes behind an [Atomic.t]
   head; a node's stamp and value are immutable, its [next] link is the
   only mutable word:

   - readers [Atomic.get] the head once and walk [next] links without any
     lock; a concurrent publication simply isn't part of their walk;
   - publishers are expected to be externally serialised per chain (the
     STM publishes tvar chains while holding the tvar's versioned lock,
     and semantic shadow chains while holding the shard's commit region),
     so publication is a plain read-modify-write, no CAS loop.

   Publication prepends one node (4 words) and reclaims in place: it cuts
   the tail after index max(first entry stamped <= min_epoch, keep - 1) by
   overwriting that node's [next] with [Nil].  Nothing else is copied, so
   a publication allocates one node however long the chain is, and the
   surviving nodes — long-lived, hence promoted — are never rebuilt.

   Why the cut is safe against concurrent readers.  [min_epoch] is the
   oldest epoch any present or future snapshot reader can resolve (the
   clock-first pin protocol in [Types]: a reader pinned now or later has
   a stamp >= [min_epoch]).  Stamps descend along the chain, so the cut
   node [c] — at or after the first entry stamped <= [min_epoch] — has
   [c.stamp <= min_epoch <= ts] for every such reader [ts].  A walk stops
   at the first node stamped <= [ts] and reads the [next] link only of
   nodes stamped above [ts]; it therefore stops at [c] or earlier and
   never reads the one word the cut writes.  This holds even for a reader
   that loaded an older head: its walk is a suffix of the current chain
   and meets the same nodes.  When no entry is stamped <= [min_epoch], a
   reader pinned at the oldest epoch may still need the whole tail, so
   nothing is cut (grow-only under a long-pinned reader, never blocking
   the writer); once the oldest reader epoch advances, the next
   publication trims the chain back to the bound. *)

type 'a node = Nil | Node of { stamp : int; v : 'a; mutable next : 'a node }
type 'a t = 'a node Atomic.t

let rec count n = function Nil -> n | Node r -> count (n + 1) r.next

let make stamp v = Atomic.make (Node { stamp; v; next = Nil })

let length t = count 0 (Atomic.get t)

let latest t =
  match Atomic.get t with
  | Node r -> r.v
  | Nil -> assert false (* chains are never empty *)

let latest_stamp t =
  match Atomic.get t with Node r -> r.stamp | Nil -> assert false

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

(* Cut the chain after index max(first entry stamped <= min_epoch,
   keep - 1); returns the number of nodes cut off.  [seen]: some entry at
   an index <= [i] is stamped <= min_epoch. *)
let rec trim ~keep ~min_epoch i seen = function
  | Nil -> 0
  | Node r ->
      let seen = seen || r.stamp <= min_epoch in
      if seen && i >= keep - 1 then begin
        let dropped = count 0 r.next in
        r.next <- Nil;
        dropped
      end
      else trim ~keep ~min_epoch (i + 1) seen r.next

(* Publish a new version stamped [stamp] and lazily reclaim shadowed
   entries beyond the bound.  Publishers are serialised per chain and
   stamps grow monotonically (each publisher advances the commit clock
   while holding the serialising lock), so the plain insert-at-head is
   order-correct; the in-place sorted insert below is a defensive
   fallback for a stamp race that the locking discipline should make
   impossible (a reader walking past the splice sees either link, both
   valid chains).  Returns the number of versions reclaimed. *)
let publish t ~keep ~min_epoch stamp v =
  (match Atomic.get t with
  | Node r as head when r.stamp >= stamp ->
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
  trim ~keep ~min_epoch 0 false (Atomic.get t)
