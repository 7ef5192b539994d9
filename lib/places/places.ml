(* Resilient places: replicated, recoverable sharded store (x10
   LocalStore/MasterStore/SlaveStore blueprint, domain-hosted).

   Key decisions, in correctness order:

   - The replication log is emitted from the collections' exception-safe
     [on_commit_prepared] apply phase, with the place's region held: the
     region orders the place's commits, so per-place batch order equals
     commit-stamp order, and a batch exists iff the transaction
     committed.

   - The inbox the batches land in is owned by the *slave* side: a
     committer appends synchronously (both modes) and the lazy drainer
     only moves batches inbox -> replica.  Killing the master therefore
     never loses a committed-but-unreplicated tail — recovery replays the
     inbox before promoting.

   - A place's master collections live in one immutable [masters] record
     behind a single [Atomic.t]: transactions capture the record on first
     touch and the replication handler's prepare phase re-checks physical
     identity (plus up-ness) under the region, so a transaction spanning a
     kill or a recovery aborts with [Stm.Place_down] strictly before its
     commit point.  Recovery installs a fresh record (promote) — it never
     mutates the old one, which frozen snapshot readers may still hold.

   - The promoted generation carries an epoch stamp drawn *after* the
     replica was poured into the new masters: a snapshot pin below the
     epoch must not read the new generation (its chains do not reach that
     far back) and raises [Place_down]; a pin at or above it sees exactly
     the promoted state.  Pins below the epoch that captured the *old*
     masters keep reading the frozen pre-kill state, which is the correct
     committed state at their stamp because a down place commits nothing.

   - Lock order is per-place and cycle-free: committers take region ->
     inbox mutex -> replica mutex; the drainer takes replica -> inbox and
     no regions; recovery takes replica, then region, but only while the
     place is down, when no committer can be past prepare.  Cross-place
     commits acquire regions rid-sorted (the STM's commit plan). *)

module Stm = Tcc_stm.Stm
module Tm = Tcc_stm.Stm.Tm_ops
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

type mode = Eager | Lazy of { max_lag : int }

(* One replicated operation: a put (Some v) or a remove (None) against the
   hash map or the sorted map.  Pure data — a process boundary would
   serialise exactly this. *)
type 'v rop = { ro_sorted : bool; ro_key : int; ro_val : 'v option }

type 'v batch = 'v rop list (* application order *)

type 'v replica = {
  r_mx : Mutex.t;
  r_map : (int, 'v) Hashtbl.t;
  r_sorted : (int, 'v) Hashtbl.t;
}

type 'v inbox = {
  i_mx : Mutex.t;
  i_q : 'v batch Queue.t; (* stamp order = append order (region-held) *)
  mutable i_len : int;
}

type state = Up | Down

type 'v masters = {
  g_map : 'v Map.t;
  g_sorted : 'v Sorted.t;
  g_epoch : int; (* stamp the generation was promoted at; 0 for gen 0 *)
  g_gen : int;
}

(* Per-transaction, per-place local state: the captured master generation
   and the replication buffer (newest first). *)
type 'v plocal = { pl_g : 'v masters; mutable pl_ops : 'v rop list }

type 'v place = {
  p_id : int;
  p_region : Tm.region;
  p_local : 'v plocal Tm.local_key;
  p_masters : 'v masters Atomic.t;
  p_state : state Atomic.t;
  p_inbox : 'v inbox;
  p_replica : 'v replica;
  p_shipped : int Atomic.t;
  p_applied : int Atomic.t;
  p_max_lag : int Atomic.t; (* high-water post-ship pending count *)
}

type 'v t = {
  t_places : 'v place array;
  t_width : int;
  t_key_space : int;
  t_mode : mode;
  t_stripes : int;
  t_stop : bool Atomic.t;
  mutable t_drainer : unit Domain.t option;
}

let place_down pl = Stm.Place_down { place = pl.p_id }

let place_of_key t k =
  if k < 0 || k >= t.t_key_space then
    invalid_arg "Places: key outside [0, key_space)";
  k / t.t_width

let place_ix t p =
  if p < 0 || p >= Array.length t.t_places then
    invalid_arg "Places: no such place";
  t.t_places.(p)

(* ------------------------------------------------------------------ *)
(* Slave side: ship, drain, backpressure                               *)

let apply_batch pl b =
  List.iter
    (fun op ->
      let tbl = if op.ro_sorted then pl.p_replica.r_sorted else pl.p_replica.r_map in
      match op.ro_val with
      | Some v -> Hashtbl.replace tbl op.ro_key v
      | None -> Hashtbl.remove tbl op.ro_key)
    b;
  Atomic.incr pl.p_applied

(* Batches are popped and applied under the replica mutex for the whole
   loop, so concurrent drainers (committer backpressure, background
   domain, recovery) can never reorder two batches of one place. *)
let drain_place pl =
  Mutex.protect pl.p_replica.r_mx (fun () ->
      let go = ref true in
      while !go do
        let b =
          Mutex.protect pl.p_inbox.i_mx (fun () ->
              match Queue.take_opt pl.p_inbox.i_q with
              | Some b ->
                  pl.p_inbox.i_len <- pl.p_inbox.i_len - 1;
                  Some b
              | None -> None)
        in
        match b with Some b -> apply_batch pl b | None -> go := false
      done)

let rec amax a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then amax a v

(* Called from the replication handler's apply phase: the place's region
   is held and the transaction is past its commit point.  Appending to
   the inbox is what makes the commit durable against a master kill. *)
let ship mode pl ops =
  let post =
    Mutex.protect pl.p_inbox.i_mx (fun () ->
        Queue.add ops pl.p_inbox.i_q;
        pl.p_inbox.i_len <- pl.p_inbox.i_len + 1;
        pl.p_inbox.i_len)
  in
  Atomic.incr pl.p_shipped;
  (match mode with
  | Eager -> drain_place pl
  | Lazy { max_lag } -> if post > max_lag then drain_place pl);
  (* Post-ship pending count: 0 in eager mode, <= max_lag in lazy mode
     (this ship is the only one in flight for the place — region held). *)
  amax pl.p_max_lag pl.p_inbox.i_len

(* ------------------------------------------------------------------ *)
(* Transactional routing                                               *)

let up_and_current pl (l : 'v plocal) =
  Atomic.get pl.p_state = Up && Atomic.get pl.p_masters == l.pl_g

(* The transaction's local state for a place, created on first touch
   (reads included: a read of a later-killed place must not serialise
   after the failover, so even read-only transactions get the prepare
   check via the read_only certificate turning false). *)
let attach mode pl _txn _spare =
  if Atomic.get pl.p_state <> Up then raise (place_down pl);
  let l = { pl_g = Atomic.get pl.p_masters; pl_ops = [] } in
  Tm.on_commit_prepared pl.p_region
    ~read_only:(fun () -> l.pl_ops = [] && up_and_current pl l)
    ~prepare:(fun () ->
      (* Region held, before the commit point: the authoritative
         failure-domain gate.  Raising here vetoes the whole commit —
         nothing applied, nothing shipped. *)
      if not (up_and_current pl l) then raise (place_down pl))
    ~apply:(fun _ ->
      if l.pl_ops <> [] then ship mode pl (List.rev l.pl_ops));
  l

let local_of t pl =
  let l = Tm.txn_local pl.p_local (attach t.t_mode) pl in
  if not (up_and_current pl l) then raise (place_down pl);
  l

(* Snapshot access: resolve against whatever generation is current.  A
   frozen (killed) generation is still the correct committed state at any
   pin taken before its replacement was promoted; a promoted generation
   serves only pins at or above its epoch. *)
let snapshot_masters pl =
  let g = Atomic.get pl.p_masters in
  if Stm.snapshot_stamp () < g.g_epoch then raise (place_down pl);
  g

let nontxn_masters pl =
  if Atomic.get pl.p_state <> Up then raise (place_down pl);
  Atomic.get pl.p_masters

let read_op t k ~snap ~txn ~auto =
  let pl = t.t_places.(place_of_key t k) in
  if Stm.in_snapshot () then snap (snapshot_masters pl) k
  else if Stm.in_txn () then txn (local_of t pl).pl_g k
  else auto (nontxn_masters pl) k

(* Writes always run inside a transaction: outside one, the operation is
   wrapped in its own [Stm.atomic], so the replication handler and its
   prepare-phase generation check cover auto-commit writes too. *)
let write_op t k body =
  if Stm.in_snapshot () then
    invalid_arg "Places: mutating operation inside a snapshot read";
  let go () =
    let pl = t.t_places.(place_of_key t k) in
    body pl (local_of t pl)
  in
  if Stm.in_txn () then go () else Stm.atomic go

(* ------------------------------------------------------------------ *)
(* Hash-map operations                                                 *)

let find t k =
  read_op t k
    ~snap:(fun g k -> Map.find g.g_map k)
    ~txn:(fun g k -> Map.find g.g_map k)
    ~auto:(fun g k -> Map.find g.g_map k)

let mem t k = Option.is_some (find t k)

let put t k v =
  write_op t k (fun _pl l ->
      let prev = Map.put l.pl_g.g_map k v in
      l.pl_ops <- { ro_sorted = false; ro_key = k; ro_val = Some v } :: l.pl_ops;
      prev)

let remove t k =
  write_op t k (fun _pl l ->
      let prev = Map.remove l.pl_g.g_map k in
      l.pl_ops <- { ro_sorted = false; ro_key = k; ro_val = None } :: l.pl_ops;
      prev)

(* Cross-place aggregates: per-place access under the usual rules; outside
   a transaction the whole aggregate is wrapped in one, so the result is a
   consistent cut across places. *)
let fold f t init =
  if Stm.in_snapshot () then
    Array.fold_left
      (fun acc pl -> Map.fold f (snapshot_masters pl).g_map acc)
      init t.t_places
  else
    let go () =
      Array.fold_left
        (fun acc pl -> Map.fold f (local_of t pl).pl_g.g_map acc)
        init t.t_places
    in
    if Stm.in_txn () then go () else Stm.atomic go

let size t =
  if Stm.in_snapshot () then
    Array.fold_left
      (fun acc pl -> acc + Map.size (snapshot_masters pl).g_map)
      0 t.t_places
  else
    let go () =
      Array.fold_left
        (fun acc pl -> acc + Map.size (local_of t pl).pl_g.g_map)
        0 t.t_places
    in
    if Stm.in_txn () then go () else Stm.atomic go

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

(* ------------------------------------------------------------------ *)
(* Sorted-map operations                                               *)

let sorted_find t k =
  read_op t k
    ~snap:(fun g k -> Sorted.find g.g_sorted k)
    ~txn:(fun g k -> Sorted.find g.g_sorted k)
    ~auto:(fun g k -> Sorted.find g.g_sorted k)

let sorted_put t k v =
  write_op t k (fun _pl l ->
      let prev = Sorted.put l.pl_g.g_sorted k v in
      l.pl_ops <- { ro_sorted = true; ro_key = k; ro_val = Some v } :: l.pl_ops;
      prev)

let sorted_remove t k =
  write_op t k (fun _pl l ->
      let prev = Sorted.remove l.pl_g.g_sorted k in
      l.pl_ops <- { ro_sorted = true; ro_key = k; ro_val = None } :: l.pl_ops;
      prev)

(* Places own contiguous ascending key intervals, so ascending place order
   concatenates per-place ascending folds into a global ascending fold. *)
let sorted_fold f t init =
  if Stm.in_snapshot () then
    Array.fold_left
      (fun acc pl -> Sorted.fold f (snapshot_masters pl).g_sorted acc)
      init t.t_places
  else
    let go () =
      Array.fold_left
        (fun acc pl -> Sorted.fold f (local_of t pl).pl_g.g_sorted acc)
        init t.t_places
    in
    if Stm.in_txn () then go () else Stm.atomic go

let sorted_size t =
  if Stm.in_snapshot () then
    Array.fold_left
      (fun acc pl -> acc + Sorted.size (snapshot_masters pl).g_sorted)
      0 t.t_places
  else
    let go () =
      Array.fold_left
        (fun acc pl -> acc + Sorted.size (local_of t pl).pl_g.g_sorted)
        0 t.t_places
    in
    if Stm.in_txn () then go () else Stm.atomic go

let sorted_to_list t = List.rev (sorted_fold (fun k v acc -> (k, v) :: acc) t [])

(* ------------------------------------------------------------------ *)
(* Failure domain: kill and recover                                    *)

let outside_only name =
  if Stm.in_txn () || Stm.in_snapshot () then
    invalid_arg (name ^ ": must be called outside transactions and snapshots")

let kill t p =
  outside_only "Places.kill";
  let pl = place_ix t p in
  (* Taking the region serialises the kill against in-flight commits on
     this place: a commit past its prepare check finishes applying and
     shipping before the state flips; everything later sees Down in
     prepare and aborts before its commit point. *)
  Tm.critical pl.p_region (fun () ->
      if Atomic.get pl.p_state = Up then Atomic.set pl.p_state Down)

let recover t p =
  outside_only "Places.recover";
  let pl = place_ix t p in
  if Atomic.get pl.p_state = Down then begin
    (* 1. Replay the shipped tail: after the kill no commit can ship to
       this place (prepare gates on Up), so the inbox is stable and the
       drained replica is exactly the committed state at kill time. *)
    drain_place pl;
    (* 2. Promote: pour the replica into fresh master collections.  This
       re-registers the semantic lock shards (fresh stripe regions, fresh
       lock tables) and publishes fresh shadow chains via the collections'
       non-transactional write path. *)
    let g_old = Atomic.get pl.p_masters in
    let m = Map.create ~stripes:t.t_stripes () in
    let s = Sorted.create () in
    Mutex.protect pl.p_replica.r_mx (fun () ->
        Hashtbl.iter (fun k v -> Map.put_blind m k v) pl.p_replica.r_map;
        Hashtbl.iter (fun k v -> Sorted.put_blind s k v) pl.p_replica.r_sorted);
    (* 3. Install the new generation under the region with a fresh epoch
       stamp.  The stamp is drawn after the pour, so every chain entry the
       pour published is below it: a snapshot pin at or above the epoch
       resolves the full promoted state, and a pin below it is refused
       (raises Place_down) rather than fed the generation's empty
       pre-pour chains.  Stale transactions (captured the old record)
       abort in prepare on physical identity. *)
    Tm.critical pl.p_region (fun () ->
        let e = Tm.begin_publish () in
        Tm.end_publish ();
        Atomic.set pl.p_masters
          { g_map = m; g_sorted = s; g_epoch = e; g_gen = g_old.g_gen + 1 };
        Atomic.set pl.p_state Up)
  end

let is_up t p = Atomic.get (place_ix t p).p_state = Up
let generation t p = (Atomic.get (place_ix t p).p_masters).g_gen

(* ------------------------------------------------------------------ *)
(* Construction, drainer lifecycle                                     *)

let drain t = Array.iter drain_place t.t_places

let spawn_drainer t =
  Domain.spawn (fun () ->
      while not (Atomic.get t.t_stop) do
        let idle = ref true in
        Array.iter
          (fun pl ->
            if pl.p_inbox.i_len > 0 then begin
              idle := false;
              drain_place pl
            end)
          t.t_places;
        if !idle then Unix.sleepf 0.0002
      done)

let create ?(place_count = 4) ?(key_space = 1024) ?(mode = Eager)
    ?(background = true) ?(stripes = 8) () =
  if place_count < 1 then invalid_arg "Places.create: place_count must be >= 1";
  if key_space < place_count then
    invalid_arg "Places.create: key_space must be >= place_count";
  (match mode with
  | Lazy { max_lag } when max_lag < 0 ->
      invalid_arg "Places.create: max_lag must be >= 0"
  | _ -> ());
  let width = (key_space + place_count - 1) / place_count in
  let mk_place i =
    {
      p_id = i;
      p_region = Tm.new_region ();
      p_local = Tm.new_local_key ();
      p_masters =
        Atomic.make
          {
            g_map = Map.create ~stripes ();
            g_sorted = Sorted.create ();
            g_epoch = 0;
            g_gen = 0;
          };
      p_state = Atomic.make Up;
      p_inbox = { i_mx = Mutex.create (); i_q = Queue.create (); i_len = 0 };
      p_replica =
        {
          r_mx = Mutex.create ();
          r_map = Hashtbl.create 64;
          r_sorted = Hashtbl.create 64;
        };
      p_shipped = Atomic.make 0;
      p_applied = Atomic.make 0;
      p_max_lag = Atomic.make 0;
    }
  in
  let t =
    {
      t_places = Array.init place_count mk_place;
      t_width = width;
      t_key_space = key_space;
      t_mode = mode;
      t_stripes = stripes;
      t_stop = Atomic.make false;
      t_drainer = None;
    }
  in
  (match mode with
  | Lazy _ when background -> t.t_drainer <- Some (spawn_drainer t)
  | _ -> ());
  t

let close t =
  Atomic.set t.t_stop true;
  (match t.t_drainer with Some d -> Domain.join d | None -> ());
  t.t_drainer <- None;
  drain t

let place_count t = Array.length t.t_places
let key_space t = t.t_key_space
let mode t = t.t_mode

(* ------------------------------------------------------------------ *)
(* Replication introspection and leak probes                           *)

let place_lag t p = (place_ix t p).p_inbox.i_len

let replication_lag t =
  Array.fold_left (fun acc pl -> max acc pl.p_inbox.i_len) 0 t.t_places

let max_lag_observed t =
  Array.fold_left (fun acc pl -> max acc (Atomic.get pl.p_max_lag)) 0 t.t_places

let lag_bound t = match t.t_mode with Eager -> None | Lazy { max_lag } -> Some max_lag

let batches_shipped t =
  Array.fold_left (fun acc pl -> acc + Atomic.get pl.p_shipped) 0 t.t_places

let batches_applied t =
  Array.fold_left (fun acc pl -> acc + Atomic.get pl.p_applied) 0 t.t_places

let tbl_agrees tbl l =
  Hashtbl.length tbl = List.length l
  && List.for_all (fun (k, v) -> Hashtbl.find_opt tbl k = Some v) l

let replica_agrees t =
  drain t;
  Array.for_all
    (fun pl ->
      Atomic.get pl.p_state = Up
      &&
      let g = Atomic.get pl.p_masters in
      let ml = Map.to_list g.g_map in
      let sl = Sorted.to_list g.g_sorted in
      Mutex.protect pl.p_replica.r_mx (fun () ->
          tbl_agrees pl.p_replica.r_map ml && tbl_agrees pl.p_replica.r_sorted sl))
    t.t_places

let outstanding_locks t =
  Array.fold_left
    (fun acc pl ->
      let g = Atomic.get pl.p_masters in
      acc + Map.outstanding_locks g.g_map + Sorted.outstanding_locks g.g_sorted)
    0 t.t_places

let snapshot_history_length t =
  Array.fold_left
    (fun acc pl ->
      let g = Atomic.get pl.p_masters in
      max acc
        (max
           (Map.snapshot_history_length g.g_map)
           (Sorted.snapshot_history_length g.g_sorted)))
    0 t.t_places
