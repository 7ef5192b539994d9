(* Seeded fault-injection (chaos) harness for the host STM and the
   transactional collection classes.

   A deterministic splitmix64 stream per worker domain drives injection
   through the {!Stm.Chaos} hook points:

   - [Chaos_attempt] (start of every top-level attempt): with probability
     [p_handler_fail], register a commit handler that raises; with the
     same probability, an abort handler that raises.  These exercise the
     protected handler execution: real collection handlers must still run
     and release their locks, and the failure must surface as
     [Stm.Handler_failure] with the right [committed] flag.
   - [Chaos_before_commit] (after the transaction body): with probability
     [p_delay], spin — widening the window for real conflicts; with
     probability [p_conflict], force a transparent retry.
   - [Chaos_in_commit] (inside the commit, after read validation, before
     the commit point): with probability [p_remote_abort], deliver a
     remote abort to the committing transaction itself — the
     Active/Committing status race of §4's program-directed abort; with
     probability [p_conflict], force a validation-style conflict.

   The soak runs workers over a TransactionalMap, a TransactionalSortedMap
   and a TransactionalQueue (plus one shared tvar counter) under
   injection, then checks linearizability against per-worker oracle models
   and asserts zero leaked semantic locks and zero held commit regions.
   On a single domain the whole schedule is deterministic: same seed,
   same injection counts, same final contents ({!fingerprint}). *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Queue = Txcoll.Host.Queue

exception Chaos_fault of string
(* The only exception the injected handlers raise; anything else escaping
   a soak transaction is a real bug and fails the run. *)

type config = {
  seed : int;
  p_conflict : float;
  p_remote_abort : float;
  p_handler_fail : float;
  p_delay : float;
  delay_spins : int;
}

let uniform ?(delay_spins = 200) ~seed p =
  {
    seed;
    p_conflict = p;
    p_remote_abort = p;
    p_handler_fail = p;
    p_delay = p;
    delay_spins;
  }

(* ---------------- deterministic RNG (splitmix64) ---------------- *)

let sm_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_float st =
  Int64.to_float (Int64.shift_right_logical (sm_next st) 11) /. 9007199254740992.

let rand_int st n =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (sm_next st) 1) (Int64.of_int n))

let stream_of_seed seed index =
  ref (Int64.logxor (Int64.of_int ((seed * 0x9E3779B1) + index)) 0x5DEECE66DL)

(* Per-domain injection stream, set by [register_worker]; a domain that
   never registered (e.g. the checking main domain while the hook is still
   installed) gets a fixed seed-independent-of-identity stream, keeping
   single-domain runs fully deterministic. *)
let stream_key : int64 ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0L)

(* ---------------- failure context ---------------- *)

(* Every failure message a soak emits carries the seed, the soak section
   that produced it, the contention manager the soak ran under, and the
   most recent injection the reporting domain's own stream fired — plus,
   once per failing report, the one command that replays the exact
   schedule.  The injection site is tracked per-domain so a worker's
   failure names its own last fault, not another domain's. *)

let last_injection_key : string ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref "none")

let note_injection site = Domain.DLS.get last_injection_key := site
let last_injection () = !(Domain.DLS.get last_injection_key)

let fail_context ~cm cfg ~section =
  Printf.sprintf "[seed=%d section=%s cm=%s last_injection=%s] " cfg.seed
    section (Stm.Contention.name cm) (last_injection ())

let repro_hint ~target cfg =
  Printf.sprintf "reproduce: CHAOS_SEEDS=%d dune exec bench/main.exe -- %s"
    cfg.seed target

(* ---------------- injection counters ---------------- *)

let injected_conflicts = Atomic.make 0
let injected_remote_aborts = Atomic.make 0
let injected_handler_faults = Atomic.make 0
let injected_delays = Atomic.make 0

let reset_counters () =
  Atomic.set injected_conflicts 0;
  Atomic.set injected_remote_aborts 0;
  Atomic.set injected_handler_faults 0;
  Atomic.set injected_delays 0

let register_worker cfg ~index =
  Domain.DLS.get stream_key := !(stream_of_seed cfg.seed (index + 1));
  Domain.DLS.get last_injection_key := "none"

let hook cfg ev =
  let st = Domain.DLS.get stream_key in
  if Int64.equal !st 0L then st := !(stream_of_seed cfg.seed 0);
  match (ev : Stm.Chaos.event) with
  | Chaos_attempt ->
      if rand_float st < cfg.p_handler_fail then begin
        Atomic.incr injected_handler_faults;
        note_injection "commit-handler-fault@attempt";
        Stm.on_commit (fun () -> raise (Chaos_fault "commit-handler"))
      end;
      if rand_float st < cfg.p_handler_fail then begin
        Atomic.incr injected_handler_faults;
        note_injection "abort-handler-fault@attempt";
        Stm.on_abort (fun () -> raise (Chaos_fault "abort-handler"))
      end
  | Chaos_before_commit ->
      if rand_float st < cfg.p_delay then begin
        Atomic.incr injected_delays;
        note_injection "delay@before-commit";
        for _ = 1 to cfg.delay_spins do
          Domain.cpu_relax ()
        done
      end;
      if rand_float st < cfg.p_conflict then begin
        Atomic.incr injected_conflicts;
        note_injection "conflict@before-commit";
        ignore (Stm.retry_now ())
      end
  | Chaos_in_commit ->
      if rand_float st < cfg.p_remote_abort then begin
        Atomic.incr injected_remote_aborts;
        note_injection "remote-abort@in-commit";
        (* Self-directed remote abort: lands exactly in the
           Active/Committing window the status-race fix covers. *)
        ignore (Stm.remote_abort (Stm.current ()))
      end
      else if rand_float st < cfg.p_conflict then begin
        Atomic.incr injected_conflicts;
        note_injection "conflict@in-commit";
        ignore (Stm.retry_now ())
      end

let install cfg =
  reset_counters ();
  Domain.DLS.get stream_key := !(stream_of_seed cfg.seed 0);
  Domain.DLS.get last_injection_key := "none";
  Stm.Chaos.set_hook (Some (hook cfg))

let uninstall () = Stm.Chaos.set_hook None

(* ---------------- linearizability-checked soak ---------------- *)

type soak_config = {
  chaos : config;
  policy : Stm.Contention.policy;
  domains : int;
  ops_per_domain : int;
  key_space : int;  (* per-worker partition width *)
}

let default_soak ?(policy = Stm.Contention.default) ?(domains = 2)
    ?(ops_per_domain = 1500) ?(key_space = 64) ~seed p =
  { chaos = uniform ~seed p; policy; domains; ops_per_domain; key_space }

(* Failure-message prefix of a soak: names the contention manager the
   soak's transactions ran under. *)
let soak_context sc ~section = fail_context ~cm:sc.policy sc.chaos ~section

type soak_report = {
  ok : bool;
  errors : string list;
  committed : int;
  injections : int * int * int * int;
      (* conflicts, remote aborts, handler faults, delays *)
  map_size : int;
  sorted_size : int;
  queue_remaining : int;
  fingerprint : string;
}

(* Per-worker oracle: the effects of every transaction this worker saw
   commit.  Workers write disjoint key partitions, so the union of the
   models is the linearizable outcome for the maps; queue tokens are
   globally unique, so conservation is checked as a multiset equation. *)
type model = {
  m_map : (int, int) Hashtbl.t;
  m_sorted : (int, int) Hashtbl.t;
  mutable m_enq : int list;
  mutable m_deq : int list;
  mutable m_committed : int;
  mutable m_errors : string list;
}

let worker_loop sc ~index ~map ~sorted ~queue ~counter =
  register_worker sc.chaos ~index;
  let rng = stream_of_seed (sc.chaos.seed lxor 0x5afe) (index + 1) in
  let md =
    {
      m_map = Hashtbl.create 64;
      m_sorted = Hashtbl.create 64;
      m_enq = [];
      m_deq = [];
      m_committed = 0;
      m_errors = [];
    }
  in
  let base = index * sc.key_space in
  let seq = ref 0 in
  (* Run one op transactionally; [apply_model] records its effects iff the
     transaction committed — including commits surfaced through
     [Handler_failure { committed = true }] from an injected fault. *)
  let ctx () = soak_context sc ~section:"soak.worker" in
  let run_txn body apply_model =
    match Stm.atomic ~policy:sc.policy body with
    | () ->
        md.m_committed <- md.m_committed + 1;
        apply_model ()
    | exception Stm.Handler_failure { committed; failures } ->
        List.iter
          (fun e ->
            match e with
            | Chaos_fault _ -> ()
            | e ->
                md.m_errors <-
                  (ctx () ^ "unexpected handler failure: "
                  ^ Printexc.to_string e)
                  :: md.m_errors)
          failures;
        if committed then begin
          md.m_committed <- md.m_committed + 1;
          apply_model ()
        end
    | exception e ->
        md.m_errors <-
          (ctx () ^ "transaction raised: " ^ Printexc.to_string e)
          :: md.m_errors
  in
  let bump () = Tvar.modify counter succ in
  for i = 1 to sc.ops_per_domain do
    let dice = rand_int rng 100 in
    if dice < 30 then begin
      (* Point ops on the hash map, own partition; a cross-partition read
         creates inter-worker key-lock traffic. *)
      let k = base + rand_int rng sc.key_space in
      let probe = rand_int rng (sc.domains * sc.key_space) in
      if rand_int rng 3 < 2 then
        run_txn
          (fun () ->
            ignore (Map.put map k i);
            ignore (Map.find map probe);
            bump ())
          (fun () -> Hashtbl.replace md.m_map k i)
      else
        run_txn
          (fun () ->
            ignore (Map.remove map k);
            bump ())
          (fun () -> Hashtbl.remove md.m_map k)
    end
    else if dice < 55 then begin
      (* Sorted map: point writes plus occasional endpoint reads. *)
      let k = base + rand_int rng sc.key_space in
      if rand_int rng 3 < 2 then
        run_txn
          (fun () ->
            ignore (Sorted.put sorted k i);
            if rand_int rng 4 = 0 then ignore (Sorted.first_key sorted);
            bump ())
          (fun () -> Hashtbl.replace md.m_sorted k i)
      else
        run_txn
          (fun () ->
            ignore (Sorted.remove sorted k);
            if rand_int rng 4 = 0 then ignore (Sorted.last_key sorted);
            bump ())
          (fun () -> Hashtbl.remove md.m_sorted k)
    end
    else if dice < 80 then begin
      (* Work queue: globally unique tokens, conservation-checked. *)
      if rand_int rng 2 = 0 then begin
        let token = (index * 1_000_000) + !seq in
        incr seq;
        run_txn
          (fun () ->
            Queue.put queue token;
            bump ())
          (fun () -> md.m_enq <- token :: md.m_enq)
      end
      else begin
        (* The dequeued token is captured in a cell set during the body:
           when the commit is reported via [Handler_failure
           { committed = true }] the return value is lost, but the cell
           holds the committed (last) attempt's token. *)
        let got = ref None in
        run_txn
          (fun () ->
            got := Queue.poll queue;
            bump ())
          (fun () ->
            match !got with
            | Some tok -> md.m_deq <- tok :: md.m_deq
            | None -> ())
      end
    end
    else if dice < 90 then begin
      (* Cross-collection transaction: two regions at commit. *)
      let k = base + rand_int rng sc.key_space in
      run_txn
        (fun () ->
          ignore (Map.put map k (-i));
          ignore (Sorted.put sorted k (-i));
          bump ())
        (fun () ->
          Hashtbl.replace md.m_map k (-i);
          Hashtbl.replace md.m_sorted k (-i))
    end
    else begin
      (* Abstract-state reads: size/isEmpty/endpoint/empty locks make this
         worker a remote-abort victim. *)
      let body () =
        (match rand_int rng 4 with
        | 0 -> ignore (Map.size map)
        | 1 -> ignore (Map.is_empty map)
        | 2 -> ignore (Sorted.first_key sorted)
        | _ -> ignore (Queue.peek queue));
        bump ()
      in
      run_txn body (fun () -> ())
    end
  done;
  md

let check name cond errors = if not cond then errors := name :: !errors

let run_soak sc =
  install sc.chaos;
  let map = Map.create () in
  (* Interval splitters at the per-worker partition boundaries: multi-domain
     soaks exercise interval-partitioned commit plans (cross-partition
     probes and endpoint reads still cross intervals); a single domain gets
     B = 1, the historical unsharded behaviour. *)
  let sorted =
    Sorted.create
      ~splitters:(List.init (max 0 (sc.domains - 1)) (fun i -> (i + 1) * sc.key_space))
      ()
  in
  let queue = Queue.create () in
  let counter = Tvar.make 0 in
  let doms =
    List.init sc.domains (fun index ->
        Domain.spawn (fun () ->
            worker_loop sc ~index ~map ~sorted ~queue ~counter))
  in
  let models = List.map Domain.join doms in
  uninstall ();
  let errors = ref [] in
  let check name cond errors =
    check (soak_context sc ~section:"soak.final" ^ name) cond errors
  in
  List.iter
    (fun md -> List.iter (fun e -> errors := e :: !errors) md.m_errors)
    models;
  (* Map and sorted map: contents must equal the union of the per-worker
     models (partitions are disjoint). *)
  let union of_model =
    let u = Hashtbl.create 256 in
    List.iter
      (fun md -> Hashtbl.iter (fun k v -> Hashtbl.replace u k v) (of_model md))
      models;
    u
  in
  let expect_map = union (fun md -> md.m_map) in
  let actual_map = Map.to_list map in
  check "map size vs model"
    (List.length actual_map = Hashtbl.length expect_map)
    errors;
  List.iter
    (fun (k, v) ->
      check
        (Printf.sprintf "map binding %d agrees with model" k)
        (Hashtbl.find_opt expect_map k = Some v)
        errors)
    actual_map;
  let expect_sorted = union (fun md -> md.m_sorted) in
  let actual_sorted = Sorted.to_list sorted in
  check "sorted size vs model"
    (List.length actual_sorted = Hashtbl.length expect_sorted)
    errors;
  List.iter
    (fun (k, v) ->
      check
        (Printf.sprintf "sorted binding %d agrees with model" k)
        (Hashtbl.find_opt expect_sorted k = Some v)
        errors)
    actual_sorted;
  check "sorted iteration ordered"
    (let rec ordered = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && ordered rest
       | _ -> true
     in
     ordered actual_sorted)
    errors;
  (* Queue conservation: every token enqueued-and-committed is either in a
     committed dequeue or still in the queue, exactly once. *)
  let remaining = ref [] in
  let rec drain () =
    match Queue.poll queue with
    | Some tok ->
        remaining := tok :: !remaining;
        drain ()
    | None -> ()
  in
  drain ();
  let enq = List.concat_map (fun md -> md.m_enq) models in
  let deq = List.concat_map (fun md -> md.m_deq) models in
  let out = deq @ !remaining in
  check "queue token conservation (count)"
    (List.length enq = List.length out)
    errors;
  let module IS = Set.Make (Int) in
  let enq_set = IS.of_list enq in
  check "queue tokens unique" (IS.cardinal enq_set = List.length enq) errors;
  check "queue no duplicated delivery"
    (IS.cardinal (IS.of_list out) = List.length out)
    errors;
  check "queue no invented tokens"
    (List.for_all (fun t -> IS.mem t enq_set) out)
    errors;
  (* Counter: one increment per committed worker transaction. *)
  let committed = List.fold_left (fun a md -> a + md.m_committed) 0 models in
  check "counter equals committed transactions"
    (Tvar.get counter = committed)
    errors;
  (* Leak probes: no semantic lock survives its transaction, no commit
     region is held once all domains are quiescent. *)
  check "no leaked map locks" (Map.outstanding_locks map = 0) errors;
  check "no leaked sorted-map locks" (Sorted.outstanding_locks sorted = 0) errors;
  check "no leaked queue locks" (Queue.outstanding_locks queue = 0) errors;
  check "no held commit regions" (Stm.regions_held () = 0) errors;
  let injections =
    ( Atomic.get injected_conflicts,
      Atomic.get injected_remote_aborts,
      Atomic.get injected_handler_faults,
      Atomic.get injected_delays )
  in
  let fingerprint =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "m%d=%d;" k v))
      (List.sort compare actual_map);
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "s%d=%d;" k v))
      actual_sorted;
    List.iter
      (fun t -> Buffer.add_string buf (Printf.sprintf "q%d;" t))
      (List.rev !remaining);
    let c, r, h, d = injections in
    Buffer.add_string buf
      (Printf.sprintf "counter=%d;inj=%d,%d,%d,%d" (Tvar.get counter) c r h d);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  if !errors <> [] then errors := repro_hint ~target:"chaos" sc.chaos :: !errors;
  {
    ok = !errors = [];
    errors = List.rev !errors;
    committed;
    injections;
    map_size = List.length actual_map;
    sorted_size = List.length actual_sorted;
    queue_remaining = List.length !remaining;
    fingerprint;
  }

(* ---------------- striped same-collection soak ---------------- *)

(* The same-collection scaling shape under injection: every worker hammers
   its own disjoint key partition of ONE shared striped map, with
   occasional cross-partition reads (inter-stripe key-lock traffic) and
   abstract-state reads (structure-stripe traffic).  Disjoint partitions
   make the union of per-worker models the linearizable outcome, exactly
   as in {!run_soak}; the point here is that commits into *different
   stripes of the same collection* — taking different commit-region
   subsets — still compose soundly with commits into the same stripe and
   with size/isEmpty readers serialised on the structure stripe. *)
let run_striped_soak ?(stripes = 16) sc =
  install sc.chaos;
  let map = Map.create ~stripes () in
  let counter = Tvar.make 0 in
  let worker index =
    register_worker sc.chaos ~index;
    let rng = stream_of_seed (sc.chaos.seed lxor 0x57f1) (index + 1) in
    let md =
      {
        m_map = Hashtbl.create 64;
        m_sorted = Hashtbl.create 1;
        m_enq = [];
        m_deq = [];
        m_committed = 0;
        m_errors = [];
      }
    in
    let ctx () = soak_context sc ~section:"striped.worker" in
    let run_txn body apply_model =
      match Stm.atomic ~policy:sc.policy body with
      | () ->
          md.m_committed <- md.m_committed + 1;
          apply_model ()
      | exception Stm.Handler_failure { committed; failures } ->
          List.iter
            (fun e ->
              match e with
              | Chaos_fault _ -> ()
              | e ->
                  md.m_errors <-
                    (ctx () ^ "unexpected handler failure: "
                    ^ Printexc.to_string e)
                    :: md.m_errors)
            failures;
          if committed then begin
            md.m_committed <- md.m_committed + 1;
            apply_model ()
          end
      | exception e ->
          md.m_errors <-
            (ctx () ^ "transaction raised: " ^ Printexc.to_string e)
            :: md.m_errors
    in
    let base = index * sc.key_space in
    let bump () = Tvar.modify counter succ in
    for i = 1 to sc.ops_per_domain do
      let k = base + rand_int rng sc.key_space in
      let dice = rand_int rng 100 in
      if dice < 45 then
        run_txn
          (fun () ->
            ignore (Map.put map k i);
            bump ())
          (fun () -> Hashtbl.replace md.m_map k i)
      else if dice < 60 then
        run_txn
          (fun () ->
            ignore (Map.remove map k);
            bump ())
          (fun () -> Hashtbl.remove md.m_map k)
      else if dice < 75 then begin
        (* Multi-key transaction: keys in different stripes, so the commit
           plan is a multi-region subset in rid order. *)
        let k2 = base + rand_int rng sc.key_space in
        run_txn
          (fun () ->
            ignore (Map.put map k (-i));
            ignore (Map.put map k2 i);
            bump ())
          (fun () ->
            Hashtbl.replace md.m_map k (-i);
            Hashtbl.replace md.m_map k2 i)
      end
      else if dice < 90 then
        (* Cross-partition read: key-lock traffic into foreign stripes. *)
        run_txn
          (fun () ->
            ignore (Map.find map (rand_int rng (sc.domains * sc.key_space)));
            bump ())
          (fun () -> ())
      else
        (* Abstract-state read: serialises on the structure stripe. *)
        run_txn
          (fun () ->
            if rand_int rng 2 = 0 then ignore (Map.size map)
            else ignore (Map.is_empty map);
            bump ())
          (fun () -> ())
    done;
    md
  in
  let doms =
    List.init sc.domains (fun index -> Domain.spawn (fun () -> worker index))
  in
  let models = List.map Domain.join doms in
  uninstall ();
  let errors = ref [] in
  let check name cond errors =
    check (soak_context sc ~section:"striped.final" ^ name) cond errors
  in
  List.iter
    (fun md -> List.iter (fun e -> errors := e :: !errors) md.m_errors)
    models;
  let expect = Hashtbl.create 256 in
  List.iter
    (fun md -> Hashtbl.iter (fun k v -> Hashtbl.replace expect k v) md.m_map)
    models;
  let actual = Map.to_list map in
  check "striped map size vs model"
    (List.length actual = Hashtbl.length expect)
    errors;
  List.iter
    (fun (k, v) ->
      check
        (Printf.sprintf "striped map binding %d agrees with model" k)
        (Hashtbl.find_opt expect k = Some v)
        errors)
    actual;
  let committed = List.fold_left (fun a md -> a + md.m_committed) 0 models in
  check "counter equals committed transactions"
    (Tvar.get counter = committed)
    errors;
  check "no leaked striped-map locks" (Map.outstanding_locks map = 0) errors;
  check "no held commit regions" (Stm.regions_held () = 0) errors;
  let injections =
    ( Atomic.get injected_conflicts,
      Atomic.get injected_remote_aborts,
      Atomic.get injected_handler_faults,
      Atomic.get injected_delays )
  in
  let fingerprint =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "m%d=%d;" k v))
      (List.sort compare actual);
    let c, r, h, d = injections in
    Buffer.add_string buf
      (Printf.sprintf "counter=%d;inj=%d,%d,%d,%d" (Tvar.get counter) c r h d);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  if !errors <> [] then errors := repro_hint ~target:"chaos" sc.chaos :: !errors;
  {
    ok = !errors = [];
    errors = List.rev !errors;
    committed;
    injections;
    map_size = List.length actual;
    sorted_size = 0;
    queue_remaining = 0;
    fingerprint;
  }

(* ---------------- derived-collection soak ---------------- *)

module Dset = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module Dbag = Txcoll.Host.Bag (Txcoll.Host.Int_hashed)
module Dpq = Txcoll.Host.Priority_queue (Txcoll.Host.Int_ordered)
module Dcounter = Txcoll.Host.Counter

(* Per-worker oracle for the spec-derived classes.  Set and bag keys are
   partitioned per worker (union of models = linearizable outcome);
   priority-queue tokens are globally unique, so the drain is checked as
   a multiset equation; the counter is order-insensitive, so the sum of
   per-worker committed deltas is exact. *)
type derived_model = {
  dm_set : (int, unit) Hashtbl.t;
  dm_bag : (int, int) Hashtbl.t;
  mutable dm_pq : int list;
  mutable dm_count : int;
  mutable dm_committed : int;
  mutable dm_errors : string list;
}

(* Soak the {!Txcoll.Derive}-generated classes (Set, Bag, PriorityQueue,
   Counter) under the same fault injection and oracle discipline as
   [run_soak]: every worker records the effects of each transaction iff
   it committed, and the final committed state must equal the union of
   the models. *)
let run_derived_soak sc =
  install sc.chaos;
  let set = Dset.create () in
  let bag = Dbag.create () in
  let pq = Dpq.create () in
  let counter = Dcounter.create () in
  let worker index =
    register_worker sc.chaos ~index;
    let rng = stream_of_seed (sc.chaos.seed lxor 0xde51) (index + 1) in
    let md =
      {
        dm_set = Hashtbl.create 64;
        dm_bag = Hashtbl.create 64;
        dm_pq = [];
        dm_count = 0;
        dm_committed = 0;
        dm_errors = [];
      }
    in
    let ctx () = soak_context sc ~section:"derived.worker" in
    let run_txn body apply_model =
      match Stm.atomic ~policy:sc.policy body with
      | () ->
          md.dm_committed <- md.dm_committed + 1;
          apply_model ()
      | exception Stm.Handler_failure { committed; failures } ->
          List.iter
            (fun e ->
              match e with
              | Chaos_fault _ -> ()
              | e ->
                  md.dm_errors <-
                    (ctx () ^ "unexpected handler failure: "
                    ^ Printexc.to_string e)
                    :: md.dm_errors)
            failures;
          if committed then begin
            md.dm_committed <- md.dm_committed + 1;
            apply_model ()
          end
      | exception e ->
          md.dm_errors <-
            (ctx () ^ "transaction raised: " ^ Printexc.to_string e)
            :: md.dm_errors
    in
    let base = index * sc.key_space in
    let seq = ref 0 in
    for _i = 1 to sc.ops_per_domain do
      let k = base + rand_int rng sc.key_space in
      let dice = rand_int rng 100 in
      if dice < 20 then
        run_txn
          (fun () -> ignore (Dset.add set k))
          (fun () -> Hashtbl.replace md.dm_set k ())
      else if dice < 32 then
        run_txn
          (fun () -> ignore (Dset.remove set k))
          (fun () -> Hashtbl.remove md.dm_set k)
      else if dice < 47 then
        run_txn
          (fun () -> Dbag.add bag k)
          (fun () ->
            Hashtbl.replace md.dm_bag k
              (Option.value (Hashtbl.find_opt md.dm_bag k) ~default:0 + 1))
      else if dice < 57 then begin
        (* [remove_one]'s outcome is decided inside the transaction (the
           count read holds the key lock), so capture the committed
           attempt's answer through a ref the retry loop overwrites. *)
        let removed = ref false in
        run_txn
          (fun () -> removed := Dbag.remove_one bag k)
          (fun () ->
            if !removed then
              match Hashtbl.find_opt md.dm_bag k with
              | Some 1 | None -> Hashtbl.remove md.dm_bag k
              | Some m -> Hashtbl.replace md.dm_bag k (m - 1))
      end
      else if dice < 65 then begin
        incr seq;
        let token = (index * 1_000_000) + !seq in
        run_txn
          (fun () -> Dpq.insert pq token)
          (fun () -> md.dm_pq <- token :: md.dm_pq)
      end
      else if dice < 80 then
        (* Cross-partition reads: key-lock traffic into foreign stripes
           of both keyed tables. *)
        run_txn
          (fun () ->
            let probe = rand_int rng (sc.domains * sc.key_space) in
            ignore (Dset.mem set probe);
            ignore (Dbag.count bag probe))
          (fun () -> ())
      else if dice < 90 then begin
        let d = 1 + rand_int rng 3 in
        run_txn
          (fun () -> Dcounter.add counter d)
          (fun () -> md.dm_count <- md.dm_count + d)
      end
      else
        (* Abstract-state reads: serialise on the structure regions. *)
        run_txn
          (fun () ->
            if rand_int rng 2 = 0 then ignore (Dset.size set)
            else begin
              ignore (Dset.is_empty set);
              ignore (Dbag.size bag)
            end)
          (fun () -> ())
    done;
    md
  in
  let doms =
    List.init sc.domains (fun index -> Domain.spawn (fun () -> worker index))
  in
  let models = List.map Domain.join doms in
  uninstall ();
  let errors = ref [] in
  let check name cond errors =
    check (soak_context sc ~section:"derived.final" ^ name) cond errors
  in
  List.iter
    (fun md -> List.iter (fun e -> errors := e :: !errors) md.dm_errors)
    models;
  (* Set: union of the disjoint per-worker presence models. *)
  let expect_set = Hashtbl.create 256 in
  List.iter
    (fun md -> Hashtbl.iter (fun k () -> Hashtbl.replace expect_set k ()) md.dm_set)
    models;
  let actual_set = List.sort compare (Dset.to_list set) in
  check "derived set size vs model"
    (List.length actual_set = Hashtbl.length expect_set)
    errors;
  List.iter
    (fun k ->
      check
        (Printf.sprintf "derived set member %d agrees with model" k)
        (Hashtbl.mem expect_set k) errors)
    actual_set;
  (* Bag: union of the disjoint per-worker multiplicity models. *)
  let expect_bag = Hashtbl.create 256 in
  List.iter
    (fun md -> Hashtbl.iter (fun k m -> Hashtbl.replace expect_bag k m) md.dm_bag)
    models;
  let actual_bag = List.sort compare (Dbag.to_list bag) in
  check "derived bag distinct size vs model"
    (List.length actual_bag = Hashtbl.length expect_bag)
    errors;
  List.iter
    (fun (k, m) ->
      check
        (Printf.sprintf "derived bag multiplicity of %d agrees with model" k)
        (Hashtbl.find_opt expect_bag k = Some m)
        errors)
    actual_bag;
  (* Counter: order-insensitive sum of committed deltas. *)
  let expect_count = List.fold_left (fun a md -> a + md.dm_count) 0 models in
  check "derived counter equals committed deltas"
    (Dcounter.get counter = expect_count)
    errors;
  (* Priority queue: draining yields every committed token in ascending
     order (tokens are globally unique, so sorted lists compare as
     multisets). *)
  let drained = ref [] in
  let rec drain () =
    match Dpq.poll_min pq with
    | None -> ()
    | Some p ->
        drained := p :: !drained;
        drain ()
  in
  drain ();
  let drained = List.rev !drained in
  let expect_pq =
    List.sort compare (List.concat_map (fun md -> md.dm_pq) models)
  in
  check "derived pq drains every committed insert in order"
    (drained = expect_pq) errors;
  check "derived pq empty after drain" (Dpq.is_empty pq) errors;
  (* Leak probes. *)
  check "no leaked derived-set locks" (Dset.outstanding_locks set = 0) errors;
  check "no leaked derived-bag locks" (Dbag.outstanding_locks bag = 0) errors;
  check "no leaked derived-pq locks" (Dpq.outstanding_locks pq = 0) errors;
  check "no leaked derived-counter locks"
    (Dcounter.outstanding_locks counter = 0)
    errors;
  check "no held commit regions" (Stm.regions_held () = 0) errors;
  let committed = List.fold_left (fun a md -> a + md.dm_committed) 0 models in
  let injections =
    ( Atomic.get injected_conflicts,
      Atomic.get injected_remote_aborts,
      Atomic.get injected_handler_faults,
      Atomic.get injected_delays )
  in
  let fingerprint =
    let buf = Buffer.create 1024 in
    List.iter (fun k -> Buffer.add_string buf (Printf.sprintf "s%d;" k)) actual_set;
    List.iter
      (fun (k, m) -> Buffer.add_string buf (Printf.sprintf "b%d=%d;" k m))
      actual_bag;
    List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "q%d;" p)) drained;
    let c, r, h, d = injections in
    Buffer.add_string buf
      (Printf.sprintf "counter=%d;inj=%d,%d,%d,%d" expect_count c r h d);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  if !errors <> [] then errors := repro_hint ~target:"chaos" sc.chaos :: !errors;
  {
    ok = !errors = [];
    errors = List.rev !errors;
    committed;
    injections;
    map_size = List.length actual_set;
    sorted_size = List.length actual_bag;
    queue_remaining = 0;
    fingerprint;
  }

(* ---------------- snapshot-reader soak ---------------- *)

(* Prefix-consistency soak for the multi-version snapshot mode: writer
   domains run under injection and only ever commit *mirror* transactions
   — the same (key, value) written to the hash map AND the sorted map in
   one atomic block (or removed from both), plus a tvar pair kept equal —
   while a dedicated reader domain loops [Stm.snapshot] sections
   concurrently and checks, inside every single snapshot:

   - the mirror invariant: [Map.find k = Sorted.find k] for every key of
     the shared space (a torn multi-collection read breaks it, because no
     committed prefix ever has the two collections disagreeing);
   - structural consistency of each collection: the number of bindings
     seen by a full fold equals [size] (the struct chain and the shard
     chains must come from the same committed cut, across every stripe
     and interval boundary);
   - ordered iteration: the sorted map's snapshot fold is strictly
     ascending across interval boundaries;
   - the tvar pair is equal and re-reads are pinned (repeatable).

   Chaos events fire only inside [Stm.atomic] attempts, so injection
   stresses the writers (including their commit-time version
   publication) while the reader stays abort-free by construction. *)

type snapshot_soak_report = {
  sn_ok : bool;
  sn_errors : string list;
  sn_snapshots : int;  (* snapshot sections the reader completed *)
  sn_writer_commits : int;
  sn_injections : int * int * int * int;
}

let run_snapshot_soak sc =
  install sc.chaos;
  let map = Map.create ~stripes:8 () in
  let sorted =
    Sorted.create
      ~splitters:
        (List.init (max 0 (sc.domains - 1)) (fun i -> (i + 1) * sc.key_space))
      ()
  in
  let pair_a = Tvar.make 0 and pair_b = Tvar.make 0 in
  let stop = Atomic.make false in
  let key_count = sc.domains * sc.key_space in
  let reader () =
    let errors = ref [] in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          errors :=
            (soak_context sc ~section:"snapshot.reader" ^ s) :: !errors)
        fmt
    in
    let snapshots = ref 0 in
    while not (Atomic.get stop) do
      Stm.snapshot (fun () ->
          incr snapshots;
          (* Tvar pair: equal in every committed prefix, and pinned. *)
          let a = Tvar.get pair_a and b = Tvar.get pair_b in
          if a <> b then fail "torn tvar pair: a=%d b=%d" a b;
          if Tvar.get pair_a <> a then fail "snapshot tvar read not pinned";
          (* Mirror invariant across the two collections. *)
          for k = 0 to key_count - 1 do
            let mv = Map.find map k and sv = Sorted.find sorted k in
            if mv <> sv then
              fail "torn mirror at key %d: map=%s sorted=%s" k
                (match mv with Some v -> string_of_int v | None -> "-")
                (match sv with Some v -> string_of_int v | None -> "-")
          done;
          (* Struct/shard cut consistency: fold count = size, per
             collection, across all stripes / intervals. *)
          let mc = Map.fold (fun _ _ n -> n + 1) map 0 in
          let ms = Map.size map in
          if mc <> ms then fail "map fold=%d disagrees with size=%d" mc ms;
          let sc' = Sorted.fold (fun _ _ n -> n + 1) sorted 0 in
          let ss = Sorted.size sorted in
          if sc' <> ss then fail "sorted fold=%d disagrees with size=%d" sc' ss;
          (* Ordered iteration across interval boundaries. *)
          let prev = ref min_int in
          Sorted.iter
            (fun k _ ->
              if k <= !prev then fail "sorted fold not ascending at %d" k;
              prev := k)
            sorted)
    done;
    (!snapshots, List.rev !errors)
  in
  let writer index =
    register_worker sc.chaos ~index;
    let rng = stream_of_seed (sc.chaos.seed lxor 0x5a9) (index + 1) in
    let committed = ref 0 in
    let errs = ref [] in
    let base = index * sc.key_space in
    let ctx () = soak_context sc ~section:"snapshot.writer" in
    let run body =
      match Stm.atomic ~policy:sc.policy body with
      | () -> incr committed
      | exception Stm.Handler_failure { committed = c; failures } ->
          List.iter
            (fun e ->
              match e with
              | Chaos_fault _ -> ()
              | e ->
                  errs :=
                    (ctx () ^ "unexpected handler failure: "
                    ^ Printexc.to_string e)
                    :: !errs)
            failures;
          if c then incr committed
      | exception e ->
          errs := (ctx () ^ "writer raised: " ^ Printexc.to_string e) :: !errs
    in
    for i = 1 to sc.ops_per_domain do
      let k = base + rand_int rng sc.key_space in
      let dice = rand_int rng 100 in
      if dice < 60 then
        (* Mirror write: both collections get the same binding, atomically. *)
        run (fun () ->
            ignore (Map.put map k i);
            ignore (Sorted.put sorted k i))
      else if dice < 85 then
        run (fun () ->
            ignore (Map.remove map k);
            ignore (Sorted.remove sorted k))
      else
        (* Tvar pair: both cells move together. *)
        run (fun () ->
            let v = Tvar.get pair_a + 1 in
            Tvar.set pair_a v;
            Tvar.set pair_b v)
    done;
    (!committed, List.rev !errs)
  in
  let reader_dom = Domain.spawn reader in
  let writer_doms =
    List.init sc.domains (fun index -> Domain.spawn (fun () -> writer index))
  in
  let writer_results = List.map Domain.join writer_doms in
  Atomic.set stop true;
  let snapshots, reader_errors = Domain.join reader_dom in
  uninstall ();
  let errors = ref (List.rev reader_errors) in
  let check name cond errors =
    check (soak_context sc ~section:"snapshot.final" ^ name) cond errors
  in
  List.iter
    (fun (_, es) -> List.iter (fun e -> errors := e :: !errors) es)
    writer_results;
  (* Quiescent cross-check: the final committed states mirror exactly. *)
  let final_map = List.sort compare (Map.to_list map) in
  let final_sorted = Sorted.to_list sorted in
  check "final map and sorted-map contents agree" (final_map = final_sorted)
    errors;
  check "final tvar pair agrees" (Tvar.get pair_a = Tvar.get pair_b) errors;
  check "no leaked map locks" (Map.outstanding_locks map = 0) errors;
  check "no leaked sorted-map locks" (Sorted.outstanding_locks sorted = 0)
    errors;
  check "no held commit regions" (Stm.regions_held () = 0) errors;
  check "reader completed at least one snapshot" (snapshots > 0) errors;
  if !errors <> [] then errors := repro_hint ~target:"chaos" sc.chaos :: !errors;
  {
    sn_ok = !errors = [];
    sn_errors = List.rev !errors;
    sn_snapshots = snapshots;
    sn_writer_commits = List.fold_left (fun a (c, _) -> a + c) 0 writer_results;
    sn_injections =
      ( Atomic.get injected_conflicts,
        Atomic.get injected_remote_aborts,
        Atomic.get injected_handler_faults,
        Atomic.get injected_delays );
  }

let pp_snapshot_report ppf (r : snapshot_soak_report) =
  let c, ra, hf, d = r.sn_injections in
  Format.fprintf ppf
    "ok=%b snapshots=%d writer_commits=%d injected(conflict=%d remote=%d \
     handler=%d delay=%d)"
    r.sn_ok r.sn_snapshots r.sn_writer_commits c ra hf d;
  List.iter (fun e -> Format.fprintf ppf "@.  FAILED: %s" e) r.sn_errors

let pp_report ppf r =
  let c, ra, hf, d = r.injections in
  Format.fprintf ppf
    "ok=%b committed=%d injected(conflict=%d remote=%d handler=%d delay=%d) \
     map=%d sorted=%d queue=%d fp=%s"
    r.ok r.committed c ra hf d r.map_size r.sorted_size r.queue_remaining
    r.fingerprint;
  List.iter (fun e -> Format.fprintf ppf "@.  FAILED: %s" e) r.errors

(* ---------------- failover (kill/recover) soak ---------------- *)

(* Zero-lost-writes soak for the resilient places store: writer domains
   run mirror transactions — the same key and value written to the
   place-sharded hash map AND sorted map in one atomic block, including
   cross-place pairs — under chaos injection, while the controller kills
   a random master place mid-traffic and recovers it from its slave
   replica, several times, and a dedicated snapshot reader pins
   timestamps across the failovers.  A writer whose transaction touches a
   down place observes [Stm.Place_down] raised from the replication
   handler's prepare phase: the transaction had no effect, the oracle
   model is untouched, and the writer moves on (recovery is concurrent).
   A reader whose pin predates a promotion observes the same error and
   re-pins.  The final linearizability check is the union of the
   per-worker models against both collections — any committed write lost
   in a kill/recover cycle breaks it — plus replica/master agreement and
   the mode's replication-lag bound. *)

type failover_config = {
  fo_chaos : config;
  fo_policy : Stm.Contention.policy;
  fo_domains : int;
  fo_ops_per_domain : int;
  fo_places : int;
  fo_key_space : int;  (* TOTAL key space, interval-partitioned over places *)
  fo_mode : Places.mode;
  fo_kills : int;
}

let default_failover ?(policy = Stm.Contention.default) ?(domains = 2)
    ?(ops_per_domain = 1200) ?(places = 4) ?(key_space = 192) ?(kills = 3)
    ?(mode = Places.Eager) ~seed p =
  {
    fo_chaos = uniform ~seed p;
    fo_policy = policy;
    fo_domains = domains;
    fo_ops_per_domain = ops_per_domain;
    fo_places = places;
    fo_key_space = key_space;
    fo_mode = mode;
    fo_kills = kills;
  }

type failover_report = {
  fv_ok : bool;
  fv_errors : string list;
  fv_committed : int;
  fv_committed_after_failover : int;  (* commits after the last recovery *)
  fv_kills : int;
  fv_place_down : int;  (* writer transactions refused by a down place *)
  fv_snapshots : int;
  fv_snapshot_denials : int;  (* reader pins older than a promotion *)
  fv_max_lag : int;  (* lifetime replication-lag high-water mark *)
  fv_injections : int * int * int * int;
}

(* Operations each writer issues after the final recovery. *)
let failover_tail_ops = 16

let mode_name = function
  | Places.Eager -> "eager"
  | Places.Lazy _ -> "lazy"

let run_failover_soak fc =
  install fc.fo_chaos;
  let store =
    Places.create ~place_count:fc.fo_places ~key_space:fc.fo_key_space
      ~mode:fc.fo_mode ()
  in
  let context suffix =
    fail_context ~cm:fc.fo_policy fc.fo_chaos
      ~section:(Printf.sprintf "failover-%s.%s" (mode_name fc.fo_mode) suffix)
  in
  let stop = Atomic.make false in
  let ops_done = Atomic.make 0 in
  let after_failover = Atomic.make false in
  let committed_late = Atomic.make 0 in
  let place_down = Atomic.make 0 in
  let writer index =
    register_worker fc.fo_chaos ~index;
    let rng = stream_of_seed (fc.fo_chaos.seed lxor 0xfa11) (index + 1) in
    let model = Hashtbl.create 64 in
    let committed = ref 0 in
    let errs = ref [] in
    let ctx () = context "writer" in
    (* Worker [index] owns the keys congruent to [index] modulo the worker
       count: disjoint ownership keeps the union of models linearizable,
       and every worker's keys span every place, so traffic keeps flowing
       into live places while one is down. *)
    let own () =
      (rand_int rng (fc.fo_key_space / fc.fo_domains) * fc.fo_domains) + index
    in
    let run_txn body apply_model =
      match Stm.atomic ~policy:fc.fo_policy body with
      | () ->
          incr committed;
          if Atomic.get after_failover then Atomic.incr committed_late;
          apply_model ()
      | exception Stm.Place_down _ ->
          (* Refused strictly before the commit point: no effect, no model
             change.  Back off briefly; recovery is concurrent. *)
          Atomic.incr place_down;
          Unix.sleepf 0.0002
      | exception Stm.Handler_failure { committed = c; failures } ->
          List.iter
            (fun e ->
              match e with
              | Chaos_fault _ -> ()
              | e ->
                  errs :=
                    (ctx () ^ "unexpected handler failure: "
                    ^ Printexc.to_string e)
                    :: !errs)
            failures;
          if c then begin
            incr committed;
            if Atomic.get after_failover then Atomic.incr committed_late;
            apply_model ()
          end
      | exception e ->
          errs :=
            (ctx () ^ "transaction raised: " ^ Printexc.to_string e) :: !errs
    in
    let op i =
      let k = own () in
      let dice = rand_int rng 100 in
      if dice < 45 then
        run_txn
          (fun () ->
            ignore (Places.put store k i);
            ignore (Places.sorted_put store k i))
          (fun () -> Hashtbl.replace model k i)
      else if dice < 65 then
        run_txn
          (fun () ->
            ignore (Places.remove store k);
            ignore (Places.sorted_remove store k))
          (fun () -> Hashtbl.remove model k)
      else if dice < 85 then begin
        (* Cross-place pair: all four mirrors move in one commit, whose
           region plan spans both places — a kill landing between them
           must veto the whole transaction, never half of it. *)
        let k2 = own () in
        run_txn
          (fun () ->
            ignore (Places.put store k (-i));
            ignore (Places.sorted_put store k (-i));
            ignore (Places.put store k2 i);
            ignore (Places.sorted_put store k2 i))
          (fun () ->
            Hashtbl.replace model k (-i);
            Hashtbl.replace model k2 i)
      end
      else begin
        (* Committed read of an own key: must agree with the model and
           with its sorted mirror (captured in a cell so the check runs
           only on the committed attempt). *)
        let got = ref (None, None) in
        run_txn
          (fun () ->
            got := (Places.find store k, Places.sorted_find store k))
          (fun () ->
            let a, b = !got in
            if a <> b then
              errs :=
                (ctx () ^ Printf.sprintf "mirror torn at key %d" k) :: !errs;
            if a <> Hashtbl.find_opt model k then
              errs :=
                (ctx () ^ Printf.sprintf "read of own key %d disagrees" k)
                :: !errs)
      end;
      Atomic.incr ops_done
    in
    for i = 1 to fc.fo_ops_per_domain do
      op i
    done;
    (* [fo_ops_per_domain] is a floor.  The writer then waits for the
       controller's final recovery (its last kill threshold lies below the
       writers' total quota, so the recovery always comes) and issues a
       bounded tail.  "Commits after the last failover" thus checks that
       the recovered store takes commits, not that the quota outlasted the
       kill window; a store that stays down refuses the whole tail and
       fails the check. *)
    if fc.fo_kills > 0 then begin
      while not (Atomic.get after_failover) do
        Unix.sleepf 0.0002
      done;
      for i = 1 to failover_tail_ops do
        op (fc.fo_ops_per_domain + i)
      done
    end;
    (model, !committed, List.rev !errs)
  in
  let reader () =
    let errs = ref [] in
    let ctx () = context "reader" in
    let fail fmt =
      Printf.ksprintf (fun s -> errs := (ctx () ^ s) :: !errs) fmt
    in
    let snapshots = ref 0 and denials = ref 0 in
    while not (Atomic.get stop) do
      match
        Stm.snapshot (fun () ->
            (* One pinned timestamp across both collections and all
               places: the mirror invariant and the fold/size cut must
               hold even while a place is down (its frozen master still
               serves the pin) or freshly promoted. *)
            for k = 0 to fc.fo_key_space - 1 do
              let a = Places.find store k and b = Places.sorted_find store k in
              if a <> b then fail "snapshot mirror torn at key %d" k
            done;
            let n = Places.fold (fun _ _ n -> n + 1) store 0 in
            let s = Places.size store in
            if n <> s then fail "snapshot fold=%d disagrees with size=%d" n s;
            let prev = ref min_int in
            List.iter
              (fun (k, _) ->
                if k <= !prev then fail "snapshot sorted not ascending at %d" k;
                prev := k)
              (Places.sorted_to_list store))
      with
      | () -> incr snapshots
      | exception Stm.Place_down _ ->
          (* Pin predates a promotion: the history it needs died with the
             old master.  Re-pin and continue. *)
          incr denials;
          Unix.sleepf 0.0002
    done;
    (!snapshots, !denials, List.rev !errs)
  in
  let doms =
    List.init fc.fo_domains (fun index -> Domain.spawn (fun () -> writer index))
  in
  let reader_dom = Domain.spawn reader in
  (* Controller: kill a seeded-random place at evenly spaced progress
     thresholds, hold it down while traffic runs, then recover it from
     its slave.  The last threshold is below the total op count, so every
     kill lands mid-traffic. *)
  let total = fc.fo_domains * fc.fo_ops_per_domain in
  let ctl_rng = stream_of_seed (fc.fo_chaos.seed lxor 0xdeadf) 0 in
  let kills = ref 0 in
  for c = 1 to fc.fo_kills do
    let threshold = c * total / (fc.fo_kills + 1) in
    while Atomic.get ops_done < threshold do
      Unix.sleepf 0.0005
    done;
    let p = rand_int ctl_rng fc.fo_places in
    Places.kill store p;
    incr kills;
    Unix.sleepf 0.002;
    Places.recover store p;
    if c = fc.fo_kills then Atomic.set after_failover true
  done;
  let results = List.map Domain.join doms in
  Atomic.set stop true;
  let snapshots, denials, reader_errs = Domain.join reader_dom in
  uninstall ();
  let errors = ref [] in
  let check name cond errors =
    check (context "final" ^ name) cond errors
  in
  List.iter
    (fun (_, _, es) -> List.iter (fun e -> errors := e :: !errors) es)
    results;
  List.iter (fun e -> errors := e :: !errors) reader_errs;
  check "all places recovered"
    (List.for_all (Places.is_up store) (List.init fc.fo_places Fun.id))
    errors;
  (* Zero lost committed writes: through every kill/recover cycle, both
     collections hold exactly the union of the per-worker models. *)
  let expect = Hashtbl.create 256 in
  List.iter
    (fun (m, _, _) -> Hashtbl.iter (fun k v -> Hashtbl.replace expect k v) m)
    results;
  let actual = Places.to_list store in
  check "map size vs model (no lost committed writes)"
    (List.length actual = Hashtbl.length expect)
    errors;
  List.iter
    (fun (k, v) ->
      check
        (Printf.sprintf "map binding %d agrees with model" k)
        (Hashtbl.find_opt expect k = Some v)
        errors)
    actual;
  let actual_sorted = Places.sorted_to_list store in
  check "sorted size vs model (no lost committed writes)"
    (List.length actual_sorted = Hashtbl.length expect)
    errors;
  List.iter
    (fun (k, v) ->
      check
        (Printf.sprintf "sorted binding %d agrees with model" k)
        (Hashtbl.find_opt expect k = Some v)
        errors)
    actual_sorted;
  check "sorted globally ascending"
    (let rec ordered = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && ordered rest
       | _ -> true
     in
     ordered actual_sorted)
    errors;
  (* Replication: replicas structurally agree with the promoted masters,
     the lag drains to zero, and the lifetime high-water respected the
     mode's bound. *)
  check "replicas agree with masters" (Places.replica_agrees store) errors;
  check "replication lag drained" (Places.replication_lag store = 0) errors;
  let bound = match Places.lag_bound store with None -> 0 | Some b -> b in
  let max_lag = Places.max_lag_observed store in
  check
    (Printf.sprintf "replication lag bounded (observed %d, bound %d)" max_lag
       bound)
    (max_lag <= bound)
    errors;
  (* Leak probes and liveness through failover. *)
  check "no leaked place locks" (Places.outstanding_locks store = 0) errors;
  check "no held commit regions" (Stm.regions_held () = 0) errors;
  check "kill/recover cycles executed" (!kills = fc.fo_kills) errors;
  let committed = List.fold_left (fun a (_, c, _) -> a + c) 0 results in
  check "writers committed transactions" (committed > 0) errors;
  (* With [fo_kills = 0] the soak degrades to a kill-free baseline run
     (used for the before/after comparison); there is no "after". *)
  check "commits after the last failover"
    (fc.fo_kills = 0 || Atomic.get committed_late > 0)
    errors;
  check "reader completed snapshots" (snapshots > 0) errors;
  Places.close store;
  if !errors <> [] then
    errors := repro_hint ~target:"failover" fc.fo_chaos :: !errors;
  {
    fv_ok = !errors = [];
    fv_errors = List.rev !errors;
    fv_committed = committed;
    fv_committed_after_failover = Atomic.get committed_late;
    fv_kills = !kills;
    fv_place_down = Atomic.get place_down;
    fv_snapshots = snapshots;
    fv_snapshot_denials = denials;
    fv_max_lag = max_lag;
    fv_injections =
      ( Atomic.get injected_conflicts,
        Atomic.get injected_remote_aborts,
        Atomic.get injected_handler_faults,
        Atomic.get injected_delays );
  }

let pp_failover_report ppf (r : failover_report) =
  let c, ra, hf, d = r.fv_injections in
  Format.fprintf ppf
    "ok=%b committed=%d after_failover=%d kills=%d place_down=%d snapshots=%d \
     denials=%d max_lag=%d injected(conflict=%d remote=%d handler=%d delay=%d)"
    r.fv_ok r.fv_committed r.fv_committed_after_failover r.fv_kills
    r.fv_place_down r.fv_snapshots r.fv_snapshot_denials r.fv_max_lag c ra hf d;
  List.iter (fun e -> Format.fprintf ppf "@.  FAILED: %s" e) r.fv_errors
