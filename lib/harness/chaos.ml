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

   Every soak runs through one driver.  Worker domains issue the soak's op
   mix through one [txn], and each records the effects of the
   transactions it saw commit in a model of its own: one
   {!Commute_spec.state} per collection, the form {!Commit_order} models
   every class in.  A map binds key to value, a set member to 1, a bag,
   priority queue or queue element to multiplicity, a counter 0 to its
   sum.  Workers own disjoint keys, so the union of their models is the
   linearizable outcome; shared tokens (queue and priority-queue
   elements, counter deltas) sum over the workers, so a duplicated or
   invented delivery shows as a count that does not match.  One final
   check per collection compares its committed contents with the model,
   its size and emptiness with its contents, its order where the class is
   ordered, and its lock tables with zero; a snapshot reader checks the
   same shape inside every [Stm.snapshot] section.  On a single domain the
   whole schedule is deterministic: same seed, same injection counts,
   same final contents ([report.fingerprint]). *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module IntMap = Commute_spec.IntMap
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Queue = Txcoll.Host.Queue
module Dset = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module Dbag = Txcoll.Host.Bag (Txcoll.Host.Int_hashed)
module Dpq = Txcoll.Host.Priority_queue (Txcoll.Host.Int_ordered)
module Dcounter = Txcoll.Host.Counter

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
   that produced it and the most recent injection the reporting domain's
   own stream fired ([soak_context]) — plus, once per failing report, the
   one command that replays the exact schedule.  The injection site is
   tracked per-domain so a worker's failure names its own last fault, not
   another domain's. *)

let last_injection_key : string ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref "none")

let note_injection site = Domain.DLS.get last_injection_key := site
let last_injection () = !(Domain.DLS.get last_injection_key)

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

(* ---------------- the soak driver ---------------- *)

type soak_config = {
  chaos : config;
  domains : int;
  ops_per_domain : int;
  key_space : int;  (* per-worker partition width *)
}

let default_soak ?(domains = 2) ?(ops_per_domain = 1500) ?(key_space = 64)
    ~seed p =
  { chaos = uniform ~seed p; domains; ops_per_domain; key_space }

(* Failure-message prefix of a soak. *)
let soak_context sc ~section =
  Printf.sprintf "[seed=%d section=%s last_injection=%s] " sc.chaos.seed
    section (last_injection ())

type report = {
  ok : bool;
  errors : string list;
  committed : int;  (* transactions the workers saw commit *)
  injections : int * int * int * int;
      (* conflicts, remote aborts, handler faults, delays *)
  counts : (string * int) list;
      (* each collection's final entry count, then the soak's own tallies
         (snapshots, kills, ...) *)
  fingerprint : string;
}

let pp_report ppf r =
  let c, ra, hf, d = r.injections in
  Format.fprintf ppf
    "ok=%b committed=%d injected(conflict=%d remote=%d handler=%d delay=%d)"
    r.ok r.committed c ra hf d;
  List.iter (fun (name, n) -> Format.fprintf ppf " %s=%d" name n) r.counts;
  Format.fprintf ppf " fp=%s" r.fingerprint;
  List.iter (fun e -> Format.fprintf ppf "@.  FAILED: %s" e) r.errors

(* A collection under soak, as the checks see it.  [contents] lists its
   committed contents as state bindings in the class's own order (a queue
   drains).  In a [multiset] the values are multiplicities, summed per
   element, and [size] counts them all; otherwise each key is listed once
   and [size] counts keys. *)
type coll = {
  name : string;
  contents : unit -> (int * int) list;
  multiset : bool;
  ordered : bool;
  size : (unit -> int) option;
  is_empty : (unit -> bool) option;
  locks : unit -> int;  (* semantic locks held *)
}

let coll ?(multiset = false) ?(ordered = false) ?size ?is_empty
    ?(locks = fun () -> 0) name contents =
  { name; contents; multiset; ordered; size; is_empty; locks }

let map_coll m =
  coll "map"
    (fun () -> Map.to_list m)
    ~size:(fun () -> Map.size m)
    ~is_empty:(fun () -> Map.is_empty m)
    ~locks:(fun () -> Map.outstanding_locks m)

let sorted_coll s =
  coll "sorted" ~ordered:true
    (fun () -> Sorted.to_list s)
    ~size:(fun () -> Sorted.size s)
    ~is_empty:(fun () -> Sorted.is_empty s)
    ~locks:(fun () -> Sorted.outstanding_locks s)

let tvar_coll name v = coll name ~multiset:true (fun () -> [ (0, Tvar.get v) ])

let drain poll q =
  let rec go acc =
    match poll q with Some x -> go ((x, 1) :: acc) | None -> List.rev acc
  in
  go []

let show = function Some v -> string_of_int v | None -> "-"

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
  | _ -> true

(* Read [c]'s size and emptiness, then its contents (a drain comes last),
   and [fail] where they disagree or an ordered class lists its keys out
   of order.  Returns the contents and their entry count. *)
let shape fail c =
  let size = Option.map (fun f -> f ()) c.size in
  let empty = Option.map (fun f -> f ()) c.is_empty in
  let l = c.contents () in
  let n =
    if c.multiset then List.fold_left (fun n (_, m) -> n + m) 0 l
    else List.length l
  in
  let failf fmt = Printf.ksprintf fail ("%s " ^^ fmt) c.name in
  Option.iter
    (fun s -> if s <> n then failf "size=%d with %d entries" s n)
    size;
  Option.iter
    (fun e -> if e <> (n = 0) then failf "isEmpty=%b with %d entries" e n)
    empty;
  if c.ordered && not (ascending l) then failf "iteration not ascending";
  (l, n)

(* Two collections written in the same transactions agree on every key. *)
let mirror fail ~keys find_a find_b =
  for k = 0 to keys - 1 do
    let a = find_a k and b = find_b k in
    if a <> b then
      fail
        (Printf.sprintf "torn mirror at key %d: map=%s sorted=%s" k (show a)
           (show b))
  done

type worker = {
  sc : soak_config;
  section : string;
  index : int;
  rng : int64 ref;  (* the op mix's draws, apart from the injection stream *)
  model : Commute_spec.state array;  (* one per collection, in order *)
  mutable committed : int;
  mutable refused : int;  (* transactions a down place refused *)
  mutable errors : string list;
}

let error w msg =
  w.errors <- (soak_context w.sc ~section:w.section ^ msg) :: w.errors

(* Model updates, [c] being the collection's position in the soak's list. *)
let bind w c k v = w.model.(c) <- IntMap.add k v w.model.(c)
let unbind w c k = w.model.(c) <- IntMap.remove k w.model.(c)
let bump w c k d = w.model.(c) <- Commit_order.bump k d w.model.(c)

(* A key of worker [w]'s own partition. *)
let own w = (w.index * w.sc.key_space) + rand_int w.rng w.sc.key_space

(* Run [body] as one transaction.  If it committed, count it and hand
   [effect] the committed attempt's result: a commit surfaced through
   [Handler_failure { committed = true }] loses the return value, so each
   attempt leaves its result in a cell.  A down place refuses a
   transaction before its commit point: no effect; back off briefly, as
   recovery is concurrent. *)
let txn w body effect =
  let got = ref None in
  let commit () =
    w.committed <- w.committed + 1;
    effect (Option.get !got)
  in
  match Stm.atomic (fun () -> got := Some (body ())) with
  | () -> commit ()
  | exception Stm.Handler_failure { committed; failures } ->
      List.iter
        (function
          | Chaos_fault _ -> ()
          | e ->
              error w ("unexpected handler failure: " ^ Printexc.to_string e))
        failures;
      if committed then commit ()
  | exception Stm.Place_down _ ->
      w.refused <- w.refused + 1;
      Unix.sleepf 0.0002
  | exception e -> error w ("transaction raised: " ^ Printexc.to_string e)

(* [txn] that also increments the shared tvar [counter], whose model (at
   position [c]) counts the worker's commits. *)
let counted counter c w body effect =
  let body () =
    let r = body () in
    Tvar.modify counter succ;
    r
  in
  txn w body (fun r ->
      effect r;
      bump w c 0 1)

(* Install injection and spawn [sc.domains] workers modelling [colls]:
   worker [index] runs [op w i] for i = 1 .. ops_per_domain, then
   [tail w].  [role] names the workers' failure section.  The result joins
   them. *)
let spawn_workers sc ~section ?(role = "worker") ~salt ~colls ?(tail = ignore)
    op =
  install sc.chaos;
  let work index =
    register_worker sc.chaos ~index;
    let w =
      {
        sc;
        section = section ^ "." ^ role;
        index;
        rng = stream_of_seed (sc.chaos.seed lxor salt) (index + 1);
        model = Array.make (List.length colls) IntMap.empty;
        committed = 0;
        refused = 0;
        errors = [];
      }
    in
    for i = 1 to sc.ops_per_domain do
      op w i
    done;
    tail w;
    w
  in
  let doms =
    List.init sc.domains (fun index -> Domain.spawn (fun () -> work index))
  in
  fun () -> List.map Domain.join doms

(* Spawn the snapshot reader: it loops [Stm.snapshot] sections until the
   returned function stops and joins it.  Chaos events fire only inside
   [Stm.atomic] attempts, so injection stresses the writers (their
   commit-time version publication included) while the reader stays
   abort-free.  Each section checks every collection's [shape] at its pin
   — a fold count or order torn across stripes, intervals or places
   breaks it — then the soak's own [check].  A pin older than a place's
   promotion is refused with [Place_down]: the history it needs died with
   the old master, so count a denial and re-pin.  A broken invariant
   fails in every later section too, so the reader keeps the first
   message of each failing check, named by its text up to the first
   digit, and counts the repeats. *)
let spawn_reader sc ~section ~colls check =
  let stop = Atomic.make false in
  let read () =
    let firsts = Hashtbl.create 8 and names = ref [] in
    let fail msg =
      let rec upto i =
        if i = String.length msg || (msg.[i] >= '0' && msg.[i] <= '9') then i
        else upto (i + 1)
      in
      let name = String.sub msg 0 (upto 0) in
      match Hashtbl.find_opt firsts name with
      | Some (_, repeats) -> incr repeats
      | None ->
          let first = soak_context sc ~section:(section ^ ".reader") ^ msg in
          Hashtbl.add firsts name (first, ref 0);
          names := name :: !names
    in
    let snapshots = ref 0 and denials = ref 0 in
    while not (Atomic.get stop) do
      match
        Stm.snapshot (fun () ->
            List.iter (fun c -> ignore (shape fail c)) colls;
            check fail)
      with
      | () -> incr snapshots
      | exception Stm.Place_down _ ->
          incr denials;
          Unix.sleepf 0.0002
    done;
    let summary name =
      match Hashtbl.find firsts name with
      | first, { contents = 0 } -> first
      | first, { contents = n } ->
          Printf.sprintf "%s (and %d more like it)" first n
    in
    (!snapshots, !denials, List.rev_map summary !names)
  in
  let dom = Domain.spawn read in
  fun () ->
    Atomic.set stop true;
    Domain.join dom

(* The sum of the workers' models of collection [c]: a union where they
   own disjoint keys, a sum of deltas for shared tokens. *)
let expected workers c =
  List.fold_left
    (fun acc w ->
      IntMap.union
        (fun _ a b -> if a + b = 0 then None else Some (a + b))
        acc w.model.(c))
    IntMap.empty workers

let diff ~model st =
  let d =
    IntMap.merge (fun _ m c -> if m = c then None else Some (m, c)) model st
  in
  match IntMap.min_binding d with
  | k, (m, c) ->
      Printf.sprintf "%d key(s) differ, first %d: committed %s, model %s"
        (IntMap.cardinal d) k (show c) (show m)
  | exception Not_found -> "no key differs"

(* Uninstall injection, then check every collection against the joined
   workers' models: its [shape], contents equal to the model, no leaked
   lock.  Then: no held commit region, some transaction committed, the
   reader completed snapshots, and the soak's own [checks].  A failed
   check reports its name.  [counts] are the soak's own tallies; [target]
   is the bench target that replays a failure. *)
let report sc ~section ?(target = "chaos") ~colls ?reader ?(counts = [])
    ?(checks = ignore) workers =
  uninstall ();
  let errors = ref [] in
  let fail msg =
    errors := (soak_context sc ~section:(section ^ ".final") ^ msg) :: !errors
  in
  List.iter (fun w -> errors := w.errors @ !errors) workers;
  Option.iter (fun (_, _, es) -> errors := List.rev_append es !errors) reader;
  let finals =
    List.mapi
      (fun i c ->
        let l, n = shape fail c in
        let add s (k, v) =
          if c.multiset then Commit_order.bump k v s else IntMap.add k v s
        in
        let st = List.fold_left add IntMap.empty l in
        if not (c.multiset || IntMap.cardinal st = n) then
          fail (c.name ^ " lists a key twice");
        let model = expected workers i in
        if not (IntMap.equal Int.equal st model) then
          fail (c.name ^ " contents differ from the model: " ^ diff ~model st);
        if c.locks () <> 0 then fail ("no leaked " ^ c.name ^ " locks");
        (c.name, l, n))
      colls
  in
  if Stm.regions_held () <> 0 then fail "no held commit regions";
  let committed = List.fold_left (fun a w -> a + w.committed) 0 workers in
  if committed = 0 then fail "workers committed transactions";
  let reads =
    match reader with
    | None -> []
    | Some (snapshots, denials, _) ->
        if snapshots = 0 then fail "reader completed snapshots";
        [ ("snapshots", snapshots); ("denials", denials) ]
  in
  checks fail;
  let injections =
    ( Atomic.get injected_conflicts,
      Atomic.get injected_remote_aborts,
      Atomic.get injected_handler_faults,
      Atomic.get injected_delays )
  in
  let fingerprint =
    let contents = List.map (fun (name, l, _) -> (name, l)) finals in
    Digest.to_hex (Digest.string (Marshal.to_string (contents, injections) []))
  in
  if !errors <> [] then errors := repro_hint ~target sc.chaos :: !errors;
  {
    ok = !errors = [];
    errors = List.rev !errors;
    committed;
    injections;
    counts = List.map (fun (name, _, n) -> (name, n)) finals @ reads @ counts;
    fingerprint;
  }

(* ---------------- the soaks ---------------- *)

(* Interval splitters at the per-worker partition boundaries: multi-domain
   soaks exercise interval-partitioned commit plans (cross-partition
   probes and endpoint reads still cross intervals); a single domain gets
   B = 1, the unsharded behaviour. *)
let partition_splitters sc =
  List.init (max 0 (sc.domains - 1)) (fun i -> (i + 1) * sc.key_space)

(* Map, sorted map and queue, plus a tvar counter bumped by every
   transaction.  Cross-partition probes and abstract-state reads (size,
   isEmpty, endpoints, peek) create inter-worker lock traffic and make
   their readers remote-abort victims; queue tokens are globally
   unique. *)
let run_soak sc =
  let map = Map.create () in
  let sorted = Sorted.create ~splitters:(partition_splitters sc) () in
  let queue = Queue.create () in
  let counter = Tvar.make 0 in
  let colls =
    [
      map_coll map;
      sorted_coll sorted;
      coll "queue" ~multiset:true
        (fun () -> drain Queue.poll queue)
        ~size:(fun () -> Queue.committed_length queue)
        ~locks:(fun () -> Queue.outstanding_locks queue);
      tvar_coll "counter" counter;
    ]
  in
  let m_map = 0 and m_sorted = 1 and m_queue = 2 and m_count = 3 in
  let op w i =
    let txn body effect = counted counter m_count w body effect in
    let dice = rand_int w.rng 100 in
    if dice < 30 then begin
      let k = own w in
      let probe = rand_int w.rng (sc.domains * sc.key_space) in
      if rand_int w.rng 3 < 2 then
        txn
          (fun () ->
            ignore (Map.put map k i);
            ignore (Map.find map probe))
          (fun () -> bind w m_map k i)
      else
        txn (fun () -> ignore (Map.remove map k)) (fun () -> unbind w m_map k)
    end
    else if dice < 55 then begin
      let k = own w in
      if rand_int w.rng 3 < 2 then
        txn
          (fun () ->
            ignore (Sorted.put sorted k i);
            if rand_int w.rng 4 = 0 then ignore (Sorted.first_key sorted))
          (fun () -> bind w m_sorted k i)
      else
        txn
          (fun () ->
            ignore (Sorted.remove sorted k);
            if rand_int w.rng 4 = 0 then ignore (Sorted.last_key sorted))
          (fun () -> unbind w m_sorted k)
    end
    else if dice < 80 then begin
      if rand_int w.rng 2 = 0 then begin
        let token = (w.index * 1_000_000) + i in
        txn (fun () -> Queue.put queue token) (fun () -> bump w m_queue token 1)
      end
      else
        txn
          (fun () -> Queue.poll queue)
          (Option.iter (fun token -> bump w m_queue token (-1)))
    end
    else if dice < 90 then begin
      (* Cross-collection transaction: two regions at commit. *)
      let k = own w in
      txn
        (fun () ->
          ignore (Map.put map k (-i));
          ignore (Sorted.put sorted k (-i)))
        (fun () ->
          bind w m_map k (-i);
          bind w m_sorted k (-i))
    end
    else
      txn
        (fun () ->
          match rand_int w.rng 4 with
          | 0 -> ignore (Map.size map)
          | 1 -> ignore (Map.is_empty map)
          | 2 -> ignore (Sorted.first_key sorted)
          | _ -> ignore (Queue.peek queue))
        ignore
  in
  report sc ~section:"soak" ~colls
    (spawn_workers sc ~section:"soak" ~salt:0x5afe ~colls op ())

(* The same-collection scaling shape: every worker writes its own key
   partition of ONE shared striped map, with multi-key transactions
   (multi-region commit plans in rid order), cross-partition reads
   (key-lock traffic into foreign stripes) and size/isEmpty reads
   (serialised on the structure stripe). *)
let run_striped_soak ?(stripes = 16) sc =
  let map = Map.create ~stripes () in
  let counter = Tvar.make 0 in
  let colls = [ map_coll map; tvar_coll "counter" counter ] in
  let m_map = 0 and m_count = 1 in
  let op w i =
    let txn body effect = counted counter m_count w body effect in
    let k = own w in
    let dice = rand_int w.rng 100 in
    if dice < 45 then
      txn (fun () -> ignore (Map.put map k i)) (fun () -> bind w m_map k i)
    else if dice < 60 then
      txn (fun () -> ignore (Map.remove map k)) (fun () -> unbind w m_map k)
    else if dice < 75 then begin
      let k2 = own w in
      txn
        (fun () ->
          ignore (Map.put map k (-i));
          ignore (Map.put map k2 i))
        (fun () ->
          bind w m_map k (-i);
          bind w m_map k2 i)
    end
    else if dice < 90 then
      txn
        (fun () ->
          ignore (Map.find map (rand_int w.rng (sc.domains * sc.key_space))))
        ignore
    else
      txn
        (fun () ->
          if rand_int w.rng 2 = 0 then ignore (Map.size map)
          else ignore (Map.is_empty map))
        ignore
  in
  report sc ~section:"striped" ~colls
    (spawn_workers sc ~section:"striped" ~salt:0x57f1 ~colls op ())

(* The {!Txcoll.Derive}-generated Set, Bag, PriorityQueue and Counter.
   Set and bag keys are per-worker; priority-queue tokens are globally
   unique and drain in ascending order; counter deltas sum. *)
let run_derived_soak sc =
  let set = Dset.create () in
  let bag = Dbag.create () in
  let pq = Dpq.create () in
  let counter = Dcounter.create () in
  let colls =
    [
      coll "set" ~multiset:true
        (fun () -> List.map (fun k -> (k, 1)) (Dset.to_list set))
        ~size:(fun () -> Dset.size set)
        ~is_empty:(fun () -> Dset.is_empty set)
        ~locks:(fun () -> Dset.outstanding_locks set);
      coll "bag" ~multiset:true
        (fun () -> Dbag.to_list bag)
        ~size:(fun () -> Dbag.size bag)
        ~is_empty:(fun () -> Dbag.is_empty bag)
        ~locks:(fun () -> Dbag.outstanding_locks bag);
      coll "pq" ~multiset:true ~ordered:true
        (fun () -> drain Dpq.poll_min pq)
        ~size:(fun () -> Dpq.size pq)
        ~is_empty:(fun () -> Dpq.is_empty pq)
        ~locks:(fun () -> Dpq.outstanding_locks pq);
      coll "counter" ~multiset:true
        (fun () -> [ (0, Dcounter.get counter) ])
        ~locks:(fun () -> Dcounter.outstanding_locks counter);
    ]
  in
  let m_set = 0 and m_bag = 1 and m_pq = 2 and m_count = 3 in
  let op w i =
    let k = own w in
    let dice = rand_int w.rng 100 in
    if dice < 20 then
      txn w (fun () -> Dset.add set k) (fun _ -> bind w m_set k 1)
    else if dice < 32 then
      txn w (fun () -> Dset.remove set k) (fun _ -> unbind w m_set k)
    else if dice < 47 then
      txn w (fun () -> Dbag.add bag k) (fun () -> bump w m_bag k 1)
    else if dice < 57 then
      (* [remove_one]'s outcome is decided inside the transaction (the
         count read holds the key lock). *)
      txn w
        (fun () -> Dbag.remove_one bag k)
        (fun removed -> if removed then bump w m_bag k (-1))
    else if dice < 65 then begin
      let token = (w.index * 1_000_000) + i in
      txn w (fun () -> Dpq.insert pq token) (fun () -> bump w m_pq token 1)
    end
    else if dice < 80 then
      txn w
        (fun () ->
          let probe = rand_int w.rng (sc.domains * sc.key_space) in
          ignore (Dset.mem set probe);
          ignore (Dbag.count bag probe))
        ignore
    else if dice < 90 then begin
      let d = 1 + rand_int w.rng 3 in
      txn w (fun () -> Dcounter.add counter d) (fun () -> bump w m_count 0 d)
    end
    else
      txn w
        (fun () ->
          if rand_int w.rng 2 = 0 then ignore (Dset.size set)
          else begin
            ignore (Dset.is_empty set);
            ignore (Dbag.size bag)
          end)
        ignore
  in
  report sc ~section:"derived" ~colls
    (spawn_workers sc ~section:"derived" ~salt:0xde51 ~colls op ())
    ~checks:(fun fail ->
      if not (Dpq.is_empty pq) then fail "pq not empty after its drain")

(* Mirror effects on a mirror soak's first two collections. *)
let mirror_bind w k v =
  bind w 0 k v;
  bind w 1 k v

let mirror_unbind w k =
  unbind w 0 k;
  unbind w 1 k

(* Prefix consistency of the multi-version snapshot mode: writers under
   injection commit only mirror transactions — the same binding put into
   (or removed from) the hash map AND the sorted map at once, or a tvar
   pair moved together — while the reader checks inside every snapshot
   that the two maps agree on every key (no committed prefix has them
   disagree), that the tvar pair is equal and its re-read pinned, and the
   shape of each collection. *)
let run_snapshot_soak sc =
  let map = Map.create ~stripes:8 () in
  let sorted = Sorted.create ~splitters:(partition_splitters sc) () in
  let pair_a = Tvar.make 0 and pair_b = Tvar.make 0 in
  let colls =
    [
      map_coll map;
      sorted_coll sorted;
      tvar_coll "pair_a" pair_a;
      tvar_coll "pair_b" pair_b;
    ]
  in
  let m_a = 2 and m_b = 3 in
  let op w i =
    let k = own w in
    let dice = rand_int w.rng 100 in
    if dice < 60 then
      txn w
        (fun () ->
          ignore (Map.put map k i);
          ignore (Sorted.put sorted k i))
        (fun () -> mirror_bind w k i)
    else if dice < 85 then
      txn w
        (fun () ->
          ignore (Map.remove map k);
          ignore (Sorted.remove sorted k))
        (fun () -> mirror_unbind w k)
    else
      txn w
        (fun () ->
          let v = Tvar.get pair_a + 1 in
          Tvar.set pair_a v;
          Tvar.set pair_b v)
        (fun () ->
          bump w m_a 0 1;
          bump w m_b 0 1)
  in
  let reader =
    spawn_reader sc ~section:"snapshot" ~colls (fun fail ->
        let a = Tvar.get pair_a and b = Tvar.get pair_b in
        if a <> b then fail (Printf.sprintf "torn tvar pair: a=%d b=%d" a b);
        if Tvar.get pair_a <> a then fail "snapshot tvar read not pinned";
        mirror fail ~keys:(sc.domains * sc.key_space) (Map.find map)
          (Sorted.find sorted))
  in
  let workers =
    spawn_workers sc ~section:"snapshot" ~role:"writer" ~salt:0x5a9 ~colls op
    ()
  in
  report sc ~section:"snapshot" ~colls ~reader:(reader ()) workers

(* ---------------- failover (kill/recover) soak ---------------- *)

(* Zero-lost-writes soak for the resilient places store: writers run
   mirror transactions over the place-sharded hash map and sorted map,
   cross-place pairs included, under injection, while a controller kills
   a random master place mid-traffic and recovers it from its slave
   replica, several times, and the snapshot reader pins timestamps across
   the failovers.  A transaction that touches a down place is refused
   with [Stm.Place_down] before its commit point.  Any committed write
   lost in a kill/recover cycle breaks the contents check; the soak also
   checks replica/master agreement and the mode's replication-lag
   bound. *)

type failover_config = {
  soak : soak_config;  (* key_space: per-writer congruence class size *)
  places : int;
  mode : Places.mode;
  kills : int;
}

(* [key_space] is the store's TOTAL key space, interval-partitioned over
   the places. *)
let default_failover ?(domains = 2) ?(ops_per_domain = 1200)
    ?(places = 4) ?(key_space = 192) ?(kills = 3) ?(mode = Places.Eager) ~seed
    p =
  {
    soak =
      default_soak ~domains ~ops_per_domain
        ~key_space:(key_space / domains) ~seed p;
    places;
    mode;
    kills;
  }

(* Operations each writer issues after the final recovery. *)
let failover_tail_ops = 16

let mode_name = function
  | Places.Eager -> "eager"
  | Places.Lazy _ -> "lazy"

let run_failover_soak fc =
  let sc = fc.soak in
  let keys = sc.domains * sc.key_space in
  let store =
    Places.create ~place_count:fc.places ~key_space:keys ~mode:fc.mode ()
  in
  let section = "failover-" ^ mode_name fc.mode in
  let colls =
    let locks () = Places.outstanding_locks store in
    [
      coll "map"
        (fun () -> Places.to_list store)
        ~size:(fun () -> Places.size store)
        ~locks;
      coll "sorted" ~ordered:true
        (fun () -> Places.sorted_to_list store)
        ~size:(fun () -> Places.sorted_size store)
        ~locks;
    ]
  in
  let ops_done = Atomic.make 0 in
  let after_failover = Atomic.make false in
  let committed_late = Atomic.make 0 in
  (* Writer [index] owns the keys congruent to [index] modulo the writer
     count: every writer's keys span every place, so traffic keeps flowing
     into live places while one is down. *)
  let op w i =
    let late = Atomic.get after_failover and before = w.committed in
    let own () = (rand_int w.rng sc.key_space * sc.domains) + w.index in
    let k = own () in
    let dice = rand_int w.rng 100 in
    if dice < 45 then
      txn w
        (fun () ->
          ignore (Places.put store k i);
          ignore (Places.sorted_put store k i))
        (fun () -> mirror_bind w k i)
    else if dice < 65 then
      txn w
        (fun () ->
          ignore (Places.remove store k);
          ignore (Places.sorted_remove store k))
        (fun () -> mirror_unbind w k)
    else if dice < 85 then begin
      (* Cross-place pair: all four mirrors move in one commit, whose
         region plan spans both places — a kill landing between them must
         veto the whole transaction, never half of it. *)
      let k2 = own () in
      txn w
        (fun () ->
          ignore (Places.put store k (-i));
          ignore (Places.sorted_put store k (-i));
          ignore (Places.put store k2 i);
          ignore (Places.sorted_put store k2 i))
        (fun () ->
          mirror_bind w k (-i);
          mirror_bind w k2 i)
    end
    else
      (* Committed read of an own key: agrees with its mirror and the
         model. *)
      txn w
        (fun () -> (Places.find store k, Places.sorted_find store k))
        (fun (a, b) ->
          if a <> b then error w (Printf.sprintf "mirror torn at key %d" k);
          if a <> IntMap.find_opt k w.model.(0) then
            error w (Printf.sprintf "read of own key %d disagrees" k));
    if late then
      ignore (Atomic.fetch_and_add committed_late (w.committed - before));
    Atomic.incr ops_done
  in
  (* [ops_per_domain] is a floor.  The writer then waits for the
     controller's final recovery (its last kill threshold lies below the
     writers' total quota, so the recovery always comes) and issues a
     bounded tail.  "Commits after the last failover" thus checks that the
     recovered store takes commits, not that the quota outlasted the kill
     window; a store that stays down refuses the whole tail. *)
  let tail w =
    if fc.kills > 0 then begin
      while not (Atomic.get after_failover) do
        Unix.sleepf 0.0002
      done;
      for i = 1 to failover_tail_ops do
        op w (sc.ops_per_domain + i)
      done
    end
  in
  let workers =
    spawn_workers sc ~section ~role:"writer" ~salt:0xfa11 ~colls ~tail op
  in
  let reader =
    spawn_reader sc ~section ~colls (fun fail ->
        mirror fail ~keys (Places.find store) (Places.sorted_find store))
  in
  (* Controller: kill a seeded-random place at evenly spaced progress
     thresholds, hold it down while traffic runs, then recover it from its
     slave.  The last threshold is below the total op count, so every kill
     lands mid-traffic. *)
  let total = sc.domains * sc.ops_per_domain in
  let ctl_rng = stream_of_seed (sc.chaos.seed lxor 0xdeadf) 0 in
  let kills = ref 0 in
  for c = 1 to fc.kills do
    let threshold = c * total / (fc.kills + 1) in
    while Atomic.get ops_done < threshold do
      Unix.sleepf 0.0005
    done;
    let p = rand_int ctl_rng fc.places in
    Places.kill store p;
    incr kills;
    Unix.sleepf 0.002;
    Places.recover store p;
    if c = fc.kills then Atomic.set after_failover true
  done;
  let workers = workers () in
  let reader = reader () in
  let max_lag = Places.max_lag_observed store in
  let r =
    report sc ~section ~target:"failover" ~colls ~reader workers
      ~counts:
        [
          ("after_failover", Atomic.get committed_late);
          ("kills", !kills);
          ("place_down", List.fold_left (fun a w -> a + w.refused) 0 workers);
          ("max_lag", max_lag);
        ]
      ~checks:(fun fail ->
        let check name ok = if not ok then fail name in
        check "all places recovered"
          (List.for_all (Places.is_up store) (List.init fc.places Fun.id));
        check "replicas agree with masters" (Places.replica_agrees store);
        check "replication lag drained" (Places.replication_lag store = 0);
        let bound = Option.value (Places.lag_bound store) ~default:0 in
        check
          (Printf.sprintf "replication lag bounded (observed %d, bound %d)"
             max_lag bound)
          (max_lag <= bound);
        check "kill/recover cycles executed" (!kills = fc.kills);
        (* With [kills = 0] the soak is a kill-free baseline run; there is
           no "after". *)
        check "commits after the last failover"
          (fc.kills = 0 || Atomic.get committed_late > 0))
  in
  Places.close store;
  r
