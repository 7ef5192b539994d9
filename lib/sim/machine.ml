(* Discrete-event simulator of a chip multiprocessor in the style of the
   paper's evaluation platform (§6.1): N single-issue CPUs (CPI 1.0 outside
   the memory system), private L1 caches, a shared bus with queuing, MESI
   snoopy coherence for lock-based execution and TCC-style continuous
   transactions (lazy versioning, commit-time broadcast, violations) for
   transactional execution.

   Each simulated thread is an OCaml-effects coroutine; the scheduler
   interprets its {!Ops} effects in global time order, charging cycles from
   the cache/bus model.  Simulation is deterministic: ties are broken by CPU
   index and all randomness in workloads must come from seeded generators. *)

open Ops

(* ------------------------------------------------------------------ *)
(* Transactional state (TCC)                                           *)

(* A transaction-local value, tagged with its key ([Tcc.Tm_ops.txn_local]). *)
type slot = Slot : 'a Type.Id.t * 'a -> slot

type frame = {
  depth : int; (* 0 = top level *)
  kind : [ `Top | `Closed | `Open ];
  mutable reads : (int, unit) Hashtbl.t; (* line -> () *)
  mutable writes : (int, int) Hashtbl.t; (* addr -> buffered value *)
  mutable commit_handlers : (unit -> unit) list; (* newest first *)
  mutable abort_handlers : (unit -> unit) list; (* newest first *)
  mutable local_aborts : (unit -> unit) list;
      (* open frames only: the part of [abort_handlers] the collection
         classes registered for their transaction-local values *)
  mutable locals : slot list; (* top and open frames only *)
}

let fresh_frame depth kind =
  {
    depth;
    kind;
    reads = Hashtbl.create 16;
    writes = Hashtbl.create 16;
    commit_handlers = [];
    abort_handlers = [];
    local_aborts = [];
    locals = [];
  }

type txn_state = {
  mutable frames : frame list; (* innermost first *)
  mutable epoch : int; (* globally unique id of the current top txn *)
  mutable violated : int option; (* pending rollback depth *)
  mutable retries : int;
}

(* ------------------------------------------------------------------ *)
(* CPUs and suspensions                                                *)

type _ req =
  | RLoad : int -> int req
  | RStore : (int * int) -> unit req
  | RCas : (int * int * int) -> bool req
  | RAlloc : int -> int req
  | RWork : int -> unit req
  | RMy_cpu : int req
  | RCritical : (int * int * (unit -> Obj.t)) -> Obj.t req
  | RToken_acquire : unit req
  | RToken_release : unit req
  | RCommit_broadcast : unit req
  | ROpen_broadcast : unit req

type susp = S : ('a, unit) Effect.Deep.continuation * 'a req -> susp

type cpu = {
  id : int;
  mutable time : int;
  cache : Cache.t;
  txn : txn_state;
  mutable susp : susp option;
  mutable blocked : bool; (* waiting for the commit token *)
  mutable finished : bool;
  mutable violations : int;
  mutable commits : int;
  mutable loads : int;
  mutable stores : int;
  mutable bus_wait : int;
  mutable token_wait : int;
}

type t = {
  cfg : Config.t;
  cpus : cpu array;
  mem : (int, int) Hashtbl.t;
  mutable alloc_next : int;
  mutable bus_free : int;
  mutable token_owner : int option;
  mutable token_waiters : int list; (* FIFO, oldest first *)
  mutable next_epoch : int;
  mutable running : int; (* cpu currently executing host code *)
}

type stats = {
  cycles : int;
  total_violations : int;
  total_commits : int;
  total_bus_wait : int; (* cycles spent queuing for the bus *)
  total_token_wait : int; (* cycles spent waiting for the commit token *)
  per_cpu_violations : int array;
  per_cpu_time : int array;
}

(* The machine executing right now; scheduler is single-host-threaded, so a
   plain ref is safe.  Coroutine-side helpers (Tcc, Tm_ops) use it. *)
let current : t option ref = ref None

let the_machine () =
  match !current with
  | Some m -> m
  | None -> invalid_arg "Sim.Machine: no simulation running"

let create ?(cfg = Config.default) ~n_cpus () =
  {
    cfg;
    cpus =
      Array.init n_cpus (fun id ->
          {
            id;
            time = 0;
            cache = Cache.create cfg;
            txn = { frames = []; epoch = 0; violated = None; retries = 0 };
            susp = None;
            blocked = false;
            finished = false;
            violations = 0;
            commits = 0;
            loads = 0;
            stores = 0;
            bus_wait = 0;
            token_wait = 0;
          });
    mem = Hashtbl.create 4096;
    alloc_next = 64; (* keep address 0.. free as a guard *)
    bus_free = 0;
    token_owner = None;
    token_waiters = [];
    next_epoch = 1;
    running = 0;
  }

let mem_read m a = Option.value ~default:0 (Hashtbl.find_opt m.mem a)
let mem_write m a v = Hashtbl.replace m.mem a v

let line_of m a = a / m.cfg.line_words

(* Line-aligned bump allocation of simulated memory. *)
let alloc_words m n =
  let lw = m.cfg.line_words in
  let base = (m.alloc_next + lw - 1) / lw * lw in
  m.alloc_next <- base + n;
  base

(* ------------------------------------------------------------------ *)
(* Bus and coherence timing                                            *)

(* Occupy the bus for [occ] cycles starting no earlier than [cpu.time];
   returns the completion time and charges queuing to the cpu. *)
let bus_transaction m cpu occ =
  let start = max cpu.time m.bus_free in
  cpu.bus_wait <- cpu.bus_wait + (start - cpu.time);
  m.bus_free <- start + occ;
  start + occ

let other_cpus m cpu = Array.to_seq m.cpus |> Seq.filter (fun c -> c.id <> cpu.id)

(* MESI load: returns cycles consumed (absolute completion handled by the
   caller via bus_transaction when a bus transaction is required). *)
let access m cpu a ~write =
  let cfg = m.cfg in
  let line = line_of m a in
  match Cache.find cpu.cache line with
  | Some w when (not write) || w.st = Cache.M || w.st = Cache.E ->
      Cache.touch cpu.cache w;
      if write then w.st <- Cache.M;
      cpu.time <- cpu.time + cfg.l1_hit
  | Some w ->
      (* Write hit on a Shared line: bus upgrade, invalidate other copies. *)
      let completion = bus_transaction m cpu 1 in
      cpu.time <- max (cpu.time + cfg.l1_hit + 1) completion;
      Seq.iter (fun c -> Cache.invalidate c.cache line) (other_cpus m cpu);
      Cache.touch cpu.cache w;
      w.st <- Cache.M
  | None ->
      let dirty_elsewhere =
        Seq.exists (fun c -> Cache.state c.cache line = Cache.M) (other_cpus m cpu)
      in
      let shared_elsewhere =
        Seq.exists
          (fun c -> Cache.state c.cache line <> Cache.I)
          (other_cpus m cpu)
      in
      let latency =
        if dirty_elsewhere then cfg.l2_hit + cfg.bus_per_line
        else if shared_elsewhere then cfg.l2_hit
        else cfg.mem_latency
      in
      let completion = bus_transaction m cpu cfg.bus_per_line in
      cpu.time <- max (cpu.time + latency) completion;
      if write then
        Seq.iter (fun c -> Cache.invalidate c.cache line) (other_cpus m cpu)
      else
        Seq.iter
          (fun c ->
            if Cache.state c.cache line = Cache.M then
              Cache.set_state c.cache line Cache.S)
          (other_cpus m cpu);
      let st =
        if write then Cache.M
        else if shared_elsewhere || dirty_elsewhere then Cache.S
        else Cache.E
      in
      (match Cache.insert cpu.cache line st with
      | Some (_, Cache.M) ->
          (* Writeback of the evicted dirty line. *)
          ignore (bus_transaction m cpu cfg.bus_per_line)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Transactional loads/stores                                          *)

let rec buffered_value frames a =
  match frames with
  | [] -> None
  | f :: rest -> (
      match Hashtbl.find_opt f.writes a with
      | Some v -> Some v
      | None -> buffered_value rest a)

let txn_load m cpu a =
  cpu.loads <- cpu.loads + 1;
  match buffered_value cpu.txn.frames a with
  | Some v ->
      cpu.time <- cpu.time + m.cfg.l1_hit;
      v
  | None ->
      access m cpu a ~write:false;
      (match cpu.txn.frames with
      | f :: _ -> Hashtbl.replace f.reads (line_of m a) ()
      | [] -> assert false);
      mem_read m a

let txn_store m cpu a v =
  cpu.stores <- cpu.stores + 1;
  match cpu.txn.frames with
  | f :: _ ->
      Hashtbl.replace f.writes a v;
      cpu.time <- cpu.time + m.cfg.l1_hit
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Violations                                                          *)

let unblock m c =
  if c.blocked then begin
    c.blocked <- false;
    m.token_waiters <- List.filter (fun id -> id <> c.id) m.token_waiters
  end

(* Mark [victim] for rollback to [depth] (keeping the outermost target if
   already marked). *)
let mark_violation m victim depth =
  if victim.txn.frames <> [] then begin
    (match victim.txn.violated with
    | Some d when d <= depth -> ()
    | _ -> victim.txn.violated <- Some depth);
    unblock m victim
  end

(* Broadcast the given write set: apply to memory, invalidate other caches,
   violate transactions whose read sets overlap. *)
let broadcast m cpu (writes : (int, int) Hashtbl.t) =
  let cfg = m.cfg in
  let lines = Hashtbl.create 8 in
  Hashtbl.iter
    (fun a v ->
      mem_write m a v;
      Hashtbl.replace lines (line_of m a) ())
    writes;
  let n_lines = Hashtbl.length lines in
  let occ = cfg.commit_base + (cfg.bus_per_line * n_lines) in
  let completion = bus_transaction m cpu occ in
  cpu.time <- max cpu.time completion;
  Hashtbl.iter
    (fun line () ->
      Seq.iter (fun c -> Cache.invalidate c.cache line) (other_cpus m cpu);
      ignore (Cache.insert cpu.cache line M))
    lines;
  Seq.iter
    (fun victim ->
      if victim.txn.frames <> [] then begin
        let conflict_depth = ref max_int in
        List.iter
          (fun f ->
            let hit =
              Hashtbl.fold (fun line () acc -> acc || Hashtbl.mem f.reads line) lines false
            in
            if hit && f.depth < !conflict_depth then conflict_depth := f.depth)
          victim.txn.frames;
        if !conflict_depth < max_int then mark_violation m victim !conflict_depth
      end)
    (other_cpus m cpu)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let start_body _m cpu body =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> cpu.finished <- true);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          let suspend (r : a req) =
            Some
              (fun (k : (a, unit) continuation) -> cpu.susp <- Some (S (k, r)))
          in
          match eff with
          | Load a -> suspend (RLoad a)
          | Store (a, v) -> suspend (RStore (a, v))
          | Cas (a, e, r) -> suspend (RCas (a, e, r))
          | Alloc n -> suspend (RAlloc n)
          | Work n -> suspend (RWork n)
          | My_cpu -> suspend RMy_cpu
          | Critical (r, c, f) -> suspend (RCritical (r, c, f))
          | Token_acquire -> suspend RToken_acquire
          | Token_release -> suspend RToken_release
          | Commit_broadcast -> suspend RCommit_broadcast
          | Open_broadcast -> suspend ROpen_broadcast
          | _ -> None);
    }
  in
  match_with body () handler

exception Stuck of string

(* Process one suspended request of [cpu]; resumes its continuation. *)
let rec process m cpu (S (k, req)) =
  cpu.susp <- None;
  m.running <- cpu.id;
  (* Deliver a pending violation at this effect boundary (never to the
     commit-token holder: it has passed its commit point).  The target depth
     is clamped to the current innermost frame: a closed child that merged
     since the violation was flagged leaves its reads in its parent. *)
  match cpu.txn.violated with
  | Some depth when m.token_owner <> Some cpu.id && cpu.txn.frames <> [] ->
      let depth = min depth (List.length cpu.txn.frames - 1) in
      cpu.txn.violated <- None;
      cpu.violations <- cpu.violations + 1;
      Effect.Deep.discontinue k (Rollback depth)
  | Some _ when cpu.txn.frames = [] ->
      cpu.txn.violated <- None;
      process_req m cpu (S (k, req))
  | _ -> process_req m cpu (S (k, req))

and process_req m cpu (S (k, req)) =
  (
      match req with
      | RLoad a ->
          let v =
            if cpu.txn.frames <> [] then txn_load m cpu a
            else begin
              cpu.loads <- cpu.loads + 1;
              access m cpu a ~write:false;
              mem_read m a
            end
          in
          Effect.Deep.continue k v
      | RStore (a, v) ->
          if cpu.txn.frames <> [] then txn_store m cpu a v
          else begin
            cpu.stores <- cpu.stores + 1;
            access m cpu a ~write:true;
            mem_write m a v
          end;
          Effect.Deep.continue k ()
      | RCas (a, expect, repl) ->
          let ok =
            if cpu.txn.frames <> [] then begin
              let v =
                match buffered_value cpu.txn.frames a with
                | Some v ->
                    cpu.time <- cpu.time + m.cfg.l1_hit;
                    v
                | None ->
                    access m cpu a ~write:false;
                    (match cpu.txn.frames with
                    | f :: _ -> Hashtbl.replace f.reads (line_of m a) ()
                    | [] -> assert false);
                    mem_read m a
              in
              if v = expect then begin
                txn_store m cpu a repl;
                true
              end
              else false
            end
            else begin
              access m cpu a ~write:true;
              let v = mem_read m a in
              if v = expect then begin
                mem_write m a repl;
                true
              end
              else false
            end
          in
          Effect.Deep.continue k ok
      | RAlloc n ->
          cpu.time <- cpu.time + 1;
          Effect.Deep.continue k (alloc_words m n)
      | RWork n ->
          cpu.time <- cpu.time + n;
          Effect.Deep.continue k ()
      | RMy_cpu -> Effect.Deep.continue k cpu.id
      | RCritical (_region, cost, f) ->
          (* One atomic machine step: the open-nested critical section on a
             collection's metadata.  Costs the base latency plus a bus slot. *)
          let completion = bus_transaction m cpu m.cfg.bus_per_line in
          cpu.time <- max (cpu.time + m.cfg.critical_base + cost) completion;
          let result = f () in
          Effect.Deep.continue k result
      | RToken_acquire -> (
          match m.token_owner with
          | None ->
              m.token_owner <- Some cpu.id;
              Effect.Deep.continue k ()
          | Some owner when owner = cpu.id -> Effect.Deep.continue k ()
          | Some _ ->
              (* Block: re-suspend on the same request until woken. *)
              cpu.susp <- Some (S (k, req));
              cpu.blocked <- true;
              if not (List.mem cpu.id m.token_waiters) then
                m.token_waiters <- m.token_waiters @ [ cpu.id ])
      | RToken_release ->
          if m.token_owner = Some cpu.id then m.token_owner <- None;
          (match m.token_waiters with
          | [] -> ()
          | w :: rest ->
              m.token_waiters <- rest;
              let waiter = m.cpus.(w) in
              waiter.blocked <- false;
              waiter.token_wait <- waiter.token_wait + max 0 (cpu.time - waiter.time);
              waiter.time <- max waiter.time cpu.time);
          Effect.Deep.continue k ()
      | RCommit_broadcast ->
          (match cpu.txn.frames with
          | [ top ] ->
              broadcast m cpu top.writes;
              cpu.commits <- cpu.commits + 1
          | _ -> raise (Stuck "commit broadcast with nested frames"));
          Effect.Deep.continue k ()
      | ROpen_broadcast ->
          (match cpu.txn.frames with
          | f :: _ when f.kind = `Open -> broadcast m cpu f.writes
          | _ -> raise (Stuck "open broadcast without open frame"));
          Effect.Deep.continue k ())

let runnable m =
  let best = ref None in
  Array.iter
    (fun c ->
      if (not c.finished) && (not c.blocked) && c.susp <> None then
        match !best with
        | Some b when b.time <= c.time -> ()
        | _ -> best := Some c)
    m.cpus;
  !best

(* Run [bodies.(i)] on CPU i until all complete; returns statistics. *)
let run m (bodies : (unit -> unit) array) =
  if Array.length bodies <> Array.length m.cpus then
    invalid_arg "Machine.run: one body per cpu";
  let prev = !current in
  current := Some m;
  Fun.protect
    ~finally:(fun () -> current := prev)
    (fun () ->
      Array.iteri
        (fun i body ->
          m.running <- i;
          start_body m m.cpus.(i) body)
        bodies;
      let rec loop () =
        match runnable m with
        | None ->
            if
              Array.exists
                (fun c -> (not c.finished) && c.susp <> None)
                m.cpus
            then raise (Stuck "all remaining cpus blocked on the commit token")
        | Some cpu -> (
            match cpu.susp with
            | None -> raise (Stuck "runnable cpu without suspension")
            | Some s ->
                process m cpu s;
                loop ())
      in
      loop ();
      let cycles = Array.fold_left (fun acc c -> max acc c.time) 0 m.cpus in
      {
        cycles;
        total_violations =
          Array.fold_left (fun acc c -> acc + c.violations) 0 m.cpus;
        total_commits = Array.fold_left (fun acc c -> acc + c.commits) 0 m.cpus;
        total_bus_wait = Array.fold_left (fun acc c -> acc + c.bus_wait) 0 m.cpus;
        total_token_wait =
          Array.fold_left (fun acc c -> acc + c.token_wait) 0 m.cpus;
        per_cpu_violations = Array.map (fun c -> c.violations) m.cpus;
        per_cpu_time = Array.map (fun c -> c.time) m.cpus;
      })
