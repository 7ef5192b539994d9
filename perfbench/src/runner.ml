(* One closed-loop episode, run in a process of its own.

   An episode builds a fresh fixed-seed state, runs a warm-up slice (both
   together are its set-up time), then a timed phase of a fixed number of
   transactions per client domain, then the output checks and a heap
   measurement.  Each client sends its next transaction only after the
   previous one returned.

   Each episode gets a fresh process because the library keeps every
   collection it ever created reachable (each collection's per-domain
   buffers sit under a [Domain.DLS] key that is never freed), so
   in-process episodes would each add the previous states to the live
   heap and slow down as the run goes on. *)

module Hdr = Harness.Hdr
module Stm = Tcc_stm.Stm

let n_domains = 2

type phase = {
  wall_ns : int;
  lat : Hdr.t;  (** per-transaction latency, both domains *)
  failed : int;
  trace : Trace.t;  (** both domains' spans *)
}

(* Client 0 runs on the calling (main) domain and client 1 on a spawned
   one, so the process has exactly [n_domains] domains while it measures.
   An idle main domain would still take part in every stop-the-world minor
   collection through its backup thread: a third thread to schedule on two
   cores, at every collection. *)
let phase (type s i) (module W : Workload.S with type state = s and type input = i)
    (st : s) (inputs : i array) ~lo ~hi ~traced ~gc =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let client d () =
    let tr = Trace.create ~on:traced and lat = Hdr.create () in
    let failed = ref 0 and inp = inputs.(d) in
    for i = lo to hi - 1 do
      let t0 = Clock.now_ns () in
      Trace.begin_txn tr ~now:t0;
      let ok = try W.run tr st inp i with _ -> false in
      let t1 = Clock.now_ns () in
      Hdr.record_ns lat (t1 - t0);
      Trace.end_txn tr ~now:t1;
      if not ok then incr failed
    done;
    (tr, lat, !failed, Clock.now_ns ())
  in
  let spawned =
    List.init (n_domains - 1) (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            client (d + 1) ()))
  in
  while Atomic.get ready < n_domains - 1 do
    Domain.cpu_relax ()
  done;
  Option.iter
    (fun g ->
      Gc_events.poll g;
      g.Gc_events.acc.counting <- true)
    gc;
  let t_go = Clock.now_ns () in
  Atomic.set go true;
  let mine = client 0 () in
  let rs = mine :: List.map Domain.join spawned in
  Option.iter
    (fun g ->
      Gc_events.poll g;
      g.Gc_events.acc.counting <- false)
    gc;
  let trace = Trace.create ~on:traced in
  List.iter (fun (tr, _, _, _) -> Trace.merge ~into:trace tr) rs;
  {
    wall_ns = List.fold_left (fun m (_, _, _, t) -> max m t) t_go rs - t_go;
    lat = Stats.merged (List.map (fun (_, l, _, _) -> l) rs);
    failed = List.fold_left (fun n (_, _, f, _) -> n + f) 0 rs;
    trace;
  }

type episode = {
  setup_s : float;
  throughput : float;  (** committed transactions per second *)
  lat : Hdr.t;
  heap_live_mb : float;
  attempted : int;  (** transactions and checks *)
  failed : int;
  failed_checks : string list;
  trace : Trace.t;
  stm0 : Stm.stats;
  stm1 : Stm.stats;
  region_waits : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  pause_ns : int;  (** GC pauses of the client domains (traced only) *)
  lost_events : int;
  cpu_share : float;
      (** process CPU time over the timed phase ÷ (clients × wall time) *)
}

let episode (type s i) (module W : Workload.S with type state = s and type input = i)
    ~seed ~traced =
  let w = (module W : Workload.S with type state = s and type input = i) in
  let gc = if traced then Some (Gc_events.start ()) else None in
  let n = W.warm + W.per_domain in
  let inputs = Array.init n_domains (fun domain -> W.input ~seed ~domain ~n) in
  let t0 = Clock.now_ns () in
  (* Built on a throwaway domain: the per-domain buffers the build grows
     (large, because prepopulating writes thousands of keys per
     transaction) die with it instead of staying with client 0. *)
  let st = Domain.join (Domain.spawn (fun () -> W.build ~seed)) in
  let warm = phase w st inputs ~lo:0 ~hi:W.warm ~traced:false ~gc:None in
  let setup_ns = Clock.now_ns () - t0 in
  let stm0 = Stm.global_stats () and rw0 = Stm.commit_region_waits () in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Unix.times () and w0 = Clock.now_ns () in
  let timed = phase w st inputs ~lo:W.warm ~hi:n ~traced ~gc in
  let cpu1 = Unix.times () and w1 = Clock.now_ns () in
  let gc1 = Gc.quick_stat () in
  let stm1 = Stm.global_stats () and rw1 = Stm.commit_region_waits () in
  let txns = n_domains * n and failed = warm.failed + timed.failed in
  let checks = W.checks st ~committed:(txns - failed) in
  let failed_checks = List.filter_map (fun (c, ok) -> if ok then None else Some c) checks in
  Gc.full_major ();
  let live_words = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity st);
  {
    setup_s = float_of_int setup_ns /. 1e9;
    throughput =
      float_of_int ((n_domains * W.per_domain) - timed.failed)
      /. (float_of_int timed.wall_ns /. 1e9);
    lat = timed.lat;
    heap_live_mb = float_of_int (live_words * (Sys.word_size / 8)) /. 1e6;
    attempted = txns + List.length checks;
    failed = failed + List.length failed_checks;
    failed_checks;
    trace = timed.trace;
    stm0;
    stm1;
    region_waits = rw1 - rw0;
    gc0;
    gc1;
    pause_ns = (match gc with Some g -> g.acc.pause_ns | None -> 0);
    lost_events = (match gc with Some g -> g.acc.lost | None -> 0);
    cpu_share =
      (cpu1.tms_utime +. cpu1.tms_stime -. cpu0.tms_utime -. cpu0.tms_stime)
      /. (float_of_int (n_domains * (w1 - w0)) /. 1e9);
  }

