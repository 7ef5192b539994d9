open Types

type 'a t = 'a tvar_repr

let make v =
  {
    tv_id = Atomic.fetch_and_add next_tv_id 1;
    value = Atomic.make v;
    vlock = Atomic.make 0;
    hist = Coll.Vchain.make 0 v;
  }

let id tv = tv.tv_id

let history_length tv = Coll.Vchain.length tv.hist

let get tv =
  (* The snapshot branch comes first: inside a snapshot the context is
     empty, and the read must resolve against the version chain at the
     pinned stamp, not the live committed value. *)
  if in_snapshot () then Coll.Vchain.read_at tv.hist (snapshot_stamp ())
  else
    match !(context ()) with
    | None -> read_committed tv
    | Some txn -> lazy_rv_read txn tv

(* Non-transactional store: lock, open the publication window, advance
   the clock, publish (value, version chain, unlocking vlock). *)
let rec nontx_set tv v =
  let cur = Atomic.get tv.vlock in
  if locked cur || not (Atomic.compare_and_set tv.vlock cur (cur + 1)) then begin
    Domain.cpu_relax ();
    nontx_set tv v
  end
  else begin
    publish_window_enter ();
    let wv = bump_clock () in
    Atomic.set tv.value v;
    hist_publish tv ~min_epoch:(oldest_active_epoch ()) wv v;
    Atomic.set tv.vlock wv;
    publish_window_exit ()
  end

let set tv v =
  if in_snapshot () then
    invalid_arg "Tvar.set: inside a snapshot read section";
  match !(context ()) with
  | None -> nontx_set tv v
  | Some txn -> buffered_write txn tv v

let modify tv f = set tv (f (get tv))
