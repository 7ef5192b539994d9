(* GC pause time from the stdlib [Runtime_events] ring buffers.

   Only traced episodes start the event stream.  The main domain reads
   the cursor just before the clients start (discarding what it reads)
   and again after they have been joined, before any other domain is
   spawned, so a ring is not reused before it is read.  Pauses are summed
   only while [counting] is set; every domain of an episode process is a
   client then.  A pause is an outermost minor collection or major slice
   on a ring. *)

type acc = {
  depth : int array;  (** open pause phases per ring *)
  began : int array;  (** start of the outermost open pause per ring *)
  mutable counting : bool;
  mutable pause_ns : int;
  mutable lost : int;
}

type t = {
  acc : acc;
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
}

let max_rings = 128

let is_pause : Runtime_events.runtime_phase -> bool = function
  | EV_MINOR | EV_MAJOR_SLICE -> true
  | _ -> false

let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x)
let watched ring phase = ring >= 0 && ring < max_rings && is_pause phase

let start () =
  Runtime_events.start ();
  let acc =
    {
      depth = Array.make max_rings 0;
      began = Array.make max_rings 0;
      counting = false;
      pause_ns = 0;
      lost = 0;
    }
  in
  let runtime_begin ring time phase =
    if watched ring phase then begin
      if acc.depth.(ring) = 0 then acc.began.(ring) <- ts time;
      acc.depth.(ring) <- acc.depth.(ring) + 1
    end
  in
  let runtime_end ring time phase =
    if watched ring phase && acc.depth.(ring) > 0 then begin
      acc.depth.(ring) <- acc.depth.(ring) - 1;
      if acc.depth.(ring) = 0 && acc.counting then
        acc.pause_ns <- acc.pause_ns + (ts time - acc.began.(ring))
    end
  in
  let lost_events _ n = acc.lost <- acc.lost + n in
  {
    acc;
    cursor = Runtime_events.create_cursor None;
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
        ();
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)
