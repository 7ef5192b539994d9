(** Multi-version chain of one cell: committed versions newest first,
    stamped with the commit clock, read lock-free by snapshot readers and
    cut on every publication right after the version a reader pinned at
    the oldest active reader epoch resolves (with no reader pinned, the
    newest version and the one before it).  Publishers must be externally
    serialised per chain (a versioned lock or commit region). *)

type 'a t

val make : int -> 'a -> 'a t
(** [make stamp v] is a chain holding the single version [v] at [stamp]. *)

val length : 'a t -> int
(** Number of versions currently retained (introspection / leak probes). *)

val latest : 'a t -> 'a
(** Newest committed version. *)

val latest_stamp : 'a t -> int
(** Stamp of the newest committed version. *)

val read_at : 'a t -> int -> 'a
(** [read_at t ts] is the newest version stamped [<= ts].  Total: falls
    back to the oldest surviving version when nothing qualifies, which is
    unreachable for timestamps pinned under the snapshot protocol. *)

val read_at_opt : 'a t -> int -> 'a option
(** As {!read_at} but [None] instead of the fallback — lets tests detect
    a reclaimed-version observation. *)

val publish : 'a t -> min_epoch:int -> int -> 'a -> int
(** [publish t ~min_epoch stamp v] prepends version [v] at [stamp] and
    reclaims every version shadowed for all epochs [>= min_epoch]: the
    chain is cut right after its first entry stamped [<= min_epoch].
    A publication at the newest version's own stamp replaces that
    version.  Returns the number of versions reclaimed.  Callers must be
    serialised per chain. *)
