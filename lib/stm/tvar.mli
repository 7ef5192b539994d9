(** Transactional variables: the unit of memory-level conflict detection in
    the host software TM.  Inside a transaction, [get] records a read
    dependency validated at commit and [set] buffers the write in a redo log;
    outside any transaction both act as linearisable single-word operations. *)

type 'a t

val make : 'a -> 'a t
val id : 'a t -> int

val get : 'a t -> 'a
(** May raise internal conflict exceptions that are handled by
    {!Stm.atomic}'s retry loop; user code never observes them.  Inside a
    {!Stm.snapshot} section, resolves against the tvar's version chain at
    the pinned snapshot timestamp — lock-free and abort-free. *)

val set : 'a t -> 'a -> unit
(** Raises [Invalid_argument] inside a {!Stm.snapshot} section: snapshot
    reads are strictly read-only. *)

val modify : 'a t -> ('a -> 'a) -> unit

val history_length : 'a t -> int
(** Number of committed versions currently retained in this tvar's version
    chain (introspection for reclamation tests and leak probes).  At most
    {!Stm.version_chain_bound} once no snapshot reader is pinned below
    the newest versions. *)
