(** A separate-chaining hash map with a single [size] field and power-of-two
    growth — deliberately shaped like [java.util.HashMap], whose size-field
    and bucket collisions are the paper's canonical source of unnecessary
    memory-level conflicts.  Not thread-safe: the transactional wrapper
    serialises access to it. *)

type ('k, 'v) t

val create :
  ?initial_capacity:int ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t

val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val find : ('k, 'v) t -> 'k -> 'v option
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit

val find_or_add :
  ('k, 'v) t -> 'k -> copy:('k -> 'k) -> make:(unit -> 'v) -> 'v
(** [k]'s value; when [k] is unbound, binds [copy k] to [make ()] first. *)

val remove_if : ('k, 'v) t -> 'k -> ('a -> 'b -> 'v -> bool) -> 'a -> 'b -> unit
(** [remove_if t k f x y] removes [k]'s binding when [f x y] holds on its
    value.  [f]'s leading arguments travel apart from it, so a caller can
    pass a top-level [f] and allocate no closure. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
val clear : ('k, 'v) t -> unit
