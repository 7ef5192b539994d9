(** Undo-logging TransactionalMap — the alternative implementation strategy
    of paper §5.1 ("Redo versus undo logging"): writes update the wrapped
    map in place under exclusive semantic write locks (pessimistic early
    conflict detection, as undo logging requires) and an undo log
    compensates on abort.  The redo-based {!Transactional_map} is the
    default; this module makes the design-space comparison executable. *)

module Make (TM : Tm_intf.TM_OPS) (M : Tm_intf.MAP_OPS) : sig
  type 'v t

  val create : unit -> 'v t
  val wrap : 'v M.t -> 'v t

  val find : 'v t -> M.key -> 'v option
  (** Retries transparently while another transaction write-locks the key. *)

  val mem : 'v t -> M.key -> bool

  val put : 'v t -> M.key -> 'v -> 'v option
  (** In-place update under an exclusive write lock; aborts foreign readers
      of the key immediately and waits (by retrying) on foreign writers. *)

  val remove : 'v t -> M.key -> 'v option
  val size : 'v t -> int
  val is_empty : 'v t -> bool
  val fold : (M.key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val iter : (M.key -> 'v -> unit) -> 'v t -> unit
  val to_list : 'v t -> (M.key * 'v) list
  val outstanding_locks : 'v t -> int
end
