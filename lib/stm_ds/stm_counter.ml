module Tvar = Tcc_stm.Tvar
module Stm = Tcc_stm.Stm
open Stm_ds_util

type t = int Tvar.t

let create ?(initial = 0) () = Tvar.make initial
let get t = Tvar.get t

let incr ?(by = 1) t = in_atomic (fun () -> Tvar.set t (Tvar.get t + by))

(* Open-nested increment: commits immediately, creating no dependency in the
   enclosing transaction; a compensating abort handler preserves the exact
   count if the parent aborts (paper §6.3, "Atomos Open" counters). *)
let incr_open ?(by = 1) t =
  Stm.open_nested (fun () ->
      Tvar.set t (Tvar.get t + by);
      Stm.on_abort (fun () ->
          Stm.atomic (fun () -> Tvar.set t (Tvar.get t - by))))
