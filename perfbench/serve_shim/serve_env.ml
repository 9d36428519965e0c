(* Opened (after Workload) by the engine copy, so its unqualified
   [Linear_inc] and [Chaos] resolve to the traced stand-ins. *)

module Linear_inc = Traced_lin
module Chaos = Traced_chaos
