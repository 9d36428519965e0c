(* Workload.Linear_inc with every call logged and timed: the log is the
   exact history (events and flush points) the engine fed the monitor, so
   the traced run can replay it through a fresh monitor. *)

include Workload.Linear_inc

type call = Record of Model.Linearize.event | Tick | Finish

let calls : call list ref = ref []  (* newest first *)
let span f = Bench_trace.Span.span "workload.lin" f

let record t ev =
  calls := Record ev :: !calls;
  span (fun () -> record t ev)

let tick t =
  calls := Tick :: !calls;
  span (fun () -> tick t)

let finish t =
  calls := Finish :: !calls;
  span (fun () -> finish t)

let take_calls () =
  let c = List.rev !calls in
  calls := [];
  c
