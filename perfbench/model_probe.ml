(* The model layer in isolation: [System.transition] over every (state,
   task) pair of one direct n=5 staircase G(C), and [State.hash] over the
   same states. *)

open Common

let reps_for_seconds ~seconds f =
  let reps = ref 0 and spent = ref 0. in
  while !reps < 3 || !spent < seconds do
    let dt, () = time f in
    spent := !spent +. dt;
    incr reps
  done;
  !spent /. float_of_int !reps

let run () =
  let sys = build "direct" { params with n = 5; f = 0 } in
  (* α_2 of the staircase: inputs 1 1 0 0 0. *)
  let inputs = List.init 5 (fun p -> Ioa.Value.int (if p < 2 then 1 else 0)) in
  let g = Engine.Graph.explore sys (Model.System.initialize sys inputs) in
  let states = Array.init (Engine.Graph.size g) (Engine.Graph.state g) in
  let tasks = sys.Model.System.tasks in
  let per_pass_transition =
    reps_for_seconds ~seconds:0.2 (fun () ->
        Array.iter
          (fun st -> Array.iter (fun task -> ignore (Model.System.transition sys st task)) tasks)
          states)
  in
  let per_pass_hash =
    reps_for_seconds ~seconds:0.1 (fun () ->
        Array.iter (fun st -> ignore (Sys.opaque_identity (Model.State.hash st))) states)
  in
  let n_states = float_of_int (Array.length states) in
  metric "model.transition_ns" "ns"
    (per_pass_transition /. (n_states *. float_of_int (Array.length tasks)) *. 1e9);
  metric "model.state_hash_ns" "ns" (per_pass_hash /. n_states *. 1e9)
