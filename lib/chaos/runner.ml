type interleave = Round_robin | Seeded of int

type stop =
  | Violation of { monitor : string; reason : string; proven : bool }
  | Lasso of { period : int }
  | Budget
  | Pruned

type result = {
  exec : Model.Exec.t;
  steps : int;
  stop : stop;
  monitor_truncations : (string * Monitor.category * string) list;
  undelivered_crashes : int;
  undelivered_net : int;
  vacuous_net_faults : int;
}

let pp_stop ppf = function
  | Violation { monitor; reason; proven } ->
    Format.fprintf ppf "VIOLATION of %s (%s): %s" monitor
      (if proven then "proven" else "bounded evidence")
      reason
  | Lasso { period } -> Format.fprintf ppf "pass (lasso of period %d: provably quiescent)" period
  | Budget -> Format.fprintf ppf "pass (step budget exhausted: bounded evidence)"
  | Pruned ->
    Format.fprintf ppf "pruned (configuration already explored: verdict inherited)"

let default_inputs sys =
  List.init (Model.System.n_processes sys) (fun i -> Ioa.Value.int (i mod 2))

let initialized sys inputs =
  List.fold_left
    (fun (exec, i) v -> Model.Exec.append_init sys exec i v, i + 1)
    (Model.Exec.init (Model.System.initial_state sys), 0)
    inputs
  |> fst

type checkpoint = {
  cp_exec : Model.Exec.t;
  cp_step : int;  (* The turn the run takes next. *)
  cp_cursor : int;
  cp_truncs : (string * Monitor.category * string) list;
  cp_vacuous : int;
  cp_rng : Random.State.t option;  (* A private copy, under [Seeded]. *)
  cp_cut : (string * string) option;
      (* A safety violation ended the walk: [cp_exec] is the violating
         prefix and [cp_step] the run's step count. *)
}

(* The one step loop. Without [record] it is a monitored run; with
   [record = (hi, push)] it walks the schedule with lasso detection and the
   activation probe off, handing [push] a checkpoint at every turn up to
   [hi] (and a cut checkpoint if a safety monitor fails first), then stops
   without evaluating end-of-run monitors. *)
let walk ~monitors ~max_steps ~interleave ~inputs ~on_active ~prefix ~record ~schedule
    (sys : Model.System.t) =
  let compiled = Schedule.compile schedule sys in
  let policy = Schedule.policy compiled in
  let tasks = sys.Model.System.tasks in
  let n_tasks = Array.length tasks in
  let copy_rng rng = Option.map Random.State.copy rng in
  let start =
    match prefix with
    | Some cp ->
      Schedule.drop_before compiled ~step:cp.cp_step;
      { cp with cp_rng = copy_rng cp.cp_rng }
    | None ->
      {
        cp_exec = initialized sys inputs;
        cp_step = 0;
        cp_cursor = 0;
        cp_truncs = [];
        cp_vacuous = 0;
        cp_rng =
          (match interleave with
          | Round_robin -> None
          | Seeded seed -> Some (Random.State.make [| seed; 0x1A7E |]));
        cp_cut = None;
      }
  in
  let rng = start.cp_rng in
  let cursor = ref start.cp_cursor in
  let seen = Model.Lasso.create 256 in
  let truncs = ref start.cp_truncs in
  let vacuous = ref start.cp_vacuous in
  let finish exec steps stop =
    {
      exec;
      steps;
      stop;
      monitor_truncations = !truncs;
      undelivered_crashes = Schedule.undelivered compiled;
      undelivered_net = Schedule.undelivered_net compiled;
      vacuous_net_faults = !vacuous;
    }
  in
  let snapshot exec step cut =
    {
      cp_exec = exec;
      cp_step = step;
      cp_cursor = !cursor;
      cp_truncs = !truncs;
      cp_vacuous = !vacuous;
      cp_rng = copy_rng rng;
      cp_cut = cut;
    }
  in
  (* End-of-run: evaluate the liveness monitors; [proven] records whether
     the terminal situation repeats forever (lasso) or merely ran out of
     budget. *)
  let ended exec steps ~proven pass =
    let fail, t = Monitor.check_phase monitors ~phase:Monitor.End sys exec in
    truncs := !truncs @ t;
    match fail with
    | Some (monitor, reason) -> finish exec steps (Violation { monitor; reason; proven })
    | None -> finish exec steps pass
  in
  let probed = ref false in
  let rec go exec step =
    match record with
    | Some (hi, push) ->
      push (snapshot exec step None);
      (* A recording walk stops at its horizon, and at the step budget: a
         run resumed from that checkpoint ends exactly as one that walked
         on would. *)
      if step >= hi || step >= max_steps then finish exec step Budget else turn exec step
    | None ->
      if step >= max_steps then ended exec step ~proven:false Budget else turn exec step
  and turn exec step =
    let active =
      (* Once fully active the schedule is memoryless (no pending crash, no
         future silence activation): under the deterministic task order the
         continuation is a function of (cursor, state) alone. A recording
         walk never looks: the runs it serves are not active before they
         diverge from it. *)
      match interleave, record with
      | Round_robin, None -> Schedule.fully_active compiled ~step
      | Seeded _, _ | Round_robin, Some _ -> false
    in
    let prune =
      (* The one-shot activation probe: the explorer fingerprints the
         configuration here and may inherit a previously proven verdict. *)
      if active && not !probed then begin
        probed := true;
        match on_active with
        | Some probe -> probe ~step ~cursor:(!cursor mod n_tasks) exec = `Prune
        | None -> false
      end
      else false
    in
    if prune then finish exec step Pruned
    else
      let lasso =
        (* (cursor, state) repetition proves a cycle only once the schedule
           is memoryless and the task order is deterministic. *)
        if active then
          Model.Lasso.visit seen ~cursor:(!cursor mod n_tasks) (Model.Exec.last_state exec)
            ~step
          |> Option.map (fun at -> step - at)
        else None
      in
      match lasso with
      | Some period -> ended exec step ~proven:true (Lasso { period })
      | None -> (
        match Schedule.due compiled ~step with
        | Some (Schedule.Deliver_fail pid) ->
          go (Model.Exec.append_fail sys exec pid) (step + 1)
        | Some (Schedule.Deliver_net { service; endpoint; kind }) -> (
          match Model.Exec.append_net sys exec ~service ~endpoint ~kind with
          | None ->
            (* Vacuous fault (empty buffer): counted, not recorded. *)
            incr vacuous;
            go exec (step + 1)
          | Some exec -> go exec (step + 1))
        | Some (Schedule.Deliver_partition { blocks; _ }) ->
          go (Model.Exec.append_partition exec blocks) (step + 1)
        | Some (Schedule.Deliver_heal blocks) ->
          go (Model.Exec.append_heal exec blocks) (step + 1)
        | None -> (
          let task =
            match rng with
            | Some rng -> tasks.(Random.State.int rng n_tasks)
            | None ->
              let t = tasks.(!cursor mod n_tasks) in
              incr cursor;
              t
          in
          if Schedule.blocked compiled sys (Model.Exec.last_state exec) task then
            (* An active partition holds this output turn back; the task
               regains its turn after the heal. *)
            go exec (step + 1)
          else
            match Model.Exec.append_task ~policy sys exec task with
            | None -> go exec (step + 1)
            | Some exec' -> (
              let event =
                match exec'.Model.Exec.rev_steps with
                | s :: _ -> s.Model.Exec.event
                | [] -> assert false
              in
              let fail, t =
                Monitor.check_phase monitors ~phase:Monitor.Step ~event sys exec'
              in
              if t <> [] then truncs := !truncs @ t;
              match fail with
              | Some (monitor, reason) ->
                (* A safety violation is witnessed by the prefix itself. *)
                (match record with
                | Some (_, push) ->
                  push (snapshot exec' (step + 1) (Some (monitor, reason)))
                | None -> ());
                finish exec' (step + 1) (Violation { monitor; reason; proven = true })
              | None -> go exec' (step + 1))))
  in
  match start.cp_cut with
  | Some (monitor, reason) ->
    (* The checkpoint's walk ended at a safety violation before this run
       could diverge from it: this run ends exactly there. *)
    (match record with Some (_, push) -> push start | None -> ());
    finish start.cp_exec start.cp_step (Violation { monitor; reason; proven = true })
  | None -> go start.cp_exec start.cp_step

let run ?(monitors = Monitor.defaults ()) ?(max_steps = 20_000) ?(interleave = Round_robin)
    ?inputs ?on_active ?prefix ~schedule (sys : Model.System.t) =
  let inputs = match inputs with Some vs -> vs | None -> default_inputs sys in
  walk ~monitors ~max_steps ~interleave ~inputs ~on_active ~prefix ~record:None ~schedule
    sys

type stem = {
  from : int;
  mutable cps : checkpoint array;  (* [cps.(i)] is the checkpoint at step [from + i]. *)
  walk_on : checkpoint option -> int -> checkpoint array;
  limit : int;  (* The step budget. *)
}

let stem ?(monitors = Monitor.defaults ()) ?(max_steps = 20_000) ?(interleave = Round_robin)
    ?inputs ?prefix ~schedule ~upto (sys : Model.System.t) =
  let inputs = match inputs with Some vs -> vs | None -> default_inputs sys in
  let walk_on prefix hi =
    let acc = ref [] in
    ignore
      (walk ~monitors ~max_steps ~interleave ~inputs ~on_active:None ~prefix
         ~record:(Some (hi, fun cp -> acc := cp :: !acc))
         ~schedule sys);
    Array.of_list (List.rev !acc)
  in
  let from = match prefix with Some cp -> cp.cp_step | None -> 0 in
  { from; cps = walk_on prefix (max from upto); walk_on; limit = max_steps }

let rec at t step =
  if step < t.from then invalid_arg "Chaos.Runner.at: step before the stem's start";
  let n = Array.length t.cps in
  let last = t.cps.(n - 1) in
  if step - t.from < n then t.cps.(step - t.from)
  else if last.cp_cut <> None || last.cp_step >= t.limit then
    (* A run that reaches the cut or the step budget before it diverges
       ends there exactly as the walk did. *)
    last
  else begin
    (* Walk on from the newest checkpoint, at least doubling the range. *)
    let more = t.walk_on (Some last) (max step (last.cp_step + n)) in
    t.cps <- Array.append t.cps (Array.sub more 1 (Array.length more - 1));
    at t step
  end
