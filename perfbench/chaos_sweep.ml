(* chaos-sweep: the sequential explorer [Chaos.Explore.run] over the full
   fault space of direct n=4 f=2 with up to two faults of the five
   crash/omission/partition kinds (109,921 schedules). The run must pass
   with no violation. Schedule enumeration, [Chaos.Runner] and the monitors
   do the work; model transitions run as many short linear runs.

   Set-up: building the system and the config, and sizing the space. The
   seed permutes the order of the fault kinds, which reorders the
   enumeration but not the set of schedules. *)

open Common
module E = Chaos.Explore

let expected_space = 109_921

let kinds = Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]

let setup seed =
  let rng = Random.State.make [| seed; 0xC4A05 |] in
  let sys = build "direct" { params with n = 4; f = 2 } in
  let base = E.default_config sys in
  let cfg = { base with E.max_faults = 2; kinds = shuffle rng kinds; budget = max_int } in
  let space = E.space_size sys cfg in
  sys, { cfg with E.budget = space }, space

let sweep (sys, cfg, space) () =
  let r = Span.span "chaos.explore" (fun () -> E.run ~config:cfg sys) in
  check "chaos: space is the full fault space" (r.E.space = expected_space && space = r.E.space);
  check "chaos: every schedule examined" (r.E.examined = r.E.space && not r.E.truncated);
  check "chaos: no violation" (r.E.violation = None && not r.E.wall_truncated);
  r

let untraced ~seed ~seconds =
  let setup_s, t = measure ~seconds (fun () -> setup seed) (fun input -> ignore (sweep input ())) in
  metric "setup_s" "s" setup_s;
  metric "pass_s" "s" (Stats.median t);
  metric "chaos_schedules_per_s" "1/s" (float_of_int expected_space /. Stats.median t)

let net_faults (s : Chaos.Schedule.t) =
  List.length
    (List.filter
       (function Chaos.Schedule.Crash _ | Chaos.Schedule.Silence _ -> false | _ -> true)
       s.Chaos.Schedule.faults)

let traced ~seed =
  let ((sys, cfg, _) as input) = setup seed in
  let plain () =
    let dt, ((words, majors), r) = time (fun () -> gc_delta (sweep input)) in
    exact_count "chaos.examined" (float_of_int r.E.examined);
    exact_count "chaos.space" (float_of_int r.E.space);
    dt, words, majors, r
  in
  let _, words, majors, report = plain () in
  let untraced_pass, _, _, _ = plain () in
  cross_run_count "gc.minor_words" words;
  metric "gc.minor_mwords" "Mwords" (words /. 1e6);
  count "gc.major_collections" majors;
  count "chaos.examined" report.E.examined;
  count "chaos.step_budget_hits" report.E.step_budget_hits;
  Span.enabled := true;
  let traced_pass, _ = time (sweep input) in
  metric "trace.overhead_s" "s" (traced_pass -. untraced_pass);
  let schedules =
    Span.span "chaos.enum" (fun () -> Array.of_seq (E.schedules sys cfg))
  in
  check "chaos: enumeration matches the space" (Array.length schedules = expected_space);
  metric "chaos.enum_us" "us" (Span.total "chaos.enum" *. 1e6);
  (* Every schedule through the runner on its own, as [E.run] does it. *)
  let monitors = Chaos.Monitor.defaults ~degrade:cfg.E.degrade () in
  let run monitors schedule =
    Chaos.Runner.run ~monitors ~max_steps:cfg.E.max_steps ~schedule sys
  in
  let steps = ref 0 and vacuous = ref 0 and delivered = ref 0 and budget_hits = ref 0 in
  Array.iter
    (fun schedule ->
      let r = Span.span "chaos.run" (fun () -> run monitors schedule) in
      steps := !steps + r.Chaos.Runner.steps;
      vacuous := !vacuous + r.Chaos.Runner.vacuous_net_faults;
      delivered := !delivered + net_faults schedule - r.Chaos.Runner.undelivered_net;
      if r.Chaos.Runner.stop = Chaos.Runner.Budget then incr budget_hits)
    schedules;
  check "chaos: runner replay agrees with the explorer on budget hits"
    (!budget_hits = report.E.step_budget_hits);
  check "chaos: runner replay agrees with the explorer on vacuous faults"
    (!vacuous = report.E.vacuous_net_faults);
  let runs = Span.durations "chaos.run" in
  let with_monitors = Stats.sum runs in
  let without_monitors, () =
    time (fun () -> Array.iter (fun s -> ignore (run [] s)) schedules)
  in
  metric "chaos.run_us_p50" "us" (Stats.median runs *. 1e6);
  metric "chaos.run_us_tail" "us" (Stats.tail runs *. 1e6);
  metric "chaos.ns_per_step" "ns" (with_monitors /. float_of_int !steps *. 1e9);
  metric "chaos.monitor_share" "ratio" (1. -. (without_monitors /. with_monitors));
  metric "chaos.vacuous_ratio" "ratio"
    (float_of_int !vacuous /. float_of_int (max 1 !delivered));
  Model_probe.run ()
