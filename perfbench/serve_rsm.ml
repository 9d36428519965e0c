(* serve-rsm: [Workload.Engine.run] serving a counter on direct n=3 f=1,
   8 clients, rate 8, batch 8, pipeline 2, 8000 ops, under a fault timeline
   built from the seed: exactly one replica crash (which rejoins) and one
   partition (which heals) inside the serving horizon. The linearizability
   monitor dominates; consensus shots take a small share.

   Set-up: drawing the timeline and building the config and shot system. *)

open Common
module R = Workload.Report

let ops = 8000
let partition_ticks = 40

(* One crash in ticks [100, 700) and a partition isolating one replica in
   [900, 1500), healed [partition_ticks] later: well apart, and well inside
   the ~2000 ticks 8000 ops take at this rate. *)
let timeline seed =
  let rng = Random.State.make [| seed; 0x5E7E |] in
  let crash_at = 100 + Random.State.int rng 600 in
  let crash_pid = Random.State.int rng 3 in
  let part_at = 900 + Random.State.int rng 600 in
  let isolated = Random.State.int rng 3 in
  Chaos.Schedule.make
    Chaos.Schedule.
      [
        crash ~step:crash_at ~pid:crash_pid;
        partition ~step:part_at ~blocks:[ [ isolated ] ] ~heal_at:(part_at + partition_ticks);
      ]

let config seed =
  {
    (Workload.Engine.default_config ~proto:"direct" ()) with
    Workload.Engine.params = { params with n = 3; f = 1 };
    obj_name = "counter";
    clients = 8;
    ops;
    rate = 8;
    batch = 8;
    pipeline = 2;
    seed;
    schedule = Some (timeline seed);
  }

(* The same config for the engine copy, whose config record is its own
   type; the byte-identical report check below keeps the two in step. *)
let copy_config seed =
  {
    (Bench_serve_copy.Engine.default_config ~proto:"direct" ()) with
    Bench_serve_copy.Engine.params = { params with n = 3; f = 1 };
    obj_name = "counter";
    clients = 8;
    ops;
    rate = 8;
    batch = 8;
    pipeline = 2;
    seed;
    schedule = Some (timeline seed);
  }

let setup seed =
  let cfg = config seed in
  let e = entry cfg.Workload.Engine.proto in
  ignore (Sys.opaque_identity (e.Protocols.Registry.build cfg.Workload.Engine.params));
  if not (Workload.Engine.eligible e cfg.Workload.Engine.params) then
    failwith "perfbench: serve protocol is not eligible";
  cfg

let check_report (r : R.t) =
  check "serve: outcome is Served" (r.R.outcome = R.Served);
  check "serve: every op completed" (r.R.completed = ops);
  check "serve: no duplicate application" (r.R.duplicate_applications = 0);
  check "serve: linearizable" (r.R.lin = Workload.Linear_inc.Ok);
  check "serve: one crash, rejoined" (r.R.crash_faults = 1 && r.R.rejoins = 1);
  check "serve: one partition, healed" (r.R.partitions = 1 && r.R.heals = 1)

let serve cfg () =
  let r = Workload.Engine.run cfg in
  check_report r;
  r

(* Simulated request-to-reply latency at the highest percentile with at
   least ten samples beyond it. *)
let tail_ticks (r : R.t) = Stats.tail (Array.of_list (List.map float_of_int r.R.latencies))

let untraced ~seed ~seconds =
  let last = ref None in
  let setup_s, t = measure ~seconds (fun () -> setup seed) (fun cfg -> last := Some (serve cfg ())) in
  metric "setup_s" "s" setup_s;
  metric "pass_s" "s" (Stats.median t);
  metric "serve_ops_per_s" "1/s" (float_of_int ops /. Stats.median t);
  metric "serve_tail_ticks" "ticks" (tail_ticks (Option.get !last))

(* Replays the monitor calls the engine made through a fresh monitor, timing
   every flush that closed a window. *)
let replay cfg calls =
  let obj = Result.get_ok (Workload.Engine.obj_of_name cfg.Workload.Engine.obj_name) in
  let m =
    Workload.Linear_inc.create ~max_nodes:cfg.Workload.Engine.lin_max_nodes
      ~soft_outstanding:cfg.Workload.Engine.lin_soft ~hard_buffer:cfg.Workload.Engine.lin_hard obj
  in
  let windows = ref [] in
  let flushing f =
    let w0 = Workload.Linear_inc.windows m in
    let dt, _ = time f in
    if Workload.Linear_inc.windows m > w0 then windows := dt :: !windows
  in
  List.iter
    (function
      | Bench_serve_shim.Traced_lin.Record ev -> Workload.Linear_inc.record m ev
      | Tick -> flushing (fun () -> Workload.Linear_inc.tick m)
      | Finish -> flushing (fun () -> Workload.Linear_inc.finish m))
    calls;
  m, Array.of_list (List.rev !windows)

let traced ~seed =
  let cfg = setup seed in
  let plain () =
    let dt, ((words, majors), r) = time (fun () -> gc_delta (serve cfg)) in
    exact_count "workload.shots" (float_of_int r.R.shots);
    exact_count "workload.lin_windows" (float_of_int r.R.lin_windows);
    exact_count "workload.lin_max_frontier" (float_of_int r.R.lin_max_frontier);
    dt, words, majors, r
  in
  let _, words, majors, r = plain () in
  let untraced_pass, _, _, _ = plain () in
  cross_run_count "gc.minor_words" words;
  metric "gc.minor_mwords" "Mwords" (words /. 1e6);
  count "gc.major_collections" majors;
  (* The engine's own source, compiled against the traced monitor and shot
     runner, must serve the identical report. *)
  Span.enabled := true;
  ignore (Bench_serve_shim.Traced_lin.take_calls ());
  let traced_pass, copy = time (fun () -> Bench_serve_copy.Engine.run (copy_config seed)) in
  check "serve: traced engine report is byte-identical"
    (String.equal (R.render copy) (R.render r));
  metric "trace.overhead_s" "s" (traced_pass -. untraced_pass);
  metric "workload.lin_share" "ratio" (Span.total "workload.lin" /. traced_pass);
  metric "workload.shot_share" "ratio" (Span.total "workload.shot" /. traced_pass);
  metric "workload.shot_us" "us" (Stats.median (Span.durations "workload.shot") *. 1e6);
  let calls = Bench_serve_shim.Traced_lin.take_calls () in
  let m, windows = replay cfg calls in
  check "serve: replayed history reproduces the engine's windows"
    (Workload.Linear_inc.windows m = r.R.lin_windows
    && Workload.Linear_inc.max_window m = r.R.lin_max_window
    && Workload.Linear_inc.max_frontier m = r.R.lin_max_frontier
    && Workload.Linear_inc.verdict m = Workload.Linear_inc.Ok);
  metric "workload.lin_window_us_p50" "us" (Stats.median windows *. 1e6);
  metric "workload.lin_window_us_tail" "us" (Stats.tail windows *. 1e6);
  count "workload.shots" r.R.shots;
  count "workload.lin_windows" r.R.lin_windows;
  count "workload.lin_max_frontier" r.R.lin_max_frontier;
  metric "workload.shots_per_op" "ratio" (float_of_int r.R.shots /. float_of_int ops);
  count "workload.retries" r.R.retries;
  metric "workload.recovery_ticks" "ticks"
    (float_of_int (List.fold_left max 0 r.R.recovery_times));
  metric "workload.degraded_ticks" "ticks" (float_of_int r.R.degraded_ticks);
  metric "serve_tail_ticks" "ticks" (tail_ticks r);
  Model_probe.run ()
