(* @workload-smoke: a bounded multi-shot serve run with mixed mid-traffic
   faults on a resilient protocol (must complete every op, recover the
   crashed replica, apply retried ops exactly once, and keep the incremental
   linearizability monitor green on its return-order witness alone), plus
   tob under its Thm 9 drop fault (must abort with a shot violation and a
   minimized witness). Wired into the default `dune runtest` so tier-1
   always exercises the workload engine end to end. *)

let fail fmt = Format.kasprintf (fun s -> Format.printf "workload-smoke FAILED: %s@." s; exit 1) fmt

let resilient () =
  let schedule =
    match Chaos.Schedule.parse "crash@6:1,partition@20:0|1.2:32,drop@40:cons:0" with
    | Ok s -> Some s
    | Error e -> fail "bad schedule: %s" e
  in
  let cfg =
    {
      (Workload.Engine.default_config ~proto:"direct" ()) with
      Workload.Engine.clients = 8;
      ops = 400;
      rate = 8;
      batch = 8;
      pipeline = 2;
      rejoin_after = 12;
      seed = 7;
      schedule;
      pin_oracle = true;
    }
  in
  let r = Workload.Engine.run cfg in
  print_string (Workload.Report.render r);
  Format.printf "@.";
  (match r.Workload.Report.outcome with
  | Workload.Report.Served -> ()
  | o -> fail "expected SERVED, got %a" Workload.Report.pp_outcome o);
  if r.Workload.Report.completed <> 400 then fail "completed %d/400" r.Workload.Report.completed;
  if r.Workload.Report.rejoins < 1 then fail "crashed replica never rejoined";
  if r.Workload.Report.catch_up_replayed < 1 then fail "no catch-up replay happened";
  if r.Workload.Report.retries < 1 then fail "no retry was exercised";
  if r.Workload.Report.duplicate_applications <> 0 then
    fail "%d duplicate applications" r.Workload.Report.duplicate_applications;
  if r.Workload.Report.lin <> Workload.Linear_inc.Ok then fail "lin monitor not ok";
  if r.Workload.Report.oracle_pinned <> Some true then fail "oracle pin disagrees";
  if r.Workload.Report.lin_searched <> 0 then
    fail "%d windows needed the search; the return-order witness failed"
      r.Workload.Report.lin_searched;
  (* Seeded exact replay: the rendered report is byte-identical. *)
  let r2 = Workload.Engine.run cfg in
  if not (String.equal (Workload.Report.render r) (Workload.Report.render r2)) then
    fail "seeded replay is not byte-identical"

let tob_falls () =
  let schedule =
    match Chaos.Schedule.parse "drop@6:tob:0" with
    | Ok s -> Some s
    | Error e -> fail "bad schedule: %s" e
  in
  let cfg =
    {
      (Workload.Engine.default_config ~proto:"tob" ()) with
      Workload.Engine.params = { Protocols.Registry.default_params with n = 2; f = 0 };
      clients = 4;
      ops = 64;
      rate = 4;
      batch = 4;
      seed = 7;
      schedule;
    }
  in
  let r = Workload.Engine.run cfg in
  print_string (Workload.Report.render r);
  Format.printf "@.";
  match r.Workload.Report.outcome with
  | Workload.Report.Shot_violation { minimized; _ } ->
    (match Chaos.Schedule.parse minimized with
    | Ok s -> if Chaos.Schedule.n_faults s < 1 then fail "empty minimized witness"
    | Error e -> fail "minimized witness does not parse: %s" e)
  | o -> fail "expected a shot violation on tob, got %a" Workload.Report.pp_outcome o

let () =
  resilient ();
  tob_falls ();
  Format.printf "workload-smoke OK@."
