(* The chaos linearizability monitor checks the return-order witness
   (Model.Linearize.witness) before the exhaustive search, sharing the one
   witness implementation with Workload.Linear_inc. The pins:

   1. over bounded mixed-kind sweeps of every registry protocol, whole runs
      under the witness-first monitor stop, and truncate, exactly as under a
      search-only reference monitor, messages included, and the sweeps
      reach both the histories the witness settles and those it leaves to
      the search;
   2. hand-built consensus histories, checked by both monitors: one the
      witness rejects but the search accepts (the first returner was not
      the first performer), and one both reject. *)

module L = Model.Linearize
module M = Chaos.Monitor
module E = Chaos.Explore
module LI = Workload.Linear_inc

(* The chaos monitor's check with the search alone, as it was before the
   witness: the reference the witness-first monitor must match. *)
let search_only_check ~degrade sys exec =
  let max_history = 240 in
  if (not degrade) && M.has_net_fault exec then
    M.Truncated
      (M.Adversary, "linearizability waived: network fault(s) mutated response buffers")
  else
    let d = if degrade then Chaos.Degrade.of_exec exec else Chaos.Degrade.empty in
    let bad = ref None and trunc = ref [] and skipped = ref [] in
    Array.iter
      (fun (c : Model.Service.t) ->
        match c.Model.Service.seq with
        | None -> ()
        | Some seq ->
          let id = c.Model.Service.id in
          if !bad = None then
            if degrade && Chaos.Degrade.mutated d ~service:id then
              skipped :=
                Printf.sprintf
                  "service %s: buffers mutated by the adversary, history skipped" id
                :: !skipped
            else
              let h = L.history exec ~service:id in
              let len = List.length h in
              if len > max_history then
                trunc :=
                  Printf.sprintf "service %s: history of %d events > bound %d" id len
                    max_history
                  :: !trunc
              else if not (L.check seq h) then
                bad :=
                  Some
                    (Printf.sprintf "service %s: history of %d events not linearizable" id
                       len))
      sys.Model.System.services;
    match !bad with
    | Some why -> M.Fail why
    | None ->
      if !trunc <> [] then
        M.Truncated (M.Monitor_budget, String.concat "; " (!trunc @ !skipped))
      else if !skipped <> [] then M.Truncated (M.Adversary, String.concat "; " !skipped)
      else M.Pass

let with_search_only ~degrade monitors =
  List.map
    (fun (m : M.t) ->
      if String.equal m.M.name "linearizability" then
        { m with M.check = search_only_check ~degrade }
      else m)
    monitors

let kinds = Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]

(* Every [stride]-th schedule of the two-fault mixed space, at most [cap]. *)
let sampled sys cfg ~stride ~cap =
  E.schedules sys cfg
  |> Seq.mapi (fun i s -> if i mod stride = 0 then Some s else None)
  |> Seq.filter_map Fun.id |> Seq.take cap |> List.of_seq

(* Histories the real monitor would reach, split by whether the witness
   settles them. *)
let witness_split sys exec (held, failed) =
  if M.has_net_fault exec then held, failed
  else
    Array.fold_left
      (fun (held, failed) (c : Model.Service.t) ->
        match c.Model.Service.seq with
        | None -> held, failed
        | Some seq ->
          let h = L.history exec ~service:c.Model.Service.id in
          if List.length h > 240 then held, failed
          else if L.witness seq h then held + 1, failed
          else held, failed + 1)
      (held, failed) sys.Model.System.services

let test_fleet_differential () =
  let params = { Protocols.Registry.default_params with n = 3; f = 1 } in
  let split = ref (0, 0) in
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let sys = e.Protocols.Registry.build params in
      let k = e.Protocols.Registry.k_of params in
      let cfg = { (E.default_config sys) with E.max_faults = 2; kinds } in
      List.iter
        (fun degrade ->
          let ours = M.defaults ~k ~degrade () in
          let reference = with_search_only ~degrade ours in
          List.iter
            (fun schedule ->
              let run monitors =
                Chaos.Runner.run ~monitors ~max_steps:4_000 ~schedule sys
              in
              let a = run ours and b = run reference in
              let show (r : Chaos.Runner.result) =
                Format.asprintf "%a [%s]" Chaos.Runner.pp_stop r.Chaos.Runner.stop
                  (String.concat "; "
                     (List.map
                        (fun (m, c, why) ->
                          Printf.sprintf "%s/%s: %s" m (M.category_name c) why)
                        r.Chaos.Runner.monitor_truncations))
              in
              Alcotest.(check string)
                (Format.asprintf "%s%s %a" e.Protocols.Registry.name
                   (if degrade then " --degrade" else "")
                   Chaos.Schedule.pp schedule)
                (show b) (show a);
              if not degrade then split := witness_split sys b.Chaos.Runner.exec !split)
            (sampled sys cfg ~stride:31 ~cap:250))
        [ false; true ])
    Protocols.Registry.all;
  let held, failed = !split in
  Alcotest.(check bool) "the witness settles histories" true (held > 0);
  Alcotest.(check bool) "the search decides histories the witness rejects" true (failed > 0)

(* --- hand-built consensus histories --- *)

let consensus_sys = Protocols.Direct.system ~n:3 ~f:1
let consensus = Spec.Seq_consensus.make ()

(* An execution whose only steps are the given service events at "cons":
   the monitors read nothing else. *)
let exec_of events =
  let s0 = Model.System.initial_state consensus_sys in
  let label = Model.Exec.L_task consensus_sys.Model.System.tasks.(0) in
  let step ev =
    let event =
      match ev with
      | L.Call { endpoint; op } -> Model.Event.Invoke (endpoint, "cons", op)
      | L.Return { endpoint; resp } -> Model.Event.Respond (endpoint, "cons", resp)
    in
    { Model.Exec.label; event; state = s0 }
  in
  { (Model.Exec.init s0) with Model.Exec.rev_steps = List.rev_map step events }

let verdict_string = function
  | M.Pass -> "pass"
  | M.Fail why -> "fail: " ^ why
  | M.Truncated (c, why) -> Printf.sprintf "truncated (%s): %s" (M.category_name c) why

let inc_string = function
  | LI.Ok -> "ok"
  | LI.Violation m -> "violation: " ^ m
  | LI.Truncated m -> "truncated: " ^ m

(* Both monitors on one history: the chaos monitor's verdict, the
   incremental monitor's verdict and how many windows it searched. *)
let both events =
  let chaos = (M.linearizability ()).M.check consensus_sys (exec_of events) in
  let inc = LI.create consensus in
  List.iter (LI.record inc) events;
  let v = LI.finish inc in
  verdict_string chaos, inc_string v, LI.searched inc

let propose endpoint v = L.Call { endpoint; op = Spec.Seq_consensus.init v }
let decided endpoint v = L.Return { endpoint; resp = Spec.Seq_consensus.decide v }

let test_witness_fails_search_passes () =
  (* P0 performs first, so everyone decides 0; but P1 returns first, and
     in return order its proposal of 1 would have taken effect first. *)
  let h = [ propose 0 0; propose 1 1; decided 1 0; decided 0 0 ] in
  Alcotest.(check bool) "the witness fails" false (L.witness consensus h);
  Alcotest.(check bool) "the search passes" true (L.check consensus h);
  let chaos, inc, searched = both h in
  Alcotest.(check string) "chaos monitor" "pass" chaos;
  Alcotest.(check string) "incremental monitor" "ok" inc;
  Alcotest.(check int) "the search decided it" 1 searched

let test_both_fail () =
  (* Two different decisions: no order of the proposals explains both. *)
  let h = [ propose 0 0; propose 1 1; decided 0 0; decided 1 1 ] in
  Alcotest.(check bool) "the witness fails" false (L.witness consensus h);
  Alcotest.(check bool) "the search fails" false (L.check consensus h);
  let chaos, inc, searched = both h in
  Alcotest.(check string) "chaos monitor"
    "fail: service cons: history of 4 events not linearizable" chaos;
  Alcotest.(check string) "incremental monitor"
    "violation: window 1 (4 events, through event 4) admits no linearization" inc;
  Alcotest.(check int) "the search decided it" 1 searched

let suite =
  ( "chaos-witness",
    [
      Alcotest.test_case "witness-first ≡ search-only monitor on fleet mixed sweeps"
        `Quick test_fleet_differential;
      Alcotest.test_case "consensus: witness fails, search passes" `Quick
        test_witness_fails_search_passes;
      Alcotest.test_case "consensus: witness and search both fail" `Quick test_both_fail;
    ] )
