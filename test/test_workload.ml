(* The multi-shot RSM workload engine (ISSUE 10). The load-bearing pins:

   1. the incremental linearizability monitor is a differential twin of the
      monolithic Model.Linearize oracle on random small histories with
      random window boundaries — the window invariant says any partition
      into windows is exact, so the verdicts must coincide event-for-event;
   2. a deliberately non-linearizable batch is caught at its batch
      boundary, naming the window;
   2b. the monitor's return-order witness is pinned to a search-only
      reference (a fold of Model.Linearize.advance over the same cuts):
      same verdict and message on random histories, Ok with no search on
      linearizable histories whose returns come in linearization order,
      and an exact fallback when the witness fails;
   3. the engine survives random mixed fault timelines on a resilient
      protocol — crashed replicas rejoin, retried commands apply exactly
      once, the monitor stays green and agrees with the oracle — and
      replays byte-for-byte per seed;
   4. tob's serve run falls to its Thm 9 drop with a 1-minimal witness
      whose fault references stay inside the executed shot range. *)

open Helpers
module L = Model.Linearize
module LI = Workload.Linear_inc

let counter = Spec.Seq_counter.make ()

(* Random histories over two endpoints: a (call?, raw) draw becomes a Call
   of increment/read, or — when the endpoint has an outstanding call — a
   Return carrying a small count response. Responses are often-but-not-
   always plausible, so both verdicts occur. *)
let build_history choices =
  let outstanding = Array.make 2 0 in
  List.map
    (fun (ep, is_call, r) ->
      if is_call || outstanding.(ep) = 0 then begin
        outstanding.(ep) <- outstanding.(ep) + 1;
        L.Call
          {
            endpoint = ep;
            op = (if r mod 2 = 0 then Spec.Seq_counter.increment else Spec.Seq_counter.read);
          }
      end
      else begin
        outstanding.(ep) <- outstanding.(ep) - 1;
        L.Return { endpoint = ep; resp = Spec.Seq_counter.count r }
      end)
    choices

let qcheck_inc_vs_oracle =
  qtest "incremental monitor ≡ full oracle under random windows" ~count:500
    QCheck2.Gen.(
      list_size (int_bound 16) (quad (int_bound 1) bool (int_bound 3) bool))
    (fun draws ->
      let events = build_history (List.map (fun (e, c, r, _) -> e, c, r) draws) in
      let t = LI.create counter in
      List.iter2
        (fun ev (_, _, _, cut) ->
          LI.record t ev;
          if cut then ignore (LI.flush t))
        events draws;
      let incremental =
        match LI.finish t with
        | LI.Ok -> Some true
        | LI.Violation _ -> Some false
        | LI.Truncated _ -> None (* must not happen at this size *)
      in
      incremental = Some (L.check counter events))

let test_golden_batch_boundary () =
  let t = LI.create counter in
  (* Batch 1 is clean: one increment observing the initial 0. *)
  LI.record t (L.Call { endpoint = 0; op = Spec.Seq_counter.increment });
  LI.record t (L.Return { endpoint = 0; resp = Spec.Seq_counter.count 0 });
  (match LI.flush t with
  | LI.Ok -> ()
  | v -> Alcotest.failf "clean batch rejected: %s" (match v with
      | LI.Violation m | LI.Truncated m -> m
      | LI.Ok -> assert false));
  (* Batch 2 cannot linearize: a read claims the counter is at 5 when only
     one increment ever committed. The violation must land exactly at this
     batch's flush and name it. *)
  LI.record t (L.Call { endpoint = 1; op = Spec.Seq_counter.read });
  LI.record t (L.Return { endpoint = 1; resp = Spec.Seq_counter.count 5 });
  (match LI.flush t with
  | LI.Violation msg ->
    Alcotest.(check bool) "violation names batch 2" true (contains msg "window 2")
  | LI.Ok -> Alcotest.fail "non-linearizable batch passed"
  | LI.Truncated msg -> Alcotest.failf "truncated instead of caught: %s" msg);
  Alcotest.(check int) "caught at the second boundary" 2 (LI.windows t);
  (* Once violated, the verdict is sticky. *)
  LI.record t (L.Call { endpoint = 0; op = Spec.Seq_counter.read });
  (match LI.finish t with
  | LI.Violation _ -> ()
  | _ -> Alcotest.fail "verdict not sticky")

(* --- witness first, search on failure --- *)

(* Non-empty windows of [events], cut after event i when [cuts] says so (an
   empty flush closes no window). *)
let windows_of events cuts =
  let close cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go i cur acc = function
    | [] -> List.rev (close cur acc)
    | ev :: rest ->
      let cur = ev :: cur in
      if List.nth_opt cuts i = Some true then go (i + 1) [] (close cur acc) rest
      else go (i + 1) cur acc rest
  in
  go 0 [] [] events

(* The search-only reference: a fold of [L.advance] over the windows, with
   the verdict messages a search-only monitor gives. *)
let reference ?(max_nodes = 200_000) obj windows =
  let rec go frontier index through = function
    | [] -> LI.Ok
    | w :: rest -> (
      let size = List.length w in
      let through = through + size in
      match L.advance ~max_nodes obj frontier w with
      | None ->
        LI.Truncated
          (Printf.sprintf "window %d (%d events) exhausted the %d-node search budget" index
             size max_nodes)
      | Some [] ->
        LI.Violation
          (Printf.sprintf "window %d (%d events, through event %d) admits no linearization"
             index size through)
      | Some frontier -> go frontier (index + 1) through rest)
  in
  go (L.init_configs obj) 1 0 windows

(* The monitor fed the same windows: one flush per window, then finish. *)
let monitor ?max_nodes obj windows =
  let t = LI.create ?max_nodes obj in
  List.iter
    (fun w ->
      List.iter (LI.record t) w;
      ignore (LI.flush t))
    windows;
  ignore (LI.finish t);
  t

let verdict_string = function
  | LI.Ok -> "Ok"
  | LI.Violation m -> "Violation: " ^ m
  | LI.Truncated m -> "Truncated: " ^ m

(* A linearizable history by construction, shaped like the engine's: the
   ops [(endpoint, op)] run sequentially through δ in list order (that is
   the linearization), and each [choices] draw picks the next enabled
   action — call an endpoint's next op, linearize the next op once it is
   called, or return an endpoint's oldest linearized op. With [in_order]
   only the oldest linearized op overall may return, so returns come in
   linearization order, as the engine delivers them in commit order. The
   history stops when the draws run out, leaving calls pending. The
   response of each op is the [choices]-picked δ outcome, so
   nondeterministic types are covered too. *)
let constructed (obj : Spec.Seq_type.t) ~in_order ops choices =
  let ops = Array.of_list ops in
  let m = Array.length ops in
  let uncalled = Array.make 3 [] in
  Array.iteri (fun i (ep, _) -> uncalled.(ep) <- uncalled.(ep) @ [ i ]) ops;
  let called = Array.make m false in
  let resp = Array.make m Ioa.Value.Unit in
  let lin = ref 0 in
  let value = ref (List.hd obj.Spec.Seq_type.initials) in
  let unreturned = Array.make 3 [] in  (* per endpoint, oldest first *)
  let unreturned_all = ref [] in  (* oldest first *)
  let events = ref [] in
  let step draw =
    let actions =
      List.concat
        [
          List.filter_map
            (fun ep ->
              match uncalled.(ep) with
              | i :: rest ->
                Some
                  (fun () ->
                    uncalled.(ep) <- rest;
                    called.(i) <- true;
                    events := L.Call { endpoint = ep; op = snd ops.(i) } :: !events)
              | [] -> None)
            [ 0; 1; 2 ];
          (if !lin < m && called.(!lin) then
             [
               (fun () ->
                 let i = !lin in
                 let ep, op = ops.(i) in
                 let outcomes = obj.Spec.Seq_type.delta op !value in
                 let r, v' = List.nth outcomes (draw mod List.length outcomes) in
                 resp.(i) <- r;
                 value := v';
                 unreturned.(ep) <- unreturned.(ep) @ [ i ];
                 unreturned_all := !unreturned_all @ [ i ];
                 incr lin);
             ]
           else []);
          List.filter_map
            (fun ep ->
              match unreturned.(ep) with
              | i :: rest when (not in_order) || List.hd !unreturned_all = i ->
                Some
                  (fun () ->
                    unreturned.(ep) <- rest;
                    unreturned_all := List.filter (( <> ) i) !unreturned_all;
                    events := L.Return { endpoint = ep; resp = resp.(i) } :: !events)
              | _ -> None)
            [ 0; 1; 2 ];
        ]
    in
    match actions with
    | [] -> ()
    | _ -> (List.nth actions (draw mod List.length actions)) ()
  in
  List.iter step choices;
  List.rev !events

let register = Result.get_ok (Workload.Engine.obj_of_name "register")
let kset = Spec.Seq_kset.make ~k:2 ~n:3

let constructed_gen =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 8) (pair (int_bound 2) (int_bound 3)))
      (list_size (int_bound 60) (int_bound 1_000))
      (list_size (int_bound 30) bool))

let qcheck_witness_on_linearizable (name, obj, op_of) =
  qtest
    (Printf.sprintf "witness passes linearizable %s histories, search-free in return order"
       name)
    ~count:300 constructed_gen
    (fun (draws, choices, cuts) ->
      let ops = List.map (fun (ep, k) -> ep, op_of k) draws in
      List.for_all
        (fun in_order ->
          let events = constructed obj ~in_order ops choices in
          let windows = windows_of events cuts in
          let t = monitor obj windows in
          LI.verdict t = LI.Ok
          && L.check obj events
          && reference obj windows = LI.Ok
          && ((not in_order) || LI.searched t = 0))
        [ true; false ])

let witness_types =
  [
    ( "counter",
      counter,
      fun k -> if k = 0 then Spec.Seq_counter.read else Spec.Seq_counter.increment );
    ( "register",
      register,
      fun k -> if k = 0 then Spec.Seq_register.read else Spec.Seq_register.write (Ioa.Value.int k)
    );
    "kset", kset, fun k -> Spec.Seq_kset.init (k mod 3);
  ]

(* Random two-endpoint histories, under the default budget and under small
   ones that make the search truncate: verdict and message equal the
   reference's, except that a history whose witness never fails is Ok where
   the search alone may run out of budget. *)
let qcheck_witness_vs_search =
  qtest "witness-first monitor ≡ search-only reference, messages included" ~count:500
    QCheck2.Gen.(
      pair
        (list_size (int_bound 16) (quad (int_bound 1) bool (int_bound 3) bool))
        (oneofl [ 200_000; 40; 12 ]))
    (fun (draws, max_nodes) ->
      let events = build_history (List.map (fun (e, c, r, _) -> e, c, r) draws) in
      let windows = windows_of events (List.map (fun (_, _, _, cut) -> cut) draws) in
      let t = monitor ~max_nodes counter windows in
      match LI.verdict t, reference ~max_nodes counter windows with
      | LI.Ok, LI.Truncated _ -> LI.searched t = 0
      | ours, theirs ->
        ours = theirs
        || QCheck2.Test.fail_reportf "monitor %s, reference %s" (verdict_string ours)
             (verdict_string theirs))

let test_witness_fails_search_passes () =
  (* The return order (increment, then read) would make the read see 1;
     the read linearizes before the increment instead. *)
  let events =
    [
      L.Call { endpoint = 0; op = Spec.Seq_counter.increment };
      L.Call { endpoint = 1; op = Spec.Seq_counter.read };
      L.Return { endpoint = 0; resp = Spec.Seq_counter.count 0 };
      L.Return { endpoint = 1; resp = Spec.Seq_counter.count 0 };
    ]
  in
  let t = monitor counter [ events ] in
  Alcotest.(check string) "linearizable" "Ok" (verdict_string (LI.verdict t));
  Alcotest.(check bool) "the search decided it" true (LI.searched t >= 1)

let test_witness_fails_at_violation () =
  (* Windows 1 and 2 pass the witness; window 3's read claims 5 after two
     increments. The fallback replays 1 and 2, then names window 3. *)
  let windows =
    [
      [
        L.Call { endpoint = 0; op = Spec.Seq_counter.increment };
        L.Return { endpoint = 0; resp = Spec.Seq_counter.count 0 };
      ];
      [
        L.Call { endpoint = 1; op = Spec.Seq_counter.increment };
        L.Return { endpoint = 1; resp = Spec.Seq_counter.count 1 };
      ];
      [
        L.Call { endpoint = 0; op = Spec.Seq_counter.read };
        L.Return { endpoint = 0; resp = Spec.Seq_counter.count 5 };
      ];
    ]
  in
  let t = monitor counter windows in
  let ours = verdict_string (LI.verdict t) in
  Alcotest.(check string) "byte-equal to the search-only reference"
    (verdict_string (reference counter windows)) ours;
  Alcotest.(check bool) "names window 3" true (contains ours "window 3");
  Alcotest.(check int) "only the failing window was searched" 1 (LI.searched t)

(* --- the engine under random fault timelines --- *)

let engine_cfg ~seed ~kinds ~max_faults =
  {
    (Workload.Engine.default_config ~proto:"direct" ()) with
    Workload.Engine.clients = 4;
    ops = 60;
    rate = 6;
    batch = 8;
    pipeline = 2;
    rejoin_after = 10;
    catch_up_rate = 16;
    seed;
    kinds;
    max_faults;
    pin_oracle = true;
  }

let qcheck_engine_random_faults =
  let kinds =
    Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ]
  in
  qtest "engine survives random mixed faults exactly-once" ~count:12
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Workload.Engine.run (engine_cfg ~seed ~kinds ~max_faults:2) in
      let served =
        match r.Workload.Report.outcome with
        | Workload.Report.Served | Workload.Report.Degraded _ -> true
        | _ -> false
      in
      served
      && r.Workload.Report.duplicate_applications = 0
      && r.Workload.Report.lin = LI.Ok
      && r.Workload.Report.lin_searched = 0
      && r.Workload.Report.oracle_pinned = Some true)

let qcheck_seeded_replay =
  qtest "seeded runs replay byte-for-byte" ~count:8
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let cfg =
        engine_cfg ~seed ~kinds:Chaos.Schedule.[ Crash_k; Partition_k ] ~max_faults:2
      in
      String.equal
        (Workload.Report.render (Workload.Engine.run cfg))
        (Workload.Report.render (Workload.Engine.run cfg)))

(* Crash/rejoin and duplicate resubmission on a fixed timeline: the crash
   forces client failover and retry; the replica must come back via log
   replay, and the retried (client, seq) commands must not apply twice. *)
let test_crash_rejoin_exactly_once () =
  let schedule =
    match Chaos.Schedule.parse "crash@4:1,crash@9:2" with
    | Ok s -> Some s
    | Error e -> Alcotest.fail e
  in
  let cfg =
    { (engine_cfg ~seed:3 ~kinds:[] ~max_faults:0) with
      Workload.Engine.ops = 120;
      rejoin_after = 8;
      schedule;
    }
  in
  let r = Workload.Engine.run cfg in
  (match r.Workload.Report.outcome with
  | Workload.Report.Served -> ()
  | o -> Alcotest.failf "expected SERVED, got %a" Workload.Report.pp_outcome o);
  Alcotest.(check int) "all ops completed" 120 r.Workload.Report.completed;
  Alcotest.(check bool) "both crashes rejoined" true (r.Workload.Report.rejoins = 2);
  Alcotest.(check bool) "catch-up replayed the log" true
    (r.Workload.Report.catch_up_replayed > 0);
  Alcotest.(check int) "no duplicate application" 0
    r.Workload.Report.duplicate_applications;
  Alcotest.(check bool) "monitor green" true (r.Workload.Report.lin = LI.Ok);
  Alcotest.(check (option bool)) "oracle pinned" (Some true)
    r.Workload.Report.oracle_pinned

(* --- the shrunk serve witness stays inside the executed range --- *)

let test_tob_witness_clamped () =
  let schedule =
    match Chaos.Schedule.parse "drop@6:tob:0" with
    | Ok s -> Some s
    | Error e -> Alcotest.fail e
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
  match r.Workload.Report.outcome with
  | Workload.Report.Shot_violation { minimized; candidates; runs; _ } ->
    Alcotest.(check bool) "shrinker actually ran" true (candidates > 0 && runs > 0);
    (match Chaos.Schedule.parse minimized with
    | Error e -> Alcotest.failf "minimized witness does not parse: %s" e
    | Ok m ->
      Alcotest.(check int) "1-minimal" 1 (Chaos.Schedule.n_faults m);
      List.iter
        (fun fault ->
          let step =
            match fault with
            | Chaos.Schedule.Crash { step; _ }
            | Chaos.Schedule.Silence { step; _ }
            | Chaos.Schedule.Drop { step; _ }
            | Chaos.Schedule.Duplicate { step; _ }
            | Chaos.Schedule.Delay { step; _ }
            | Chaos.Schedule.Partition { step; _ } ->
              step
          in
          (* The violating shot runs for ~18 steps; a clamped witness cannot
             reference a step far beyond it (the pre-clamp failure mode was
             heal/step references at the shrinker's untouched midpoints). *)
          Alcotest.(check bool)
            (Printf.sprintf "fault step %d inside the executed shot range" step)
            true (step <= 50))
        m.Chaos.Schedule.faults)
  | o -> Alcotest.failf "expected a shot violation on tob, got %a" Workload.Report.pp_outcome o

(* --- Schedule.map_steps: the rebase used to carry engine-tick faults into
   a shot's step space --- *)

let test_map_steps_keeps_heal_after_onset () =
  let s =
    Chaos.Schedule.make
      [ Chaos.Schedule.partition ~step:5 ~blocks:[ [ 0 ] ] ~heal_at:40 ]
  in
  (* A collapsing map would put the heal at or before the onset; map_steps
     must keep it strictly after. *)
  let s' = Chaos.Schedule.map_steps (fun _ -> 3) s in
  match s'.Chaos.Schedule.faults with
  | [ Chaos.Schedule.Partition { step; heal_at; _ } ] ->
    Alcotest.(check int) "onset mapped" 3 step;
    Alcotest.(check bool) "heal strictly after onset" true (heal_at > step)
  | _ -> Alcotest.fail "partition lost by map_steps"

let suite =
  ( "workload",
    [
      qcheck_inc_vs_oracle;
      Alcotest.test_case "non-linearizable batch caught at its boundary" `Quick
        test_golden_batch_boundary;
      qcheck_witness_vs_search;
    ]
    @ List.map qcheck_witness_on_linearizable witness_types
    @ [
      Alcotest.test_case "witness fails, search passes" `Quick
        test_witness_fails_search_passes;
      Alcotest.test_case "witness fails at a non-linearizable window" `Quick
        test_witness_fails_at_violation;
      qcheck_engine_random_faults;
      qcheck_seeded_replay;
      Alcotest.test_case "crash/rejoin applies retried ops exactly once" `Quick
        test_crash_rejoin_exactly_once;
      Alcotest.test_case "tob serve witness is 1-minimal and clamped" `Quick
        test_tob_witness_clamped;
      Alcotest.test_case "map_steps keeps partition heal after onset" `Quick
        test_map_steps_keeps_heal_after_onset;
    ] )
