(* The parallel deduplicated explorer, pinned to the sequential oracle.

   The sequential Explore.run path is untouched by the parallel engine and
   serves as the trusted oracle: on small spaces (n ≤ 3, horizon ≤ 6, ≤ 2
   faults) the parallel explorer must report the same violation-or-clean
   verdict and the same examined/space counts at every -j, with and without
   fingerprint dedup. QCheck properties cover fingerprint soundness and the
   order-insensitivity of report merging; a regression case nails the
   silent-budget footgun on the parallel path. *)

open Helpers

let small_config _sys ~max_faults ~horizon =
  { Chaos.Explore.max_faults; horizon; stride = 1; budget = 100_000; max_steps = 2_000;
    kinds = [ Chaos.Schedule.Crash_k ]; degrade = false }

(* The violation signature the differential test compares: everything but
   the exec (which the runner reproduces deterministically anyway). *)
let viol_sig (v : Chaos.Explore.violation) =
  Chaos.Schedule.to_string v.Chaos.Explore.schedule
  ^ "|" ^ v.Chaos.Explore.monitor ^ "|" ^ v.Chaos.Explore.reason
  ^ "|" ^ string_of_bool v.Chaos.Explore.proven

let verdict r = Option.map viol_sig r.Chaos.Explore.violation

(* --- The differential table: both explorers against per-schedule runs ---

   Each row fixes a system and an exploration config. The reference is
   {!Chaos.Runner.run} on every enumerated schedule from the initial state.
   Three things must match it:

   - the checkpoint contract itself: every schedule resumed from its
     parent's stem ({!Chaos.Schedule.parent}, {!Chaos.Runner.stem}) gives
     the identical result — steps, stop, truncations, counters, the whole
     event list and the final state;
   - the sequential explorer's report, field for field, including the
     violation's execution;
   - the parallel explorer without dedup, record by record (at -j 1, 2, 4),
     and with dedup in every verdict-bearing field. *)

type row = {
  name : string;
  sys : Model.System.t;
  k : int;  (* agreement width *)
  kinds : Chaos.Schedule.kind list;
  max_faults : int;
  horizon : int;
  degrade : bool;
  budget : int;
  max_steps : int;
  interleave : Chaos.Runner.interleave option;
  stop_after : int option;  (* the wall-clock thunk fires after this many polls *)
  par : bool;
}

let row ?(k = 1) ?(kinds = [ Chaos.Schedule.Crash_k ]) ?(degrade = false)
    ?(budget = 100_000) ?(max_steps = 2_000) ?interleave ?stop_after ?(par = true) name sys
    ~max_faults ~horizon =
  { name; sys; k; kinds; max_faults; horizon; degrade; budget; max_steps; interleave;
    stop_after; par }

let row_config r =
  { Chaos.Explore.max_faults = r.max_faults; horizon = r.horizon; stride = 1;
    budget = r.budget; max_steps = r.max_steps; kinds = r.kinds; degrade = r.degrade }

let trunc_string (m, c, why) =
  Printf.sprintf "%s/%s/%s" m (Chaos.Monitor.category_name c) why

let result_sig (r : Chaos.Runner.result) =
  Format.asprintf "%d|%a|%s|%d|%d|%d" r.Chaos.Runner.steps Chaos.Runner.pp_stop
    r.Chaos.Runner.stop
    (String.concat ";" (List.map trunc_string r.Chaos.Runner.monitor_truncations))
    r.Chaos.Runner.undelivered_crashes r.Chaos.Runner.undelivered_net
    r.Chaos.Runner.vacuous_net_faults

let exec_testable =
  Alcotest.testable
    (fun ppf e -> Format.fprintf ppf "<%d steps>" (Model.Exec.length e))
    (fun a b ->
      List.equal Model.Event.equal (Model.Exec.events a) (Model.Exec.events b)
      && Model.State.equal (Model.Exec.last_state a) (Model.Exec.last_state b))

(* Every schedule run from a checkpoint of its parent's stem. [~upto:0]
   makes every stem grow on demand. *)
let resumed_runner ~monitors ~max_steps ?interleave sys =
  let stems = Hashtbl.create 16 in
  let checkpoint schedule =
    let rec stem_of p =
      let key = Chaos.Schedule.to_string p in
      match Hashtbl.find_opt stems key with
      | Some st -> st
      | None ->
        let st =
          Chaos.Runner.stem ~monitors ~max_steps ?interleave ?prefix:(checkpoint_of p)
            ~schedule:p ~upto:0 sys
        in
        Hashtbl.add stems key st;
        st
    and checkpoint_of s =
      Option.map (fun (p, d) -> Chaos.Runner.at (stem_of p) d) (Chaos.Schedule.parent s)
    in
    checkpoint_of schedule
  in
  fun schedule ->
    Chaos.Runner.run ~monitors ~max_steps ?interleave ?prefix:(checkpoint schedule)
      ~schedule sys

let check_row r =
  let cfg = row_config r in
  let monitors = Chaos.Monitor.defaults ~k:r.k ~degrade:r.degrade () in
  let tag s = r.name ^ ": " ^ s in
  let scheduled =
    Array.of_seq (Seq.take r.budget (Chaos.Explore.schedules r.sys cfg))
  in
  let reference =
    Array.map
      (fun schedule ->
        Chaos.Runner.run ~monitors ~max_steps:r.max_steps ?interleave:r.interleave ~schedule
          r.sys)
      scheduled
  in
  (* The checkpoint contract, schedule by schedule. *)
  let resumed =
    resumed_runner ~monitors ~max_steps:r.max_steps ?interleave:r.interleave r.sys
  in
  Array.iteri
    (fun i schedule ->
      let got = resumed schedule in
      let what = tag (Chaos.Schedule.to_string schedule) in
      Alcotest.(check string) what (result_sig reference.(i)) (result_sig got);
      Alcotest.check exec_testable what reference.(i).Chaos.Runner.exec
        got.Chaos.Runner.exec)
    scheduled;
  (* The sequential scan the explorer must reproduce: stop polled first,
     then the enumeration budget, then the run; the first violation ends
     it. *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    match r.stop_after with Some n -> !polls > n | None -> false
  in
  let rec scan i =
    if i >= Array.length scheduled then i, `Done
    else if r.stop_after <> None && !polls >= Option.get r.stop_after then i, `Wall
    else (
      incr polls;
      match reference.(i).Chaos.Runner.stop with
      | Chaos.Runner.Violation _ -> i + 1, `Violation
      | _ -> scan (i + 1))
  in
  let examined, ended = scan 0 in
  polls := 0;
  let seq = Chaos.Explore.run ~monitors ?interleave:r.interleave ~config:cfg ~stop r.sys in
  let kept = Array.sub reference 0 examined in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 kept in
  let space = Chaos.Explore.space_size r.sys cfg in
  Alcotest.(check int) (tag "examined") examined seq.Chaos.Explore.examined;
  Alcotest.(check bool) (tag "truncated")
    (ended = `Done && examined = r.budget && r.budget < space)
    seq.Chaos.Explore.truncated;
  Alcotest.(check bool) (tag "wall-truncated") (ended = `Wall)
    seq.Chaos.Explore.wall_truncated;
  Alcotest.(check int) (tag "step budget hits")
    (sum (fun x -> if x.Chaos.Runner.stop = Chaos.Runner.Budget then 1 else 0))
    seq.Chaos.Explore.step_budget_hits;
  Alcotest.(check int) (tag "monitor truncations")
    (sum (fun x -> List.length x.Chaos.Runner.monitor_truncations))
    seq.Chaos.Explore.monitor_truncations;
  Alcotest.(check int) (tag "undelivered crashes")
    (sum (fun x -> x.Chaos.Runner.undelivered_crashes))
    seq.Chaos.Explore.undelivered_crashes;
  Alcotest.(check int) (tag "undelivered net")
    (sum (fun x -> x.Chaos.Runner.undelivered_net))
    seq.Chaos.Explore.undelivered_net;
  Alcotest.(check int) (tag "vacuous")
    (sum (fun x -> x.Chaos.Runner.vacuous_net_faults))
    seq.Chaos.Explore.vacuous_net_faults;
  let expected_violation =
    match ended with
    | `Violation -> (
      let x = reference.(examined - 1) in
      match x.Chaos.Runner.stop with
      | Chaos.Runner.Violation { monitor; reason; proven } ->
        Some
          ( Chaos.Schedule.to_string scheduled.(examined - 1),
            monitor,
            reason,
            proven,
            x.Chaos.Runner.steps,
            x.Chaos.Runner.exec )
      | _ -> None)
    | `Done | `Wall -> None
  in
  let viol_full (v : Chaos.Explore.violation) =
    ( Chaos.Schedule.to_string v.Chaos.Explore.schedule,
      v.Chaos.Explore.monitor,
      v.Chaos.Explore.reason,
      v.Chaos.Explore.proven,
      v.Chaos.Explore.steps,
      v.Chaos.Explore.exec )
  in
  let viol_testable =
    Alcotest.(
      option (pair (pair string string) (pair string (pair bool (pair int exec_testable)))))
  in
  let nest = Option.map (fun (s, m, why, p, st, e) -> (s, m), (why, (p, (st, e)))) in
  Alcotest.check viol_testable (tag "violation") (nest expected_violation)
    (nest (Option.map viol_full seq.Chaos.Explore.violation));
  if r.par then
    List.iter
      (fun j ->
        let tag s = tag (Printf.sprintf "-j%d %s" j s) in
        let records = ref [] in
        let par =
          Chaos.Explore.run_par ~monitors ?interleave:r.interleave ~config:cfg ~domains:j
            ~dedup:false
            ~record_sink:(fun rs -> records := rs)
            r.sys
        in
        List.iter
          (fun (rec_ : Chaos.Explore.run_record) ->
            let x = reference.(rec_.Chaos.Explore.rank) in
            let what = tag (Printf.sprintf "record %d" rec_.Chaos.Explore.rank) in
            Alcotest.(check (list int)) what
              [
                (if x.Chaos.Runner.stop = Chaos.Runner.Budget then 1 else 0);
                List.length x.Chaos.Runner.monitor_truncations;
                x.Chaos.Runner.undelivered_crashes;
                x.Chaos.Runner.undelivered_net;
                x.Chaos.Runner.vacuous_net_faults;
              ]
              [
                (if rec_.Chaos.Explore.budget_hit then 1 else 0);
                rec_.Chaos.Explore.truncations;
                rec_.Chaos.Explore.undelivered;
                rec_.Chaos.Explore.undelivered_n;
                rec_.Chaos.Explore.vacuous;
              ];
            Alcotest.(check bool) (what ^ " violation")
              (match x.Chaos.Runner.stop with Chaos.Runner.Violation _ -> true | _ -> false)
              (rec_.Chaos.Explore.found <> None))
          !records;
        Alcotest.(check int) (tag "examined") seq.Chaos.Explore.examined
          par.Chaos.Explore.examined;
        Alcotest.(check bool) (tag "truncated") seq.Chaos.Explore.truncated
          par.Chaos.Explore.truncated;
        Alcotest.(check int) (tag "step budget hits") seq.Chaos.Explore.step_budget_hits
          par.Chaos.Explore.step_budget_hits;
        Alcotest.(check int) (tag "monitor truncations")
          seq.Chaos.Explore.monitor_truncations par.Chaos.Explore.monitor_truncations;
        Alcotest.(check int) (tag "undelivered") seq.Chaos.Explore.undelivered_crashes
          par.Chaos.Explore.undelivered_crashes;
        Alcotest.(check int) (tag "dedup hits (off)") 0 par.Chaos.Explore.dedup_hits;
        Alcotest.(check (option string)) (tag "verdict") (verdict seq) (verdict par);
        (* With dedup, the verdict and the examined/space/truncated counts
           still coincide (pruning inherits proven verdicts, never invents
           or suppresses them); only monitor_truncations may undercount. *)
        let ded =
          Chaos.Explore.run_par ~monitors ?interleave:r.interleave ~config:cfg ~domains:j
            ~dedup:true r.sys
        in
        Alcotest.(check int) (tag "dedup examined") seq.Chaos.Explore.examined
          ded.Chaos.Explore.examined;
        Alcotest.(check int) (tag "dedup space") seq.Chaos.Explore.space
          ded.Chaos.Explore.space;
        Alcotest.(check bool) (tag "dedup truncated") seq.Chaos.Explore.truncated
          ded.Chaos.Explore.truncated;
        Alcotest.(check int) (tag "dedup step budget hits")
          seq.Chaos.Explore.step_budget_hits ded.Chaos.Explore.step_budget_hits;
        Alcotest.(check int) (tag "dedup undelivered") seq.Chaos.Explore.undelivered_crashes
          ded.Chaos.Explore.undelivered_crashes;
        Alcotest.(check bool) (tag "dedup truncations bounded") true
          (ded.Chaos.Explore.monitor_truncations <= seq.Chaos.Explore.monitor_truncations);
        Alcotest.(check (option string)) (tag "dedup verdict") (verdict seq) (verdict ded))
      [ 1; 2; 4 ]

let test_differential_direct () =
  List.iter check_row
    [
      row "direct f=1" (Protocols.Direct.system ~n:2 ~f:1) ~max_faults:2 ~horizon:6;
      row "direct f=0" (Protocols.Direct.system ~n:2 ~f:0) ~max_faults:1 ~horizon:5;
      row "direct n=3" (Protocols.Direct.system ~n:3 ~f:2) ~max_faults:2 ~horizon:4;
    ]

let test_differential_tob () =
  List.iter check_row
    [
      row "tob f=0" (Protocols.Tob_direct.system ~n:2 ~f:0) ~max_faults:1 ~horizon:5;
      row "tob f=1" (Protocols.Tob_direct.system ~n:2 ~f:1) ~max_faults:2 ~horizon:6;
    ]

(* Every registry protocol at n=3, f=1 under three fault-kind sets, plain
   and degrade-aware. The budget keeps each row to the fault-free run, all
   one-fault schedules and the first two-fault template subsets. *)
let registry_rows ~degrade =
  let params = { Protocols.Registry.default_params with n = 3; f = 1 } in
  List.concat_map
    (fun (e : Protocols.Registry.entry) ->
      let sys = e.Protocols.Registry.build params in
      List.map
        (fun (label, kinds) ->
          row
            (Printf.sprintf "%s %s%s" e.Protocols.Registry.name label
               (if degrade then " degrade" else ""))
            sys ~k:(e.Protocols.Registry.k_of params) ~kinds ~degrade ~max_faults:2
            ~horizon:4
            ~budget:120 ~par:false)
        Chaos.Schedule.
          [
            "crash", [ Crash_k ];
            "net", [ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ];
            "silence", [ Silence_k ];
          ])
    Protocols.Registry.all

let test_differential_registry () = List.iter check_row (registry_rows ~degrade:false)
let test_differential_registry_degrade () =
  List.iter check_row (registry_rows ~degrade:true)

(* Runs cut short: by the enumeration budget, by a small step budget (stems
   end at it too), by the wall-clock thunk; a violating space, where the
   first violation and [examined] must match; and seeded interleaving. *)
let test_differential_cuts () =
  let direct = Protocols.Direct.system ~n:3 ~f:1
  and tob = Protocols.Tob_direct.system ~n:2 ~f:0 in
  let split =
    (Option.get (Protocols.Registry.find "split")).Protocols.Registry.build
      { Protocols.Registry.default_params with n = 3; f = 1 }
  in
  let net = Chaos.Schedule.[ Crash_k; Drop_k; Dup_k; Delay_k; Partition_k ] in
  List.iter check_row
    [
      row "enumeration budget" direct ~kinds:net ~max_faults:2 ~horizon:5 ~budget:37;
      row "step budget" direct ~kinds:net ~max_faults:2 ~horizon:6 ~budget:200 ~max_steps:9;
      row "step budget inside the horizon" direct ~kinds:net ~max_faults:2 ~horizon:8
        ~budget:300 ~max_steps:5;
      (* split's fault-free run breaks agreement at step 11: stems end at
         that cut, and so does every schedule that diverges later. *)
      row "safety cut" split ~max_faults:2 ~horizon:14;
      row "safety cut, net kinds" split ~kinds:net ~max_faults:2 ~horizon:13 ~budget:400;
      row "wall stop" direct ~kinds:net ~max_faults:2 ~horizon:5 ~stop_after:70 ~par:false;
      row "violation" tob ~kinds:net ~max_faults:2 ~horizon:6;
      row "register-wait violation" (Protocols.Register_wait.system ()) ~max_faults:2
        ~horizon:6;
      row "seeded" direct ~kinds:net ~max_faults:2 ~horizon:4 ~budget:150
        ~interleave:(Chaos.Runner.Seeded 7);
      row "seeded violation" tob ~kinds:net ~max_faults:1 ~horizon:6
        ~interleave:(Chaos.Runner.Seeded 11);
    ]

(* --- Satellite 2: fingerprint soundness --- *)

(* Structurally equal configurations get equal fingerprints, even when
   rebuilt through fresh arrays (no physical sharing). *)
let test_fingerprint_structural () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:2 ~pid:1 ] in
  let r = Chaos.Runner.run ~schedule ~max_steps:500 sys in
  let s = Model.Exec.last_state (r.Chaos.Runner.exec) in
  let rebuilt = Model.State.with_proc s 0 s.Model.State.procs.(0) in
  Alcotest.check state_testable "rebuilt state equal" s rebuilt;
  Alcotest.(check int) "equal states, equal fingerprints" (Model.State.fingerprint s)
    (Model.State.fingerprint rebuilt);
  (* The observable-history fingerprint ignores crash placement. *)
  let obs = Model.Exec.obs_fingerprint r.Chaos.Runner.exec in
  let crashed = Model.Exec.append_fail sys r.Chaos.Runner.exec 0 in
  Alcotest.(check int) "obs fingerprint blind to fail events" obs
    (Model.Exec.obs_fingerprint crashed);
  Alcotest.(check bool) "distinct decisions, distinct state fingerprints" true
    (Model.State.fingerprint s
    <> Model.State.fingerprint (Model.State.with_decision s 0 (Ioa.Value.int 7)))

(* Deterministic replay of the same schedule reaches fingerprint-identical
   configurations at every prefix. *)
let qcheck_fingerprint_replay =
  let gen = QCheck2.Gen.(pair (int_bound 5) (int_bound 1)) in
  qtest "equal exec prefixes have equal fingerprints" ~count:50 gen (fun (step, pid) ->
      let sys = Protocols.Direct.system ~n:2 ~f:1 in
      let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step ~pid ] in
      let r1 = Chaos.Runner.run ~schedule ~max_steps:300 sys in
      let r2 = Chaos.Runner.run ~schedule ~max_steps:300 sys in
      let s1 = Model.Exec.last_state r1.Chaos.Runner.exec
      and s2 = Model.Exec.last_state r2.Chaos.Runner.exec in
      Model.State.equal s1 s2
      && Model.State.fingerprint s1 = Model.State.fingerprint s2
      && Model.Exec.obs_fingerprint r1.Chaos.Runner.exec
         = Model.Exec.obs_fingerprint r2.Chaos.Runner.exec)

(* Dedup never suppresses a violation the no-dedup explorer finds: on
   sampled configurations, run both and compare verdicts (and counts). *)
let qcheck_dedup_preserves_verdicts =
  let gen = QCheck2.Gen.(triple (int_range 0 2) (int_range 1 6) (int_bound 2)) in
  qtest "dedup preserves verdicts" ~count:40 gen (fun (max_faults, horizon, which) ->
      let sys =
        match which with
        | 0 -> Protocols.Direct.system ~n:2 ~f:0
        | 1 -> Protocols.Direct.system ~n:2 ~f:1
        | _ -> Protocols.Register_wait.system ()
      in
      let config = small_config sys ~max_faults ~horizon in
      let plain = Chaos.Explore.run_par ~config ~domains:1 ~dedup:false sys in
      let ded = Chaos.Explore.run_par ~config ~domains:1 ~dedup:true sys in
      verdict plain = verdict ded && plain.Chaos.Explore.examined = ded.Chaos.Explore.examined)

(* --- Satellite 3: merging is associative / order-insensitive --- *)

let qcheck_merge_order_insensitive =
  (* One shared violating run provides realistic violation payloads. *)
  let sys = Protocols.Register_wait.system () in
  let exec =
    (Chaos.Runner.run ~schedule:Chaos.Schedule.empty ~max_steps:200 sys).Chaos.Runner.exec
  in
  let record_gen rank =
    QCheck2.Gen.(
      let* budget_hit = bool and* truncations = int_bound 3 and* undelivered = int_bound 2 in
      let* deduped = bool and* statically_pruned = bool and* por_pruned = bool in
      let* violating = int_bound 4 in
      let* step = int_bound 6 and* pid = int_bound 1 and* proven = bool in
      let found =
        if violating = 0 then
          Some
            Chaos.Explore.
              {
                schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step ~pid ];
                monitor = (if proven then "f-termination" else "agreement");
                reason = "generated";
                proven;
                exec;
                steps = Model.Exec.length exec;
                degraded_to = None;
              }
        else None
      in
      return
        Chaos.Explore.
          {
            rank;
            budget_hit;
            truncations;
            undelivered;
            undelivered_n = 0;
            vacuous = 0;
            deduped;
            statically_pruned;
            por_pruned;
            parent = None;
            found;
          })
  in
  let gen =
    QCheck2.Gen.(
      let* n = int_range 0 24 in
      let* records = flatten_l (List.init n record_gen) in
      let* shuffled = shuffle_l records in
      let* owners = list_repeat n (int_bound 3) in
      return (records, shuffled, owners, n))
  in
  let report_sig (r : Chaos.Explore.report) =
    Format.asprintf "%d/%d/%b/%d/%d/%d/%d/%d/%d/%s" r.Chaos.Explore.examined
      r.Chaos.Explore.space r.Chaos.Explore.truncated r.Chaos.Explore.step_budget_hits
      r.Chaos.Explore.monitor_truncations r.Chaos.Explore.undelivered_crashes
      r.Chaos.Explore.dedup_hits r.Chaos.Explore.static_prunes r.Chaos.Explore.por_prunes
      (Option.value (verdict r) ~default:"clean")
  in
  qtest "merge is order- and partition-insensitive" ~count:100 gen
    (fun (records, shuffled, owners, n) ->
      let space = n + 5 and scheduled = n in
      let flat = Chaos.Explore.merge ~space ~scheduled [ records ] in
      (* Partition the shuffled records across 4 "workers" and merge. *)
      let buckets = Array.make 4 [] in
      List.iteri
        (fun i r ->
          let w = List.nth owners i in
          buckets.(w) <- r :: buckets.(w))
        shuffled;
      let split = Chaos.Explore.merge ~space ~scheduled (Array.to_list buckets) in
      report_sig flat = report_sig split)

(* --- Satellite 4: the silent-budget footgun stays dead --- *)

let test_silent_budget_regression () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  let config =
    { (small_config sys ~max_faults:1 ~horizon:6) with Chaos.Explore.budget = 3 }
  in
  let check name (r : Chaos.Explore.report) =
    Alcotest.(check bool) (name ^ ": space exceeds budget") true (r.Chaos.Explore.space > 3);
    Alcotest.(check int) (name ^ ": examined = budget") 3 r.Chaos.Explore.examined;
    Alcotest.(check bool) (name ^ ": truncated flagged") true r.Chaos.Explore.truncated;
    (* The footgun: a clean verdict on a partial sweep without the flag. *)
    Alcotest.(check bool) (name ^ ": no silent clean verdict") false
      (r.Chaos.Explore.violation = None
      && r.Chaos.Explore.examined < r.Chaos.Explore.space
      && not r.Chaos.Explore.truncated)
  in
  check "sequential" (Chaos.Explore.run ~config sys);
  check "par j=2 dedup" (Chaos.Explore.run_par ~config ~domains:2 ~dedup:true sys);
  check "par j=4 no-dedup" (Chaos.Explore.run_par ~config ~domains:4 ~dedup:false sys)

(* --- Driver integration: -j routes through the parallel engine --- *)

let test_driver_parallel () =
  let sys = Protocols.Register_wait.system () in
  let config = { (Chaos.Explore.default_config sys) with Chaos.Explore.max_faults = 1 } in
  let seq = Chaos.Driver.run ~shrink:false (Chaos.Driver.Systematic config) sys in
  let par = Chaos.Driver.run ~shrink:false ~domains:4 (Chaos.Driver.Systematic config) sys in
  let monitor_of r =
    match r.Chaos.Driver.outcome with
    | Chaos.Driver.Passed -> None
    | Chaos.Driver.Violated { original; _ } -> Some original.Chaos.Explore.monitor
  in
  Alcotest.(check (option string)) "same monitor violated" (monitor_of seq) (monitor_of par);
  Alcotest.(check int) "same examined" seq.Chaos.Driver.examined par.Chaos.Driver.examined

let suite =
  ( "chaos-par",
    [
      Alcotest.test_case "differential: direct at -j 1,2,4" `Quick test_differential_direct;
      Alcotest.test_case "differential: tob at -j 1,2,4" `Quick test_differential_tob;
      Alcotest.test_case "differential: registry x kinds" `Quick test_differential_registry;
      Alcotest.test_case "differential: registry x kinds, degrade" `Quick
        test_differential_registry_degrade;
      Alcotest.test_case "differential: budget, stop, violation, seeded" `Quick
        test_differential_cuts;
      Alcotest.test_case "fingerprints are structural" `Quick test_fingerprint_structural;
      qcheck_fingerprint_replay;
      qcheck_dedup_preserves_verdicts;
      qcheck_merge_order_insensitive;
      Alcotest.test_case "silent-budget regression (seq + par)" `Quick
        test_silent_budget_regression;
      Alcotest.test_case "driver -j parity" `Quick test_driver_parallel;
    ] )
