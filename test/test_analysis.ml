(* The abstract-interpretation analyzer, pinned to the exact engine.

   Soundness is differential: on registry protocols small enough to
   materialize G(C), the abstract may-decided set of the seed (failure-free)
   context must over-approximate the exact reachable-decision mask computed
   by Valence.analyze at the root. A golden lint on a deliberately flawed
   candidate checks the blank-protocol diagnostic, and the static pruning
   oracle is pinned to the unpruned explorer: identical reports while
   skipping a nonzero number of schedules. The sharing-aware lattice
   operations are pinned to references that ignore physical sharing. *)

open Ioa
open Helpers
module E = Engine
module A = Analysis

(* --- domain units --- *)

let interval_testable = Alcotest.testable A.Interval.pp A.Interval.equal

let test_interval () =
  let open A.Interval in
  Alcotest.check interval_testable "hull" (range 1 4) (hull [ 4; 1; 2 ]);
  Alcotest.check interval_testable "add saturates at 0" (range 0 1) (add (range 0 2) (-1));
  Alcotest.check interval_testable "stretch" (range 1 3) (stretch (range 1 2) 1);
  Alcotest.check interval_testable "pred" (range 0 1) (pred (range 1 2));
  Alcotest.(check bool) "mem inf" true (mem 1_000_000 (unbounded 3));
  Alcotest.(check bool) "bot empty" false (mem 0 bot);
  (* Widening: an unstable upper bound must jump to ∞, and the result must
     bound both arguments. *)
  let w = widen (range 0 1) (range 0 2) in
  Alcotest.(check bool) "widen covers" true (leq (range 0 2) w);
  Alcotest.check interval_testable "widen jumps" (unbounded 0) w;
  Alcotest.check interval_testable "widen stable" (range 0 5) (widen (range 0 5) (range 1 4))

let test_vset_cap () =
  let open A.Vset in
  let vs = List.init (cap + 1) Value.int in
  Alcotest.(check bool) "over cap collapses" true (is_top (of_list vs));
  let s = of_list (List.init cap Value.int) in
  Alcotest.(check bool) "at cap stays finite" false (is_top s);
  Alcotest.(check bool) "top absorbs" true (is_top (add (Value.int cap) s));
  Alcotest.(check bool) "mem top" true (mem (Value.str "anything") top);
  Alcotest.(check bool) "join monotone" true (leq s (join s (singleton (Value.int 0))))

let test_fixpoint_chain () =
  (* x0 = [0,0]; x(i) ⊇ x(i-1) + 1; x1 additionally feeds back into itself,
     so only widening terminates — and the solution must be a
     post-fixpoint. *)
  let module F = A.Fixpoint.Make (A.Interval) in
  let rhs ~get u =
    if u = 0 then A.Interval.zero
    else A.Interval.join (A.Interval.add (get (u - 1)) 1) (A.Interval.add (get u) 1)
  in
  let dependents u = if u < 2 then [ u + 1; u ] else [ u ] in
  let sol, stats = F.solve ~n:3 ~bot:A.Interval.bot ~rhs ~dependents () in
  Alcotest.check interval_testable "seed exact" A.Interval.zero sol.(0);
  Alcotest.(check bool) "widened to ∞" true
    (A.Interval.equal sol.(1) (A.Interval.unbounded 1));
  for u = 0 to 2 do
    Alcotest.(check bool) "post-fixpoint" true
      (A.Interval.leq (rhs ~get:(fun v -> sol.(v)) u) sol.(u))
  done;
  Alcotest.(check bool) "widenings counted" true (stats.A.Fixpoint.widenings > 0)

(* --- soundness vs the exact engine --- *)

(* Registry protocols whose G(C) materializes quickly at default params and
   whose decisions are binary (Valence.analyze's precondition). *)
let small_protocols = [ "direct"; "split"; "register-vote"; "register-wait"; "tob"; "tas"; "queue" ]

let build name =
  match Protocols.Registry.find name with
  | Some e -> e.Protocols.Registry.build Protocols.Registry.default_params
  | None -> Alcotest.failf "unknown registry protocol %s" name

let concrete_decided sys inputs =
  let g = E.Graph.explore sys (Model.System.initialize sys (int_inputs inputs)) in
  if not (E.Graph.complete g) then None
  else
    let a = E.Valence.analyze g in
    Some
      (match E.Valence.verdict a (E.Graph.root g) with
      | E.Valence.Blank -> []
      | E.Valence.Zero_valent -> [ 0 ]
      | E.Valence.One_valent -> [ 1 ]
      | E.Valence.Bivalent -> [ 0; 1 ])

let qcheck_abstract_over_approximates =
  let gen =
    QCheck2.Gen.(
      let* which = int_bound (List.length small_protocols - 1) in
      let* bits = list_repeat 2 (int_bound 1) in
      return (List.nth small_protocols which, bits))
  in
  qtest "abstract may-decided ⊇ exact root valence" ~count:60 gen (fun (name, inputs) ->
      let sys = build name in
      match concrete_decided sys inputs with
      | None -> QCheck2.assume_fail ()
      | Some decided ->
        let r = A.Reach.analyze ~inputs:(int_inputs inputs) sys in
        let abstract = A.Reach.may_decided_values r in
        List.for_all (fun v -> A.Vset.mem (Value.int v) abstract) decided)

(* --- sharing-aware lattice operations vs references that ignore sharing --- *)

(* A naive list-set model of {!A.Vset}: [None] is [Top], membership is
   structural equality, and a join that outgrows [cap] collapses. *)
let vset_model = function A.Vset.Top -> None | A.Vset.Set xs -> Some xs
let set_mem x xs = List.exists (fun y -> x = y) xs
let set_subset xs ys = List.for_all (fun x -> set_mem x ys) xs

let model_leq a b =
  match vset_model a, vset_model b with
  | _, None -> true
  | None, Some _ -> false
  | Some xs, Some ys -> set_subset xs ys

let model_join a b =
  match vset_model a, vset_model b with
  | None, _ | _, None -> None
  | Some xs, Some ys ->
    let u = List.fold_left (fun acc y -> if set_mem y acc then acc else y :: acc) xs ys in
    if List.length u > A.Vset.cap then None else Some u

let model_equal m m' =
  match m, m' with
  | None, None -> true
  | Some xs, Some ys -> set_subset xs ys && set_subset ys xs
  | _ -> false

let rec strictly_sorted = function
  | x :: (y :: _ as rest) -> Value.compare x y < 0 && strictly_sorted rest
  | _ -> true

(* Two sets over a shared pool: each keeps a random subset of a common
   prefix and the pool's remaining tail physically shared, so the merge
   meets both equal-but-distinct heads and [==] tails. Some sets outgrow
   [cap] (built as [Top]), and fresh copies share nothing. *)
let vset_pair_gen =
  let open QCheck2.Gen in
  let* pool = list_size (int_range 0 34) (oneof [ map Value.int (int_bound 40); value_gen ]) in
  let pool = List.sort_uniq Value.compare pool in
  let* k = int_bound (List.length pool) and* m1 = int and* m2 = int and* shape = int_bound 5 in
  let rec split i = function
    | x :: rest when i > 0 ->
      let pre, tail = split (i - 1) rest in
      x :: pre, tail
    | l -> [], l
  in
  let prefix, tail = split k pool in
  let pick mask = List.filteri (fun i _ -> (mask lsr (i mod 60)) land 1 = 1) prefix @ tail in
  let mk xs = if List.length xs > A.Vset.cap then A.Vset.Top else A.Vset.Set xs in
  let a = mk (pick m1) and b = mk (pick m2) in
  let fresh = function
    | A.Vset.Top -> A.Vset.Top
    | A.Vset.Set xs -> A.Vset.Set (List.map fresh_copy xs)
  in
  return
    (match shape with
    | 0 -> a, a
    | 1 -> a, fresh a
    | 2 -> a, A.Vset.join a b
    | 3 -> A.Vset.join a b, b
    | _ -> a, b)

let prop_vset_reference =
  qtest "vset leq/join/equal ≡ list-set model" ~count:500 vset_pair_gen (fun (a, b) ->
      let j = A.Vset.join a b in
      A.Vset.leq a b = model_leq a b
      && A.Vset.leq b a = model_leq b a
      && A.Vset.equal a b = model_equal (vset_model a) (vset_model b)
      && model_equal (vset_model j) (model_join a b)
      && (match j with A.Vset.Set xs -> strictly_sorted xs | A.Vset.Top -> true)
      (* A join equal to an argument is that argument itself, [a] first. *)
      && (not (model_equal (vset_model j) (vset_model a)) || j == a)
      && (model_equal (vset_model j) (vset_model a)
         || not (model_equal (vset_model j) (vset_model b))
         || j == b))

(* Reference abstract-state lattice operations: component-wise, with no
   [==] short-cut, over the list-set model above. *)
module Ref_astate = struct
  open A.Astate

  let rec union a b =
    match a, b with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c < 0 then x :: union xs b else if c > 0 then y :: union a ys else x :: union xs ys

  let vjoin a b =
    match a, b with
    | A.Vset.Top, _ | _, A.Vset.Top -> A.Vset.Top
    | A.Vset.Set xs, A.Vset.Set ys ->
      let u = union xs ys in
      if List.length u > A.Vset.cap then A.Vset.Top else A.Vset.Set u

  let vleq = model_leq
  let vequal a b = model_equal (vset_model a) (vset_model b)
  let dopt_leq a b = (b.may_none || not a.may_none) && vleq a.values b.values
  let dopt_join a b = { may_none = a.may_none || b.may_none; values = vjoin a.values b.values }
  let dopt_equal a b = a.may_none = b.may_none && vequal a.values b.values
  let buf_leq a b = vleq a.items b.items && A.Interval.leq a.len b.len

  let buf_merge fl a b = buf_make ~items:(vjoin a.items b.items) ~len:(fl a.len b.len)
  let buf_equal a b = vequal a.items b.items && A.Interval.equal a.len b.len

  let svc_leq a b =
    vleq a.value b.value
    && Array.for_all2 buf_leq a.inv b.inv
    && Array.for_all2 buf_leq a.resp b.resp

  let svc_merge fl a b =
    {
      value = vjoin a.value b.value;
      inv = Array.map2 (buf_merge fl) a.inv b.inv;
      resp = Array.map2 (buf_merge fl) a.resp b.resp;
    }

  let svc_equal a b =
    vequal a.value b.value
    && Array.for_all2 buf_equal a.inv b.inv
    && Array.for_all2 buf_equal a.resp b.resp

  let leq a b =
    match a, b with
    | Bot, _ -> true
    | _, Bot -> false
    | St a, St b ->
      Array.for_all2 vleq a.procs b.procs
      && Array.for_all2 svc_leq a.svcs b.svcs
      && Array.for_all2 dopt_leq a.decisions b.decisions
      && Array.for_all2 dopt_leq a.inputs b.inputs

  let merge fl a b =
    match a, b with
    | Bot, x | x, Bot -> x
    | St a, St b ->
      St
        {
          procs = Array.map2 vjoin a.procs b.procs;
          svcs = Array.map2 (svc_merge fl) a.svcs b.svcs;
          decisions = Array.map2 dopt_join a.decisions b.decisions;
          inputs = Array.map2 dopt_join a.inputs b.inputs;
        }

  (* Vset widening is its join; only the length intervals widen. *)
  let join = merge A.Interval.join
  let widen = merge A.Interval.widen

  let equal a b =
    match a, b with
    | Bot, Bot -> true
    | St a, St b ->
      Array.for_all2 vequal a.procs b.procs
      && Array.for_all2 svc_equal a.svcs b.svcs
      && Array.for_all2 dopt_equal a.decisions b.decisions
      && Array.for_all2 dopt_equal a.inputs b.inputs
    | _ -> false
end

(* A structurally equal state that shares nothing with its argument: the
   cache codec's round trip (which also re-checks buffer normal form). *)
let fresh_astate x =
  let b = Buffer.create 256 in
  A.Codec.astate_out b x;
  A.Codec.astate_in (A.Codec.cursor (Buffer.contents b))

(* Argument pairs over abstract states one protocol's analysis really
   meets: the initialized state's singleton abstraction, the first distinct
   states its transfer posts reach (precise states, decided ones included)
   and the fixpoint solution at every failed set. Each pre-state is paired
   with its own posts (which share all but the components their task
   wrote), the posts with each other and with their running join (the
   accumulator [Transfer] builds), each with a fresh copy and itself, and a
   sample of unrelated states with one another. *)
let astate_pairs name =
  let sys = build name in
  let n = Array.length sys.Model.System.processes in
  let init =
    A.Astate.of_state (Model.System.initialize sys (int_inputs (List.init n (fun i -> i mod 2))))
  in
  let posts f x =
    Array.to_list sys.Model.System.tasks
    |> List.map (fun tk -> (A.Transfer.task sys ~failed:f x tk).A.Transfer.post)
    |> List.filter (function A.Astate.Bot -> false | A.Astate.St _ -> true)
  in
  (* Breadth-first over distinct posts, up to 96 states. *)
  let rec explore seen = function
    | [] -> List.rev seen
    | _ when List.length seen >= 96 -> List.rev seen
    | x :: rest ->
      let fresh =
        List.filter
          (fun p -> not (List.exists (A.Astate.equal p) (seen @ rest)))
          (posts Spec.Iset.empty x)
      in
      explore (x :: seen) (rest @ fresh)
  in
  let r = A.Reach.analyze sys in
  let pres =
    List.map (fun x -> Spec.Iset.empty, x) (explore [] [ init ])
    @ (Array.to_list r.A.Reach.infos |> List.map (fun i -> i.A.Reach.failed, i.A.Reach.astate))
  in
  let around (f, x) =
    let ps = posts f x in
    let running = List.fold_left A.Astate.join x ps in
    let rec adjacent = function p :: (q :: _ as rest) -> (p, q) :: adjacent rest | _ -> [] in
    ((x, x) :: (x, fresh_astate x) :: (x, A.Astate.Bot) :: (A.Astate.Bot, x) :: (running, x)
     :: adjacent ps)
    @ List.concat_map (fun p -> [ x, p; p, x; p, fresh_astate p; running, p; p, running ]) ps
  in
  let states = Array.of_list (List.map snd pres) in
  let m = Array.length states in
  List.concat_map around pres
  @ List.init (4 * m) (fun k -> states.(k mod m), states.(k * 7 mod m))

let test_astate_reference name () =
  let pairs = astate_pairs name in
  Alcotest.(check bool) "enough pairs" true (List.length pairs > 50);
  List.iter
    (fun (a, b) ->
      let check what got want =
        if got <> want then Alcotest.failf "%s disagrees with the reference on %s" what name
      in
      check "leq" (A.Astate.leq a b) (Ref_astate.leq a b);
      check "equal" (A.Astate.equal a b) (Ref_astate.equal a b);
      let j = A.Astate.join a b and w = A.Astate.widen a b in
      check "join" (Ref_astate.equal j (Ref_astate.join a b)) true;
      check "widen" (Ref_astate.equal w (Ref_astate.widen a b)) true;
      check "join keeps an unchanged argument" (not (Ref_astate.equal j a) || j == a) true;
      check "widen keeps an unchanged argument" (not (Ref_astate.equal w a) || w == a) true)
    pairs

let test_registry_lints_clean () =
  (* The acceptance bar for `boost lint --all`: no registry protocol is
     worse than Info at default parameters. *)
  List.iter
    (fun e ->
      let sys = e.Protocols.Registry.build Protocols.Registry.default_params in
      let report = A.Lint.analyze sys in
      Alcotest.(check int)
        (Printf.sprintf "%s lints clean" e.Protocols.Registry.name)
        0 (A.Lint.exit_code report))
    Protocols.Registry.all

(* --- golden lint: a deliberately flawed candidate --- *)

(* A one-shot consensus client whose init handler guards on the wrong
   program-state tag: the input is dropped, the process never leaves "idle",
   so nothing is ever invoked and no process can ever emit a decide. The
   analyzer must prove the protocol statically blank. (A subtler flaw — say
   a broken response guard — is still caught by the exact engine but not by
   the independent-attribute abstraction, which loses the process-state ×
   queue correlation once invocations accumulate and degrades to ⊤.) *)
let flawed_system ~n =
  let service = "cons" in
  let st tag fields = Value.pair (Value.str tag) (Value.list fields) in
  let tag s = Value.to_str (fst (Value.to_pair s)) in
  let field s i = List.nth (Value.to_list (snd (Value.to_pair s))) i in
  let is t s = String.equal t (tag s) in
  let client pid =
    let step s =
      if is "have" s then
        Model.Process.Invoke
          {
            service;
            op = Spec.Seq_consensus.init (Value.to_int (field s 0));
            next = st "waiting" [ field s 0 ];
          }
      else if is "got" s then
        Model.Process.Decide { value = field s 0; next = st "done" [ field s 0 ] }
      else Model.Process.Internal s
    in
    (* BUG: arms from a state the automaton never enters, dropping the
       input. *)
    let on_init s v = if is "ready" s then st "have" [ v ] else s in
    let on_response s ~service:src b =
      if is "waiting" s && String.equal src service && Spec.Seq_consensus.is_decide b then
        st "got" [ Value.int (Spec.Seq_consensus.decided_value b) ]
      else s
    in
    Model.Process.make ~pid ~start:(st "idle" []) ~step ~on_init ~on_response ()
  in
  Model.System.make
    ~processes:(List.init n client)
    ~services:
      [ Model.Service.atomic ~id:service ~endpoints:(List.init n Fun.id) ~f:0
          (Spec.Seq_consensus.make ()) ]

let test_golden_flawed_blank () =
  let report = A.Lint.analyze (flawed_system ~n:2) in
  let codes = List.map (fun f -> f.A.Lint.code) report.A.Lint.findings in
  Alcotest.(check bool) "blank-protocol flagged" true (List.mem "blank-protocol" codes);
  Alcotest.(check int) "exit code 1" 1 (A.Lint.exit_code report);
  (* The exact engine agrees: the root of G(C) is Blank. *)
  Alcotest.(check (option (list int))) "engine confirms blank" (Some [])
    (concrete_decided (flawed_system ~n:2) [ 1; 0 ])

(* --- static pruning, pinned to the unpruned explorer --- *)

let cfg ?(horizon = 12) () =
  { Chaos.Explore.max_faults = 1; horizon; stride = 1; budget = 100_000; max_steps = 2_000;
    kinds = [ Chaos.Schedule.Crash_k ]; degrade = false }

let report_sig (r : Chaos.Explore.report) =
  (* Everything the pruned run must reproduce byte-identically; static_prunes
     is the one field allowed to differ (and asserted separately). *)
  Format.asprintf "%d/%d/%b/%d/%d/%d/%s" r.Chaos.Explore.examined r.Chaos.Explore.space
    r.Chaos.Explore.truncated r.Chaos.Explore.step_budget_hits
    r.Chaos.Explore.monitor_truncations r.Chaos.Explore.undelivered_crashes
    (match r.Chaos.Explore.violation with
    | None -> "clean"
    | Some v ->
      Chaos.Schedule.to_string v.Chaos.Explore.schedule
      ^ "|" ^ v.Chaos.Explore.monitor ^ "|" ^ v.Chaos.Explore.reason
      ^ "|" ^ string_of_bool v.Chaos.Explore.proven)

let differential ?horizon ~expect_prunes sys =
  let config = cfg ?horizon () in
  let oracle = Chaos.Explore.run ~config sys in
  let pruned = Chaos.Explore.run_par ~config ~dedup:false ~static_prune:true sys in
  Alcotest.(check string) "report identical" (report_sig oracle) (report_sig pruned);
  Alcotest.(check int) "oracle never prunes" 0 oracle.Chaos.Explore.static_prunes;
  if expect_prunes then
    Alcotest.(check bool) "skipped a nonzero number of schedules" true
      (pruned.Chaos.Explore.static_prunes > 0)

let test_prune_direct_clean () =
  (* f = 1 tolerates the single crash: every schedule is clean, and those
     crashing after quiescence are skipped. *)
  differential ~expect_prunes:true (Protocols.Direct.system ~n:2 ~f:1)

let test_prune_tob_clean () =
  differential ~horizon:40 ~expect_prunes:true (Protocols.Tob_direct.system ~n:2 ~f:1)

let test_prune_direct_violating () =
  (* f = 0: the rank-least violation (crash@0:0) precedes every prunable
     schedule, so the reports coincide including the violation. *)
  differential ~expect_prunes:false (Protocols.Direct.system ~n:2 ~f:0)

let test_prune_oracle_direct () =
  let sys = Protocols.Direct.system ~n:2 ~f:1 in
  match
    A.Prune.clean_from ~inputs:(Chaos.Runner.default_inputs sys) ~horizon:12 sys
  with
  | None -> Alcotest.fail "expected a quiescence certificate for direct f=1"
  | Some { A.Prune.quiescent_from = q; buffers_empty } ->
    Alcotest.(check bool) "within horizon" true (q < 12);
    (* Direct's frozen state has drained every response buffer, so the
       certificate extends to post-Q omission deliveries. *)
    Alcotest.(check bool) "frozen buffers are empty" true buffers_empty;
    (* The certificate is honest: a crash at q is a clean lasso concretely. *)
    let schedule = Chaos.Schedule.make [ Chaos.Schedule.crash ~step:q ~pid:0 ] in
    let r = Chaos.Runner.run ~max_steps:2_000 ~schedule sys in
    (match r.Chaos.Runner.stop with
    | Chaos.Runner.Lasso _ -> ()
    | s -> Alcotest.failf "expected a lasso at Q, got %a" Chaos.Runner.pp_stop s);
    Alcotest.(check int) "all crashes delivered" 0 r.Chaos.Runner.undelivered_crashes

let suite =
  ( "analysis",
    [
      Alcotest.test_case "interval domain" `Quick test_interval;
      Alcotest.test_case "vset cap" `Quick test_vset_cap;
      Alcotest.test_case "fixpoint chain widens" `Quick test_fixpoint_chain;
      prop_vset_reference;
      Alcotest.test_case "astate ops ≡ reference: direct" `Quick (test_astate_reference "direct");
      Alcotest.test_case "astate ops ≡ reference: tob" `Quick (test_astate_reference "tob");
      Alcotest.test_case "astate ops ≡ reference: queue" `Quick (test_astate_reference "queue");
      Alcotest.test_case "astate ops ≡ reference: mp-all" `Quick (test_astate_reference "mp-all");
      qcheck_abstract_over_approximates;
      Alcotest.test_case "registry lints clean" `Slow test_registry_lints_clean;
      Alcotest.test_case "golden flawed candidate" `Quick test_golden_flawed_blank;
      Alcotest.test_case "prune differential: direct clean" `Quick test_prune_direct_clean;
      Alcotest.test_case "prune differential: tob clean" `Quick test_prune_tob_clean;
      Alcotest.test_case "prune differential: direct violating" `Quick
        test_prune_direct_violating;
      Alcotest.test_case "prune oracle certificate" `Quick test_prune_oracle_direct;
    ] )
