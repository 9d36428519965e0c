(* refute-fleet: [Engine.Counterexample.refute ~failures:1] over a fleet of
   boosting candidates, every verdict checked. G(C) construction, valence
   and hook search do almost all the work.

   Set-up: resolving the registry entries and building the fleet's systems.
   The fleet is the workload's whole input and does not depend on the seed;
   even its order stays fixed, because it moves the peak memory of a pass. *)

open Common
module C = Engine.Counterexample

type expect = Non_termination | Agreement_violation

let fleet =
  [
    "direct", { params with n = 5; f = 0 }, Non_termination;
    "tob", { params with n = 3; f = 0 }, Non_termination;
    "mp-all", { params with n = 3 }, Non_termination;
    "fd-all", { params with n = 2; f = 0 }, Non_termination;
    "kset", { params with groups = 2; group_size = 2 }, Agreement_violation;
  ]

let setup () = List.map (fun (name, p, want) -> name, build name p, want) fleet

let expected want (r : C.report) =
  match want, r.C.outcome with
  | Non_termination, C.Refuted (C.Non_termination { proven = true; _ }) -> true
  | Agreement_violation, C.Refuted (C.Agreement_violation _) -> true
  | _ -> false

let refute_one (name, sys, want) =
  let r = timed_part name (fun () -> Span.span "core.refute" (fun () -> C.refute ~failures:1 sys)) in
  check (name ^ ": refuted with the expected witness") (expected want r)

(* Each refute starts from a collected heap, as a separate `boost refute`
   would, so the fleet order moves neither the time nor the peak memory of
   a pass. The collection is neither pass time nor pass allocation: the
   minor words and major collections of the refutes themselves add up in
   [refute_gc]. *)
let refute_gc = ref (0., 0)

let pass systems () =
  List.iter
    (fun item ->
      untimed Gc.full_major;
      let (w, m), () = gc_delta (fun () -> refute_one item) in
      let w0, m0 = !refute_gc in
      refute_gc := (w0 +. w, m0 + m))
    systems

let untraced ~seed:_ ~seconds =
  let setup_s, t = measure ~seconds setup (fun systems -> pass systems ()) in
  metric "setup_s" "s" setup_s;
  metric "pass_s" "s" (Stats.median t);
  metric "refute_s" "s" (Stats.median t)

(* One Lemma-4 staircase, each G(C) built and analyzed under its own span,
   then the hook search on the first bivalent entry. Returns the number of
   G(C) states and of staircase inputs. *)
let staircase sys =
  let n = Model.System.n_processes sys in
  let analyses =
    List.init (n + 1) (fun i ->
        let inputs = List.init n (fun p -> Ioa.Value.int (if p < i then 1 else 0)) in
        let start = Model.System.initialize sys inputs in
        let g = Span.span "core.graph_build" (fun () -> Engine.Graph.explore sys start) in
        Span.span "core.valence" (fun () -> Engine.Valence.analyze g))
  in
  let bivalent a =
    Engine.Valence.(equal_verdict (verdict a (Engine.Graph.root (graph a))) Bivalent)
  in
  (match List.find_opt bivalent analyses with
  | Some a -> ignore (Span.span "core.hook" (fun () -> Engine.Hook.find a))
  | None -> ());
  List.fold_left (fun k a -> k + Engine.Graph.size (Engine.Valence.graph a)) 0 analyses, n + 1

let traced ~seed:_ =
  let systems = setup () in
  (* Two plain passes: the gc counts come from the first, and the second,
     warm one is the baseline the traced pass is compared with. *)
  let plain () =
    refute_gc := (0., 0);
    let dt, () = time_pass (pass systems) in
    let words, majors = !refute_gc in
    dt, words, majors
  in
  let _, words, majors = plain () in
  let untraced_pass, _, _ = plain () in
  cross_run_count "gc.minor_words" words;
  metric "gc.minor_mwords" "Mwords" (words /. 1e6);
  count "gc.major_collections" majors;
  Span.enabled := true;
  let traced_pass, () = time_pass (pass systems) in
  metric "trace.overhead_s" "s" (traced_pass -. untraced_pass);
  (* The staircase alone, twice, each protocol's refute timed beside it. *)
  let rounds = 2 in
  let refute_s = Hashtbl.create 8 and staircase_s = Hashtbl.create 8 in
  let add tbl name dt =
    Hashtbl.replace tbl name (dt +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  in
  let states = ref 0 and inputs = ref 0 in
  for _ = 1 to rounds do
    states := 0;
    List.iter
      (fun ((name, sys, _) as item) ->
        let r, () = time (fun () -> refute_one item) in
        let s, (k, i) = time (fun () -> staircase sys) in
        add refute_s name r;
        add staircase_s name s;
        states := !states + k;
        inputs := !inputs + i)
      systems;
    exact_count "core.states" (float_of_int !states)
  done;
  let per_round x = x /. float_of_int rounds in
  let states = float_of_int !states and inputs = per_round (float_of_int !inputs) in
  let build = Span.total "core.graph_build" and valence = Span.total "core.valence" in
  let words =
    List.fold_left (fun acc s -> acc +. s.Span.minor_words) 0.
      (Span.named "core.graph_build" @ Span.named "core.valence")
  in
  cross_run_count "core.minor_words_per_round" (per_round words);
  count "core.states" (int_of_float states);
  metric "core.graph_build_s" "s" (per_round build /. inputs);
  metric "core.valence_s" "s" (per_round valence /. inputs);
  metric "core.hook_s" "s" (per_round (Span.total "core.hook"));
  metric "core.us_per_state" "us" (per_round (build +. valence) /. states *. 1e6);
  metric "core.minor_words_per_state" "words" (per_round words /. states);
  let total tbl = Hashtbl.fold (fun _ dt acc -> acc +. dt) tbl 0. in
  metric "core.refute_over_staircase" "ratio" (total refute_s /. total staircase_s);
  List.iter
    (fun name ->
      metric ("core.refute_over_staircase." ^ name) "ratio"
        (Hashtbl.find refute_s name /. Hashtbl.find staircase_s name))
    [ "mp-all"; "fd-all" ];
  Model_probe.run ()
