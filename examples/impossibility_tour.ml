(* A guided tour of the Theorem 2 machinery on the textbook instance: two
   processes coordinating through a 0-resilient consensus object, claiming to
   solve 1-resilient consensus.

   The tour shows each stage of the paper's proof running as an algorithm:
   the Lemma 4 staircase, the execution graph G(C) and its exact valences,
   the Fig. 3 hook search, the Lemma 8 similarity analysis at the hook, and
   finally the Lemma 7 silencing construction producing a provably infinite
   fair execution in which the survivor never decides.

   Run with: dune exec examples/impossibility_tour.exe *)

let () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in

  Format.printf "== Stage 1: Lemma 4 staircase ==@.";
  let entries = Engine.Initialization.staircase sys in
  List.iter (fun e -> Format.printf "  %a@." Engine.Initialization.pp_entry e) entries;

  let entry =
    match Engine.Initialization.find_bivalent entries with
    | Some e -> e
    | None -> failwith "no bivalent initialization"
  in
  let analysis = entry.Engine.Initialization.analysis in
  let g = Engine.Valence.graph analysis in
  Format.printf "@.== Stage 2: G(C) of the bivalent initialization ==@.";
  Format.printf "  %d reachable states (complete: %b)@." (Engine.Graph.size g)
    (Engine.Graph.complete g);
  List.iter
    (fun v ->
      Format.printf "  %a states: %d@." Engine.Valence.pp_verdict v
        (Engine.Valence.count analysis v))
    Engine.Valence.[ Zero_valent; One_valent; Bivalent ];

  Format.printf "@.== Stage 3: Fig. 3 hook search ==@.";
  let hook =
    match Engine.Hook.find analysis with
    | Engine.Hook.Hook h -> h
    | r -> failwith (Format.asprintf "no hook: %a" Engine.Hook.pp_result r)
  in
  Format.printf "  %a@." Engine.Hook.pp hook;
  Format.printf "  e  = %a (order the object's endpoint-0 invocation first)@."
    Model.Task.pp hook.Engine.Hook.e;
  Format.printf "  e' = %a (or the endpoint-1 invocation first)@." Model.Task.pp
    hook.Engine.Hook.e';

  Format.printf "@.== Stage 4: Lemma 8 similarity at the hook ==@.";
  let s0 = Engine.Graph.state g hook.Engine.Hook.alpha0 in
  let s1 = Engine.Graph.state g hook.Engine.Hook.alpha1 in
  Format.printf "  j-witnesses: {%s}@."
    (String.concat "," (List.map string_of_int (Engine.Similarity.j_witnesses sys s0 s1)));
  Format.printf "  k-witnesses: {%s} — the endpoint states differ only inside the object@."
    (String.concat "," (List.map string_of_int (Engine.Similarity.k_witnesses sys s0 s1)));

  Format.printf "@.== Stage 5: the full refutation ==@.";
  let report = Engine.Counterexample.refute ~failures:1 sys in
  Format.printf "%a@." Engine.Counterexample.pp_report report;

  (match report.Engine.Counterexample.outcome with
  | Engine.Counterexample.Refuted
      (Engine.Counterexample.Non_termination { exec; failed; proven }) ->
    Format.printf "@.The witness execution (%s):@.  @[<v>%a@]@."
      (if proven then "pumpable forever" else "bounded")
      Model.Exec.pp exec;
    Format.printf
      "@.After failing process%s %s, the 0-resilient object's dummy actions stay enabled@."
      (if List.length failed > 1 then "es" else "")
      (String.concat ", " (List.map string_of_int failed));
    Format.printf
      "forever, so fairness is satisfied while the survivor waits on it for eternity:@.";
    Format.printf "boosting a 0-resilient object to 1-resilient consensus is impossible.@."
  | _ -> ());

  Format.printf "@.== Contrast: the same claim against a wait-free object ==@.";
  let report = Engine.Counterexample.refute ~failures:1 (Protocols.Direct.system ~n:2 ~f:1) in
  Format.printf "%a@." Engine.Counterexample.pp_report report
