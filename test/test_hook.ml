(* Tests for the hook machinery (§3.4, Fig. 3, Lemma 5): the path
   construction, the brute-force cross-check, and hook validity. *)

open Helpers
module E = Engine

let analysis_of sys inputs =
  let start = Model.System.initialize sys (int_inputs inputs) in
  E.Valence.analyze (E.Graph.explore sys start)

let bivalent_analysis sys =
  match E.Initialization.(find_bivalent (staircase sys)) with
  | Some e -> e.E.Initialization.analysis
  | None -> Alcotest.fail "expected a bivalent initialization"

let check_hook a h =
  match E.Hook.check a h with Ok () -> () | Error e -> Alcotest.fail e

let test_find_direct () =
  let a = bivalent_analysis (Protocols.Direct.system ~n:2 ~f:0) in
  match E.Hook.find a with
  | E.Hook.Hook h ->
    check_hook a h;
    (* The textbook hook: both tasks are perform tasks of the shared
       consensus object. *)
    (match h.E.Hook.e, h.E.Hook.e' with
    | Model.Task.Svc_perform _, Model.Task.Svc_perform _ -> ()
    | _ -> Alcotest.fail "expected perform/perform hook");
    Alcotest.(check bool) "e <> e'" false (Model.Task.equal h.E.Hook.e h.E.Hook.e')
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let test_find_direct_n3 () =
  let a = bivalent_analysis (Protocols.Direct.system ~n:3 ~f:0) in
  match E.Hook.find a with
  | E.Hook.Hook h -> check_hook a h
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let test_find_tob () =
  let a = bivalent_analysis (Protocols.Tob_direct.system ~n:2 ~f:0) in
  match E.Hook.find a with
  | E.Hook.Hook h -> check_hook a h
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let test_find_wait_free () =
  (* Hooks exist even in correct systems — the refutation fails later, at the
     silencing step, not here. *)
  let a = bivalent_analysis (Protocols.Direct.system ~n:2 ~f:1) in
  match E.Hook.find a with
  | E.Hook.Hook h -> check_hook a h
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let test_brute_agrees () =
  List.iter
    (fun sys ->
      let a = bivalent_analysis sys in
      match E.Hook.find a, E.Hook.find_brute a with
      | E.Hook.Hook h1, Some h2 ->
        check_hook a h1;
        check_hook a h2
      | r, _ -> Alcotest.failf "fig3 found %a" E.Hook.pp_result r)
    [
      Protocols.Direct.system ~n:2 ~f:0;
      Protocols.Direct.system ~n:3 ~f:0;
      Protocols.Tob_direct.system ~n:2 ~f:0;
    ]

let test_base_path_replayable () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let a = bivalent_analysis sys in
  match E.Hook.find a with
  | E.Hook.Hook h ->
    let g = E.Valence.graph a in
    (* Walking base_path from the root lands on the hook's base vertex. *)
    let v =
      List.fold_left
        (fun v e ->
          match E.Graph.successor g v e with
          | Some w -> w
          | None -> Alcotest.fail "base path step invalid")
        (E.Graph.root g) h.E.Hook.base_path
    in
    Alcotest.(check int) "base path lands on base" h.E.Hook.base v;
    (* Base is bivalent; endpoints univalent and opposite. *)
    Alcotest.(check bool) "base bivalent" true
      (E.Valence.equal_verdict (E.Valence.verdict a h.E.Hook.base) E.Valence.Bivalent)
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let test_not_bivalent () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let a = analysis_of sys [ 0; 0 ] in
  match E.Hook.find a with
  | E.Hook.Not_bivalent -> ()
  | r -> Alcotest.failf "expected Not_bivalent, got %a" E.Hook.pp_result r

let test_inexact () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let start = Model.System.initialize sys (int_inputs [ 1; 0 ]) in
  let a = E.Valence.analyze (E.Graph.explore ~max_states:3 sys start) in
  match E.Hook.find a with
  | E.Hook.Inexact -> ()
  | r -> Alcotest.failf "expected Inexact, got %a" E.Hook.pp_result r

let test_hook_check_rejects_corruption () =
  let sys = Protocols.Direct.system ~n:2 ~f:0 in
  let a = bivalent_analysis sys in
  match E.Hook.find a with
  | E.Hook.Hook h ->
    let broken = { h with E.Hook.e' = h.E.Hook.e } in
    (match E.Hook.check a broken with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "corrupted hook accepted")
  | r -> Alcotest.failf "expected hook, got %a" E.Hook.pp_result r

let suite =
  ( "hook",
    [
      Alcotest.test_case "fig3 on direct n=2" `Quick test_find_direct;
      Alcotest.test_case "fig3 on direct n=3" `Quick test_find_direct_n3;
      Alcotest.test_case "fig3 on TOB" `Quick test_find_tob;
      Alcotest.test_case "hooks exist in correct systems" `Quick test_find_wait_free;
      Alcotest.test_case "brute-force agrees" `Quick test_brute_agrees;
      Alcotest.test_case "base path replayable" `Quick test_base_path_replayable;
      Alcotest.test_case "not bivalent" `Quick test_not_bivalent;
      Alcotest.test_case "inexact graph" `Quick test_inexact;
      Alcotest.test_case "check rejects corruption" `Quick test_hook_check_rejects_corruption;
    ] )
