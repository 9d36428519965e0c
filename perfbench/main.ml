(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics of one workload for S
   seconds; with --trace 1 it makes the traced run that breaks the workload
   down by layer. Either way it checks every output it produces and ends
   with one JSON line holding the checks, every metric measured and the
   run's provenance. run.py builds this program, runs it and reduces that
   line to the metric set BENCHMARK.json defines. *)

open Common

let workloads =
  [
    "refute-fleet", (Refute_fleet.untraced, Refute_fleet.traced);
    "serve-rsm", (Serve_rsm.untraced, Serve_rsm.traced);
    "chaos-sweep", (Chaos_sweep.untraced, Chaos_sweep.traced);
    "lint-fleet", (Lint_fleet.untraced, Lint_fleet.traced);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads:";
  List.iter (fun (name, _) -> prerr_endline ("  " ^ name)) workloads;
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
  !workload, !seed, !seconds, !trace = 1

(* The counts that must repeat exactly are also compared against the last
   traced run of this same binary on the same workload and seed. *)
let compare_with_previous_run ~workload ~seed =
  let dir = Filename.concat work_dir "counts" in
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-%s.txt" workload seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  let current = List.sort compare !exact in
  (if Sys.file_exists file then
     let ic = open_in file in
     let rec read acc =
       match input_line ic with
       | line -> read (Scanf.sscanf line "%s %f" (fun k v -> (k, v) :: acc))
       | exception End_of_file -> List.rev acc
     in
     let previous = read [] in
     close_in ic;
     List.iter
       (fun (k, v) ->
         match List.assoc_opt k previous with
         | Some v0 -> check (Printf.sprintf "%s repeats across runs (%.0f vs %.0f)" k v0 v) (v0 = v)
         | None -> ())
       current);
  let oc = open_out file in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %.0f\n" k v) current;
  close_out oc

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload, seed, seconds, traced = parse_args () in
  let untraced_run, traced_run = List.assoc workload workloads in
  mkdir_p work_dir;
  if traced then begin
    traced_run ~seed;
    Span.enabled := false;
    Span.write_jsonl (Filename.concat work_dir (Printf.sprintf "spans-%s.jsonl" workload));
    compare_with_previous_run ~workload ~seed
  end
  else untraced_run ~seed ~seconds;
  metric "peak_rss_mb" "MB" (Option.value !first_pass_rss_mb ~default:(peak_rss_mb ()));
  metric "failed_frac" "ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  if !pass_times <> [||] then
    Printf.printf "warm-up pass (s): %.4f\npasses (s): %s\n" !warmup_pass_s
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") !pass_times)));
  Hashtbl.iter
    (fun name ts ->
      Printf.printf "part %s (s): %s\n" name
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") ts)))
    part_times;
  let ms = List.rev !metrics in
  List.iter (fun (name, unit, v) -> Printf.printf "%-36s %s %s\n" name (json_number v) unit) ms;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"ocaml\": %S, \"workload\": %S, \
     \"seed\": %d, \"trace\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    !attempted !failed Sys.ocaml_version workload seed
    (if traced then 1 else 0)
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          ms))
