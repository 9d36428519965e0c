(* Shared plumbing for the workloads: checks, metric records, timing loops,
   seeded input helpers and process-level resource readings. *)

module Span = Bench_trace.Span
module Stats = Bench_trace.Stats

(* ---- checks (feed [attempted]/[failed] and failed_frac) ---- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* ---- metrics ---- *)

let metrics : (string * string * float) list ref = ref []  (* newest first *)
let metric name unit v = metrics := (name, unit, v) :: !metrics
let count name v = metric name "count" (float_of_int v)

(* Counts that must repeat exactly. A second run of the same binary on the
   same workload and seed must read every one of them again (see Main).
   Those recorded through [exact_count] are also computed twice within the
   run; allocation counts depend on the heap a pass starts from, so they
   only repeat from a fresh process and go through [cross_run_count]. *)
let exact : (string * float) list ref = ref []

let cross_run_count name v =
  if not (List.mem_assoc name !exact) then exact := (name, v) :: !exact

let exact_count name v =
  match List.assoc_opt name !exact with
  | Some v0 -> check (Printf.sprintf "%s repeats exactly (%.0f vs %.0f)" name v0 v) (v0 = v)
  | None -> exact := (name, v) :: !exact

(* ---- process-level readings ---- *)

(* Peak resident set size (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Minor words and major collections spent by [f]. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_collections - s0.Gc.major_collections), r

(* ---- timing ---- *)

let time f =
  let t0 = Span.now_ns () in
  let r = f () in
  Span.seconds_since t0, r

(* Wall time a pass spends in [untimed] is left out of its pass time. *)
let excluded = ref 0.

let untimed f =
  let dt, r = time f in
  excluded := !excluded +. dt;
  r

(* Wall time of each named part of a timed pass, newest first. *)
let part_times : (string, float list) Hashtbl.t = Hashtbl.create 8

let timed_part name f =
  let dt, r = time f in
  Hashtbl.replace part_times name
    (dt :: Option.value ~default:[] (Hashtbl.find_opt part_times name));
  r

let time_pass f =
  excluded := 0.;
  let dt, r = time f in
  dt -. !excluded, r

(* Set up once and make a first pass, the warm-up: it pays for the heap's
   first growth, which later passes reuse, so it is not among the pass
   times. Then time [setup_samples] more set-ups, each from a freshly
   collected heap (a set-up faster than 20 ms is timed in batches of about
   50 ms); then time passes on the set-up's result for as long as they end
   within [seconds] of wall time since the start. Returns the median
   set-up time and the wall time of every timed pass, in order.

   The peak resident set is read after the warm-up pass, while the process
   has set up once and made one pass, as one command would (besides any
   reference output the checks need). Later, the heap carries whatever the
   timed set-ups and passes left in it, which differs from run to run. *)
let pass_times : float array ref = ref [||]
let warmup_pass_s = ref 0.
let first_pass_rss_mb : float option ref = ref None

let setup_samples = 10

let measure ~seconds setup pass =
  let t0 = Span.now_ns () in
  let dt0, r = time setup in
  let input = ref r in
  let first, () = time_pass (fun () -> pass r) in
  warmup_pass_s := first;
  Hashtbl.reset part_times;
  first_pass_rss_mb := Some (peak_rss_mb ());
  (* A fast set-up is first repeated, untimed, for a fifth of a second; the
     batch length comes from that warm rate, not from the cold first run. *)
  let k =
    if dt0 >= 0.02 then 1
    else begin
      let w0 = Span.now_ns () and runs = ref 0 in
      while Span.seconds_since w0 < 0.2 do
        input := setup ();
        incr runs
      done;
      max 1 (int_of_float (0.05 /. (Span.seconds_since w0 /. float_of_int !runs)))
    end
  in
  (* Each sample starts from a collected heap with the allocation pointer
     moved by a different amount, so that the median is over memory
     layouts rather than stuck with the one this process happened on. *)
  let sample i =
    Gc.full_major ();
    let shift = Sys.opaque_identity (Array.make (1 + (i * 97 mod 1024)) 0) in
    let dt, () = time (fun () -> for _ = 1 to k do input := setup () done) in
    ignore (Sys.opaque_identity shift);
    dt /. float_of_int k
  in
  (* A slow set-up's first run already is a sample. *)
  let samples =
    if k = 1 then Array.append [| dt0 |] (Array.init (setup_samples - 1) sample)
    else Array.init setup_samples sample
  in
  (* Another pass starts only if, as long as the last one, it ends in time. *)
  let passes = ref [] and last_wall = ref first in
  while !passes = [] || Span.seconds_since t0 +. !last_wall <= seconds do
    let wall, (dt, ()) = time (fun () -> time_pass (fun () -> pass !input)) in
    passes := dt :: !passes;
    last_wall := wall
  done;
  pass_times := Array.of_list (List.rev !passes);
  Stats.median samples, !pass_times

(* ---- inputs ---- *)

let params = Protocols.Registry.default_params

let entry name =
  match Protocols.Registry.find name with
  | Some e -> e
  | None -> failwith ("perfbench: unknown protocol " ^ name)

let build name p = (entry name).Protocols.Registry.build p

(* Fisher-Yates shuffle driven by the benchmark seed. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Scratch space inside the checkout. *)
let work_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
