(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer's public function, made from the
   benchmark's own code: its name, monotonic start and end, the minor words
   it allocated, and the span that was open when it began (its cause).
   Spans are kept in memory and written out when the benchmark ends. With
   recording off, [span] is one branch around the call. *)

type t = {
  id : int;
  parent : int;  (* -1 at the top level *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
}

let enabled = ref false
let recorded : t list ref = ref []  (* newest first *)
let open_stack : int list ref = ref []
let next_id = ref 0

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      open_stack := List.tl !open_stack;
      recorded :=
        { id; parent; name; start_ns = t0; stop_ns = t1; minor_words = w1 -. w0 } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let named name = List.filter (fun s -> String.equal s.name name) !recorded

(* Durations of every span with this name, in seconds, oldest first. *)
let durations name = List.rev_map duration (named name) |> Array.of_list

let total name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"minor_words\":%.0f}\n"
        s.id s.parent s.name s.start_ns s.stop_ns s.minor_words)
    (List.rev !recorded);
  close_out oc
