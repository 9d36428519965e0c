module L = Model.Linearize

type verdict = Ok | Violation of string | Truncated of string

(* A closed window, kept while the witness holds so that the search can
   replay it if the witness later fails. [through] is the event count at its
   close. *)
type window = { evs : L.event list; size : int; through : int }

type mode =
  | Witness of L.witness  (* The return-order witness holds so far. *)
  | Search of L.config list  (* The witness failed; the exact frontier. *)

type t = {
  obj : Spec.Seq_type.t;
  max_nodes : int;
  soft_outstanding : int;
  hard_buffer : int;
  mutable mode : mode;
  mutable kept : window list;  (* newest first; witness mode only *)
  mutable buffer : L.event list;  (* newest first *)
  mutable buffered : int;
  mutable outstanding : int;
  mutable windows : int;
  mutable searched : int;
  mutable events : int;
  mutable max_window : int;
  mutable max_frontier : int;
  mutable verdict : verdict;
}

let create ?(max_nodes = 200_000) ?(soft_outstanding = 4) ?(hard_buffer = 2048) obj =
  {
    obj;
    max_nodes;
    soft_outstanding;
    hard_buffer;
    mode = Witness (L.witness_start obj);
    kept = [];
    buffer = [];
    buffered = 0;
    outstanding = 0;
    windows = 0;
    searched = 0;
    events = 0;
    max_window = 0;
    max_frontier = List.length (L.init_configs obj);
    verdict = Ok;
  }

let verdict t = t.verdict
let windows t = t.windows
let searched t = t.searched
let events t = t.events
let max_window t = t.max_window
let max_frontier t = t.max_frontier
let outstanding t = t.outstanding

let record t ev =
  if t.verdict = Ok then begin
    t.buffer <- ev :: t.buffer;
    t.buffered <- t.buffered + 1;
    t.events <- t.events + 1;
    (match ev with
    | L.Call _ -> t.outstanding <- t.outstanding + 1
    | L.Return _ -> t.outstanding <- t.outstanding - 1)
  end

(* The frontier search over window [index]; the messages are the ones the
   search alone would give at this window. *)
let advance t frontier index w =
  match L.advance ~max_nodes:t.max_nodes t.obj frontier w.evs with
  | None ->
    Error
      (Truncated
         (Printf.sprintf "window %d (%d events) exhausted the %d-node search budget" index
            w.size t.max_nodes))
  | Some [] ->
    Error
      (Violation
         (Printf.sprintf "window %d (%d events, through event %d) admits no linearization"
            index w.size w.through))
  | Some frontier ->
    t.max_frontier <- max t.max_frontier (List.length frontier);
    Ok frontier

(* Decide the current window by search, from the frontier before it. *)
let search t frontier w =
  t.searched <- t.searched + 1;
  match advance t frontier t.windows w with
  | Ok frontier -> t.mode <- Search frontier
  | Error v -> t.verdict <- v

(* The witness failed at the current window: rebuild the exact frontier by
   replaying the search over the kept windows, then search this one. The
   prefix has a valid linearization, so the replay cannot report a
   violation; it can only exhaust its node budget, as the search alone would
   have done at that same window. *)
let fall_back t w =
  let kept = List.rev t.kept in
  t.kept <- [];
  let rec replay frontier index = function
    | [] -> search t frontier w
    | k :: rest -> (
      match advance t frontier index k with
      | Ok frontier -> replay frontier (index + 1) rest
      | Error v -> t.verdict <- v)
  in
  replay (L.init_configs t.obj) 1 kept

let flush t =
  if t.verdict = Ok && t.buffered > 0 then begin
    let w = { evs = List.rev t.buffer; size = t.buffered; through = t.events } in
    t.buffer <- [];
    t.buffered <- 0;
    t.windows <- t.windows + 1;
    t.max_window <- max t.max_window w.size;
    match t.mode with
    | Witness wit -> if L.witness_feed wit w.evs then t.kept <- w :: t.kept else fall_back t w
    | Search frontier -> search t frontier w
  end;
  t.verdict

(* The flush policy: the frontier stays small when few operations straddle
   the window boundary (each called-but-unreturned op multiplies the
   reachable configurations), so defer flushing until the history is nearly
   quiescent — but never let the buffer grow past [hard_buffer], accepting a
   possible truncation instead of unbounded memory. The witness needs no
   windows, but a fallback search replays these same cuts. *)
let tick t =
  if
    t.verdict = Ok && t.buffered > 0
    && (t.outstanding <= t.soft_outstanding || t.buffered >= t.hard_buffer)
  then flush t
  else t.verdict

let finish t = flush t
