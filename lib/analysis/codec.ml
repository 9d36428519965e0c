(* Compact text codec for the persistent analysis cache: values, value-set
   lattice elements and whole abstract states round-trip through a prefix
   encoding with no lookahead. Strings use OCaml %S escaping, so encoded
   payloads never contain raw newlines and envelope files stay line-structured.
   Decoders raise {!Corrupt} on any malformed input; the cache layer turns
   that into a quarantined entry, never a crash. *)

module Value = Ioa.Value

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type cursor = { s : string; mutable pos : int }

let cursor s = { s; pos = 0 }

let peek c = if c.pos >= String.length c.s then corrupt "unexpected end" else c.s.[c.pos]

let next c =
  let ch = peek c in
  c.pos <- c.pos + 1;
  ch

let expect c ch =
  let got = next c in
  if got <> ch then corrupt "expected %C, got %C at %d" ch got (c.pos - 1)

(* --- strings --- *)

let string_out b s = Buffer.add_string b (Printf.sprintf "%S" s)

let string_in c =
  expect c '"';
  let start = c.pos in
  let rec scan () =
    match next c with
    | '"' -> ()
    | '\\' ->
      ignore (next c);
      scan ()
    | _ -> scan ()
  in
  scan ();
  let quoted = String.sub c.s (start - 1) (c.pos - start + 1) in
  match Scanf.sscanf_opt quoted "%S%!" Fun.id with
  | Some s -> s
  | None -> corrupt "bad string literal %s" quoted

(* --- integers --- *)

let int_out b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let int_in c =
  let start = c.pos in
  let rec scan () = if peek c = ';' then () else (c.pos <- c.pos + 1; scan ()) in
  scan ();
  let tok = String.sub c.s start (c.pos - start) in
  c.pos <- c.pos + 1;
  match int_of_string_opt tok with
  | Some i -> i
  | None -> corrupt "bad integer %s" tok

(* --- values --- *)

let rec value_out b = function
  | Value.Unit -> Buffer.add_char b 'u'
  | Value.Bool true -> Buffer.add_char b 'T'
  | Value.Bool false -> Buffer.add_char b 'F'
  | Value.Int i ->
    Buffer.add_char b 'i';
    int_out b i
  | Value.Str s ->
    Buffer.add_char b 's';
    string_out b s
  | Value.Pair (x, y) ->
    Buffer.add_char b 'p';
    value_out b x;
    value_out b y
  | Value.List xs ->
    Buffer.add_char b 'l';
    int_out b (List.length xs);
    List.iter (value_out b) xs

let rec value_in c =
  match next c with
  | 'u' -> Value.Unit
  | 'T' -> Value.Bool true
  | 'F' -> Value.Bool false
  | 'i' -> Value.Int (int_in c)
  | 's' -> Value.Str (string_in c)
  | 'p' ->
    let x = value_in c in
    let y = value_in c in
    Value.Pair (x, y)
  | 'l' ->
    let n = int_in c in
    if n < 0 then corrupt "negative list length";
    Value.List (List.init n (fun _ -> value_in c))
  | ch -> corrupt "bad value tag %C" ch

(* --- lattice elements --- *)

let vset_out b = function
  | Vset.Top -> Buffer.add_char b '^'
  | Vset.Set vs ->
    Buffer.add_char b 'v';
    int_out b (List.length vs);
    List.iter (value_out b) vs

let vset_in c =
  match next c with
  | '^' -> Vset.Top
  | 'v' ->
    let n = int_in c in
    if n < 0 then corrupt "negative vset size";
    (* Stored sets were normalized at build time; re-normalizing keeps a
       hand-edited entry from smuggling in an unordered set. *)
    Vset.of_list (List.init n (fun _ -> value_in c))
  | ch -> corrupt "bad vset tag %C" ch

let interval_out b = function
  | Interval.Bot -> Buffer.add_char b '_'
  | Interval.Range (lo, Interval.Inf) ->
    Buffer.add_char b 'w';
    int_out b lo
  | Interval.Range (lo, Interval.Fin hi) ->
    Buffer.add_char b 'r';
    int_out b lo;
    int_out b hi

(* Intervals here are queue lengths: a stored range is non-empty and starts
   at a non-negative bound, as every interval the analyzer builds does. *)
let interval_in c =
  match next c with
  | '_' -> Interval.Bot
  | 'w' ->
    let lo = int_in c in
    if lo < 0 then corrupt "negative interval bound %d" lo;
    Interval.unbounded lo
  | 'r' ->
    let lo = int_in c in
    let hi = int_in c in
    if lo < 0 then corrupt "negative interval bound %d" lo;
    if hi < lo then corrupt "empty interval [%d,%d]" lo hi;
    Interval.Range (lo, Interval.Fin hi)
  | ch -> corrupt "bad interval tag %C" ch

let array_out b item xs =
  int_out b (Array.length xs);
  Array.iter (item b) xs

let array_in c item =
  let n = int_in c in
  if n < 0 then corrupt "negative array length";
  Array.init n (fun _ -> item c)

(* --- abstract states --- *)

let abuf_out b { Astate.items; len } =
  vset_out b items;
  interval_out b len

(* A buffer with finite items must carry the hull of their lengths, the
   normal form {!Astate.buf_make} keeps: the lattice's [==] short-cuts are
   exact only on normalized buffers, so anything else is corrupt. *)
let abuf_in c =
  let items = vset_in c in
  let len = interval_in c in
  (match Vset.elements items with
  | None -> ()
  | Some qs ->
    let qlen = function Value.List q -> List.length q | _ -> corrupt "buffer item is not a queue" in
    if not (Interval.equal len (Interval.hull (List.map qlen qs))) then
      corrupt "buffer length disagrees with its items");
  { Astate.items; len }

let asvc_out b { Astate.value; inv; resp } =
  vset_out b value;
  array_out b abuf_out inv;
  array_out b abuf_out resp

let asvc_in c =
  let value = vset_in c in
  let inv = array_in c abuf_in in
  let resp = array_in c abuf_in in
  { Astate.value; inv; resp }

let dopt_out b { Astate.may_none; values } =
  Buffer.add_char b (if may_none then 'n' else 'j');
  vset_out b values

let dopt_in c =
  let may_none =
    match next c with
    | 'n' -> true
    | 'j' -> false
    | ch -> corrupt "bad dopt tag %C" ch
  in
  { Astate.may_none; values = vset_in c }

let astate_out b = function
  | Astate.Bot -> Buffer.add_char b 'B'
  | Astate.St { Astate.procs; svcs; decisions; inputs } ->
    Buffer.add_char b 'S';
    array_out b vset_out procs;
    array_out b asvc_out svcs;
    array_out b dopt_out decisions;
    array_out b dopt_out inputs

let astate_in c =
  match next c with
  | 'B' -> Astate.Bot
  | 'S' ->
    let procs = array_in c vset_in in
    let svcs = array_in c asvc_in in
    let decisions = array_in c dopt_in in
    let inputs = array_in c dopt_in in
    Astate.St { Astate.procs; svcs; decisions; inputs }
  | ch -> corrupt "bad astate tag %C" ch

let iset_out b f = array_out b (fun b i -> int_out b i) (Array.of_list (Spec.Iset.elements f))
let iset_in c = Spec.Iset.of_list (Array.to_list (array_in c int_in))
