module Value = Ioa.Value

type abuf = { items : Vset.t; len : Interval.t }
type asvc = { value : Vset.t; inv : abuf array; resp : abuf array }
type dopt = { may_none : bool; values : Vset.t }

type st = {
  procs : Vset.t array;
  svcs : asvc array;
  decisions : dopt array;
  inputs : dopt array;
}

type t = Bot | St of st

let bot = Bot

let buf_make ~items ~len =
  match Vset.elements items with
  | Some qs -> { items; len = Interval.hull (List.map (fun q -> List.length (Value.to_list q)) qs) }
  | None -> { items; len }

let buf_of_queue q = buf_make ~items:(Vset.singleton (Value.list q)) ~len:Interval.bot
let buf_top ~len = { items = Vset.top; len }

let dopt_none = { may_none = true; values = Vset.bot }
let dopt_of = function None -> dopt_none | Some v -> { may_none = false; values = Vset.singleton v }

(* Sharing-aware lattice operations. A transfer post is its pre-state with
   one or two components replaced, the rest physically shared, so every
   level answers [==] arguments at once and a join or widening returns its
   first argument itself when nothing changed. This is exact: components are
   immutable, {!Vset} lists are sorted and duplicate-free, and a buffer with
   finite [items] has [len] = the hull of their lengths (see {!buf_make}),
   so [a ⊔ a = a] and a result built from [a]'s own components is [a]. *)

let dopt_leq a b = a == b || ((b.may_none || not a.may_none) && Vset.leq a.values b.values)

let dopt_merge fv a b =
  if a == b then a
  else
    let may_none = a.may_none || b.may_none in
    let values = fv a.values b.values in
    if may_none = a.may_none && values == a.values then a else { may_none; values }

let dopt_join = dopt_merge Vset.join
let dopt_widen = dopt_merge Vset.widen
let dopt_equal a b = a == b || (a.may_none = b.may_none && Vset.equal a.values b.values)

let buf_leq a b = a == b || (Vset.leq a.items b.items && Interval.leq a.len b.len)

let buf_merge fv fl a b =
  if a == b then a
  else
    let items = fv a.items b.items in
    match items with
    (* Finite items fix [len] as their hull: unchanged, they mean [a]. *)
    | Vset.Set _ when items == a.items -> a
    | _ ->
      let len = fl a.len b.len in
      if items == a.items && Interval.equal len a.len then a else buf_make ~items ~len

let buf_join = buf_merge Vset.join Interval.join
let buf_widen = buf_merge Vset.widen Interval.widen
let buf_equal a b = a == b || (Vset.equal a.items b.items && Interval.equal a.len b.len)

(* [Array.map2 f a b], but [a] itself when every [f a.(i) b.(i)] is
   [a.(i)]; the copy is made at the first element that changes. *)
let map2_shared f a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Astate.map2_shared: length mismatch";
  let rec scan i =
    if i = n then a
    else
      let r = f a.(i) b.(i) in
      if r == a.(i) then scan (i + 1)
      else begin
        let out = Array.copy a in
        out.(i) <- r;
        for j = i + 1 to n - 1 do
          out.(j) <- f a.(j) b.(j)
        done;
        out
      end
  in
  scan 0

let svc_leq a b =
  a == b
  || Vset.leq a.value b.value
     && Array.for_all2 buf_leq a.inv b.inv
     && Array.for_all2 buf_leq a.resp b.resp

let svc_merge fv fb a b =
  if a == b then a
  else
    let value = fv a.value b.value in
    let inv = map2_shared fb a.inv b.inv in
    let resp = map2_shared fb a.resp b.resp in
    if value == a.value && inv == a.inv && resp == a.resp then a else { value; inv; resp }

let svc_equal a b =
  a == b
  || Vset.equal a.value b.value
     && Array.for_all2 buf_equal a.inv b.inv
     && Array.for_all2 buf_equal a.resp b.resp

let of_state (s : Model.State.t) =
  St
    {
      procs = Array.map Vset.singleton s.Model.State.procs;
      svcs =
        Array.map
          (fun (svc : Model.State.svc) ->
            {
              value = Vset.singleton svc.Model.State.value;
              inv = Array.map buf_of_queue svc.Model.State.inv_bufs;
              resp = Array.map buf_of_queue svc.Model.State.resp_bufs;
            })
          s.Model.State.svcs;
      decisions = Array.map dopt_of s.Model.State.decisions;
      inputs = Array.map dopt_of s.Model.State.inputs;
    }

let leq a b =
  a == b
  ||
  match a, b with
  | Bot, _ -> true
  | _, Bot -> false
  | St a, St b ->
    Array.for_all2 Vset.leq a.procs b.procs
    && Array.for_all2 svc_leq a.svcs b.svcs
    && Array.for_all2 dopt_leq a.decisions b.decisions
    && Array.for_all2 dopt_leq a.inputs b.inputs

let merge fv fb fd x y =
  match x, y with
  | Bot, z | z, Bot -> z
  | St a, St b ->
    if x == y then x
    else
      let procs = map2_shared fv a.procs b.procs in
      let svcs = map2_shared (svc_merge fv fb) a.svcs b.svcs in
      let decisions = map2_shared fd a.decisions b.decisions in
      let inputs = map2_shared fd a.inputs b.inputs in
      if procs == a.procs && svcs == a.svcs && decisions == a.decisions && inputs == a.inputs
      then x
      else St { procs; svcs; decisions; inputs }

let join a b = merge Vset.join buf_join dopt_join a b
let widen a b = merge Vset.widen buf_widen dopt_widen a b

let equal a b =
  a == b
  ||
  match a, b with
  | Bot, Bot -> true
  | St a, St b ->
    Array.for_all2 Vset.equal a.procs b.procs
    && Array.for_all2 svc_equal a.svcs b.svcs
    && Array.for_all2 dopt_equal a.decisions b.decisions
    && Array.for_all2 dopt_equal a.inputs b.inputs
  | _ -> false

(* Re-index the service slots of a stored state onto a permuted service
   table: [perm.(j)] names the old position of the service now at [j]. The
   abstract state is positional (no identifiers inside), so this is the
   entire rename mapping the cache needs for fixpoint solutions. *)
let permute_svcs perm = function
  | Bot -> Bot
  | St a ->
    if Array.length perm <> Array.length a.svcs then
      invalid_arg "Astate.permute_svcs: arity mismatch";
    St { a with svcs = Array.map (fun j -> a.svcs.(j)) perm }

(* Re-index the per-process slots onto a permuted pid space: [perm.(i)]
   names the old pid of the process now at [i]. Service inv/resp buffer
   rows are pid-indexed too, but only when the service connects to every
   process (row length = perm length); partially-connected rows are
   positional over the service's own endpoint list and left alone — the
   caller owes class-respecting permutations for those (the symmetry-class
   tests only permute within fully-connected systems). *)
let permute_procs perm = function
  | Bot -> Bot
  | St a ->
    if Array.length perm <> Array.length a.procs then
      invalid_arg "Astate.permute_procs: arity mismatch";
    let row arr =
      if Array.length arr = Array.length perm then Array.map (fun j -> arr.(j)) perm
      else arr
    in
    St
      {
        procs = Array.map (fun j -> a.procs.(j)) perm;
        svcs = Array.map (fun s -> { s with inv = row s.inv; resp = row s.resp }) a.svcs;
        decisions = Array.map (fun j -> a.decisions.(j)) perm;
        inputs = Array.map (fun j -> a.inputs.(j)) perm;
      }

let pp_dopt ppf d =
  Format.fprintf ppf "%s%a" (if d.may_none then "·|" else "") Vset.pp d.values

let pp_buf ppf b = Format.fprintf ppf "%a#%a" Vset.pp b.items Interval.pp b.len

let pp ppf = function
  | Bot -> Format.fprintf ppf "⊥"
  | St a ->
    Format.fprintf ppf "@[<v 2>astate:";
    Array.iteri (fun i v -> Format.fprintf ppf "@,P%d ∈ %a" i Vset.pp v) a.procs;
    Array.iteri
      (fun k svc ->
        Format.fprintf ppf "@,S#%d val ∈ %a" k Vset.pp svc.value;
        Array.iteri (fun p b -> Format.fprintf ppf "@,  inv[%d] %a" p pp_buf b) svc.inv;
        Array.iteri (fun p b -> Format.fprintf ppf "@,  resp[%d] %a" p pp_buf b) svc.resp)
      a.svcs;
    Array.iteri (fun i d -> Format.fprintf ppf "@,dec[%d] %a" i pp_dopt d) a.decisions;
    Format.fprintf ppf "@]"
