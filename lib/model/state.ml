open Ioa

type svc = {
  value : Value.t;
  inv_bufs : Value.t list array;
  resp_bufs : Value.t list array;
}

type t = {
  procs : Value.t array;
  svcs : svc array;
  failed : Spec.Iset.t;
  decisions : Value.t option array;
  inputs : Value.t option array;
}

let compare_list cmp xs ys =
  let rec go xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = cmp x y in
      if c <> 0 then c else go xs' ys'
  in
  go xs ys

let compare_array cmp a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = cmp a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let compare_svc s1 s2 =
  let c = Value.compare s1.value s2.value in
  if c <> 0 then c
  else
    let c = compare_array (compare_list Value.compare) s1.inv_bufs s2.inv_bufs in
    if c <> 0 then c
    else compare_array (compare_list Value.compare) s1.resp_bufs s2.resp_bufs

let compare_opt cmp a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare s1 s2 =
  let c = compare_array Value.compare s1.procs s2.procs in
  if c <> 0 then c
  else
    let c = compare_array compare_svc s1.svcs s2.svcs in
    if c <> 0 then c
    else
      let c = Spec.Iset.compare s1.failed s2.failed in
      if c <> 0 then c
      else
        let c = compare_array (compare_opt Value.compare) s1.decisions s2.decisions in
        if c <> 0 then c
        else compare_array (compare_opt Value.compare) s1.inputs s2.inputs

let equal s1 s2 = compare s1 s2 = 0

(* A 32-bit FNV-style mix, folded with plain loops and closed helpers so
   that hashing a state allocates nothing. *)
let hash_combine h x = (h * 16777619) lxor x

let rec hash_buf h = function
  | [] -> h
  | v :: q -> hash_buf (hash_combine h (Value.hash v)) q

let hash s =
  let h = ref 2166136261 in
  for i = 0 to Array.length s.procs - 1 do
    h := hash_combine !h (Value.hash s.procs.(i))
  done;
  for k = 0 to Array.length s.svcs - 1 do
    let svc = s.svcs.(k) in
    h := hash_combine !h (Value.hash svc.value);
    for p = 0 to Array.length svc.inv_bufs - 1 do
      h := hash_buf !h svc.inv_bufs.(p)
    done;
    for p = 0 to Array.length svc.resp_bufs - 1 do
      h := hash_buf !h svc.resp_bufs.(p)
    done
  done;
  h := Spec.Iset.fold (fun i h -> hash_combine h i) s.failed !h;
  for i = 0 to Array.length s.decisions - 1 do
    h := hash_combine !h (match s.decisions.(i) with None -> 17 | Some v -> Value.hash v)
  done;
  for i = 0 to Array.length s.inputs - 1 do
    h := hash_combine !h (match s.inputs.(i) with None -> 23 | Some v -> Value.hash v)
  done;
  !h land max_int

(* A 63-bit FNV-1a fold over the full structure. Unlike [hash] (the 32-bit
   mix used by hot hashtables), the fingerprint injects a sentinel at every
   container boundary so adjacent buffers cannot alias, making it fit for
   the exploration engine's cross-run visited sets, where a collision would
   merge genuinely distinct configurations. *)
let fp_prime = 0x100000001b3
let fp_seed = 0x3cbbf29ce484222 (* FNV-1a offset basis folded into 62 bits *)
let fp_combine h x = (h lxor x) * fp_prime

let fingerprint s =
  let h = ref fp_seed in
  let mark tag = h := fp_combine !h tag in
  let value v = h := fp_combine !h (Value.hash v) in
  let buf q =
    mark 0x5eed;
    List.iter value q
  in
  mark 0xa11;
  Array.iter value s.procs;
  Array.iter
    (fun svc ->
      mark 0x5c0;
      value svc.value;
      Array.iter buf svc.inv_bufs;
      mark 0x5c1;
      Array.iter buf svc.resp_bufs)
    s.svcs;
  mark 0xfa1;
  Spec.Iset.iter (fun i -> h := fp_combine !h (i + 1)) s.failed;
  mark 0xdec;
  Array.iter
    (fun d -> h := fp_combine !h (match d with None -> 17 | Some v -> Value.hash v + 1))
    s.decisions;
  mark 0x1a9;
  Array.iter
    (fun d -> h := fp_combine !h (match d with None -> 23 | Some v -> Value.hash v + 1))
    s.inputs;
  !h land max_int

let pp_buf ppf q =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Value.pp)
    q

let pp ppf s =
  Format.fprintf ppf "@[<v 2>state:";
  Array.iteri (fun i v -> Format.fprintf ppf "@,P%d = %a" i Value.pp v) s.procs;
  Array.iteri
    (fun i svc ->
      Format.fprintf ppf "@,S#%d val=%a" i Value.pp svc.value;
      Array.iteri (fun p q -> if q <> [] then Format.fprintf ppf " inv[%d]=%a" p pp_buf q) svc.inv_bufs;
      Array.iteri (fun p q -> if q <> [] then Format.fprintf ppf " resp[%d]=%a" p pp_buf q) svc.resp_bufs)
    s.svcs;
  Format.fprintf ppf "@,failed=%a" Spec.Iset.pp s.failed;
  Array.iteri
    (fun i d -> match d with Some v -> Format.fprintf ppf "@,decided[%d]=%a" i Value.pp v | None -> ())
    s.decisions;
  Format.fprintf ppf "@]"

let with_proc s i v =
  let procs = Array.copy s.procs in
  procs.(i) <- v;
  { s with procs }

let with_svc s idx svc =
  let svcs = Array.copy s.svcs in
  svcs.(idx) <- svc;
  { s with svcs }

let with_decision s i v =
  let decisions = Array.copy s.decisions in
  decisions.(i) <- Some v;
  { s with decisions }

let with_input s i v =
  let inputs = Array.copy s.inputs in
  inputs.(i) <- Some v;
  { s with inputs }

let with_failed s failed = { s with failed }

let svc_push_inv svc ~pos a =
  let inv_bufs = Array.copy svc.inv_bufs in
  inv_bufs.(pos) <- inv_bufs.(pos) @ [ a ];
  { svc with inv_bufs }

let svc_pop_inv svc ~pos =
  match svc.inv_bufs.(pos) with
  | [] -> None
  | a :: rest ->
    let inv_bufs = Array.copy svc.inv_bufs in
    inv_bufs.(pos) <- rest;
    Some (a, { svc with inv_bufs })

let rec last = function [] -> None | [ x ] -> Some x | _ :: rest -> last rest

let svc_push_resp ?(coalesce = false) svc ~pos b =
  if coalesce && (match last svc.resp_bufs.(pos) with Some b' -> Value.equal b b' | None -> false)
  then svc
  else begin
    let resp_bufs = Array.copy svc.resp_bufs in
    resp_bufs.(pos) <- resp_bufs.(pos) @ [ b ];
    { svc with resp_bufs }
  end

let svc_pop_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | b :: rest ->
    let resp_bufs = Array.copy svc.resp_bufs in
    resp_bufs.(pos) <- rest;
    Some (b, { svc with resp_bufs })

let svc_drop_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | _ :: rest ->
    let resp_bufs = Array.copy svc.resp_bufs in
    resp_bufs.(pos) <- rest;
    Some { svc with resp_bufs }

let svc_dup_resp svc ~pos =
  match svc.resp_bufs.(pos) with
  | [] -> None
  | (b :: _) as q ->
    let resp_bufs = Array.copy svc.resp_bufs in
    resp_bufs.(pos) <- q @ [ b ];
    Some { svc with resp_bufs }

let svc_delay_resp svc ~pos ~lag =
  match svc.resp_bufs.(pos) with
  | [] | [ _ ] -> None
  | b :: rest ->
    let lag = min lag (List.length rest) in
    if lag <= 0 then None
    else begin
      let rec insert n q = if n = 0 then b :: q else match q with [] -> [ b ] | x :: q' -> x :: insert (n - 1) q' in
      let resp_bufs = Array.copy svc.resp_bufs in
      resp_bufs.(pos) <- insert lag rest;
      Some { svc with resp_bufs }
    end

let decided_pairs s =
  Array.to_list s.decisions
  |> List.mapi (fun i d -> Option.map (fun v -> i, v) d)
  |> List.filter_map Fun.id

let decided_values s =
  decided_pairs s |> List.map snd |> List.sort_uniq Value.compare
