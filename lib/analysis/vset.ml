module Value = Ioa.Value

type t = Top | Set of Value.t list

let cap = 24
let bot = Set []
let top = Top
let is_bot = function Set [] -> true | _ -> false
let is_top = function Top -> true | _ -> false
let singleton v = Set [ v ]

let norm vs = if List.length vs > cap then Top else Set vs

let of_list vs = norm (List.sort_uniq Value.compare vs)

let rec insert v = function
  | [] -> [ v ]
  | x :: rest as l ->
    let c = Value.compare v x in
    if c < 0 then v :: l else if c = 0 then l else x :: insert v rest

let add v = function Top -> Top | Set vs -> norm (insert v vs)
let mem v = function Top -> true | Set vs -> List.exists (Value.equal v) vs
let elements = function Top -> None | Set vs -> Some vs
let cardinal = function Top -> None | Set vs -> Some (List.length vs)

(* Sorted merge. The result is [a] itself, physically, whenever it equals
   [a], and otherwise [b] itself whenever it equals [b]: a join that adds
   nothing allocates nothing, and a later [==] test on it succeeds at once.
   Past a head only [b] has, the result can equal [b] alone, so the rest is
   merged with [ys] first to keep that identity. *)
let rec union a b =
  if a == b then a
  else
    match a, b with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c < 0 then
        let r = union xs b in
        if r == xs then a else x :: r
      else if c > 0 then
        let r = union ys a in
        if r == ys then b else y :: r
      else
        let r = union xs ys in
        if r == xs then a else if r == ys then b else x :: r

(* Subset by sorted merge, O(n + m) on the sorted duplicate-free lists. *)
let rec subset xs ys =
  xs == ys
  ||
  match xs, ys with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    let c = Value.compare x y in
    if c = 0 then subset xs' ys' else c > 0 && subset xs ys'

let leq a b =
  match a, b with
  | _, Top -> true
  | Top, Set _ -> false
  | Set xs, Set ys -> subset xs ys

let join a b =
  match a, b with
  | Top, _ -> a
  | _, Top -> b
  | Set xs, Set ys ->
    let u = union xs ys in
    if u == xs then a else if u == ys then b else norm u

let widen = join

let rec list_equal xs ys =
  xs == ys
  ||
  match xs, ys with
  | x :: xs', y :: ys' -> Value.equal x y && list_equal xs' ys'
  | _ -> false

let equal a b =
  match a, b with
  | Top, Top -> true
  | Set xs, Set ys -> list_equal xs ys
  | _ -> false

let map f = function Top -> Top | Set vs -> of_list (List.map f vs)

let concat_map f = function
  | Top -> Top
  | Set vs ->
    List.fold_left
      (fun acc v -> match acc with Top -> Top | _ -> join acc (f v))
      bot vs

let pp ppf = function
  | Top -> Format.fprintf ppf "⊤"
  | Set vs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Value.pp)
      vs
