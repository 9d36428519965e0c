type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

exception Type_error of string

(* [Value.t] is immutable, so a physically equal pair of subterms is equal:
   every node answers [0] at once on [==]. Deep sharing is common — buffered
   queues and process states are rebuilt around the parts that did not
   change — so the short-cut saves whole subtree walks, not just the root. *)
let rec compare a b =
  if a == b then 0
  else
    match a, b with
    | Unit, Unit -> 0
    | Unit, _ -> -1
    | _, Unit -> 1
    | Bool x, Bool y -> Bool.compare x y
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Int x, Int y -> Int.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Str x, Str y -> String.compare x y
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Pair (x1, y1), Pair (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
    | Pair _, _ -> -1
    | _, Pair _ -> 1
    | List xs, List ys -> compare_lists xs ys

and compare_lists xs ys =
  if xs == ys then 0
  else
    match xs, ys with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* FNV-style fold over the whole structure: [Hashtbl.hash] only inspects a
   bounded prefix, which makes deep system states collide systematically.
   The fold is top-level so that a call allocates no closure. *)
let hash_combine h x = (h * 16777619) lxor x

let rec hash_fold h = function
  | Unit -> hash_combine h 1
  | Bool b -> hash_combine (hash_combine h 2) (if b then 1 else 0)
  | Int i -> hash_combine (hash_combine h 3) i
  | Str s -> hash_combine (hash_combine h 4) (Hashtbl.hash s)
  | Pair (a, b) -> hash_fold (hash_fold (hash_combine h 5) a) b
  | List xs -> List.fold_left hash_fold (hash_combine h 6) xs

let hash v = hash_fold 2166136261 v land max_int

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "@[<hov 1>(%a,@ %a)@]" pp a pp b
  | List xs ->
    Format.fprintf ppf "@[<hov 1>[%a]@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
      xs

let to_string v = Format.asprintf "%a" pp v

let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list xs = List xs
let triple a b c = Pair (a, Pair (b, c))
let of_int_list xs = List (List.map (fun i -> Int i) xs)

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (to_string v)))

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int i -> i | v -> type_error "int" v
let to_str = function Str s -> s | v -> type_error "string" v
let to_pair = function Pair (a, b) -> a, b | v -> type_error "pair" v
let to_list = function List xs -> xs | v -> type_error "list" v

let to_triple = function
  | Pair (a, Pair (b, c)) -> a, b, c
  | v -> type_error "triple" v

(* Sets: sorted duplicate-free lists. *)

let set_empty = List []

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: rest as l ->
    let c = compare x y in
    if c < 0 then x :: l else if c = 0 then l else y :: insert_sorted x rest

let set_of_list xs = List (List.fold_left (fun acc x -> insert_sorted x acc) [] xs)
let set_elements s = to_list s
let set_cardinal s = List.length (to_list s)
let set_mem x s = List.exists (equal x) (to_list s)
let set_add x s = List (insert_sorted x (to_list s))
let set_remove x s = List (List.filter (fun y -> not (equal x y)) (to_list s))
let set_union s1 s2 = List.fold_left (fun acc x -> set_add x acc) s1 (to_list s2)
let set_subset s1 s2 = List.for_all (fun x -> set_mem x s2) (to_list s1)

(* Maps: sorted assoc lists with unique keys. *)

let map_empty = List []

let map_find k m =
  let rec go = function
    | [] -> None
    | Pair (k', v) :: rest ->
      let c = compare k k' in
      if c = 0 then Some v else if c < 0 then None else go rest
    | v :: _ -> type_error "map binding" v
  in
  go (to_list m)

let map_get ~default k m = Option.value ~default (map_find k m)

let map_add k v m =
  let rec go = function
    | [] -> [ Pair (k, v) ]
    | Pair (k', v') :: rest as l ->
      let c = compare k k' in
      if c < 0 then Pair (k, v) :: l
      else if c = 0 then Pair (k, v) :: rest
      else Pair (k', v') :: go rest
    | b :: _ -> type_error "map binding" b
  in
  List (go (to_list m))

let map_remove k m =
  let keep = function
    | Pair (k', _) -> not (equal k k')
    | b -> type_error "map binding" b
  in
  List (List.filter keep (to_list m))

let map_bindings m =
  List.map
    (function Pair (k, v) -> k, v | b -> type_error "map binding" b)
    (to_list m)

(* Queues: plain lists, head = front. *)

let queue_empty = List []
let queue_push x q = List (to_list q @ [ x ])
let queue_pop q = match to_list q with [] -> None | x :: rest -> Some (x, List rest)
let queue_is_empty q = to_list q = []
let queue_length q = List.length (to_list q)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
