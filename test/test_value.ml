(* Unit and property tests for Ioa.Value: ordering, hashing, and the
   canonical set/map/queue encodings. *)

open Ioa
open Helpers

let v = Alcotest.check value_testable

let test_constructors () =
  v "unit" Value.unit Value.Unit;
  v "bool" (Value.bool true) (Value.Bool true);
  v "int" (Value.int 42) (Value.Int 42);
  v "str" (Value.str "x") (Value.Str "x");
  v "pair" (Value.pair (Value.int 1) (Value.int 2)) (Value.Pair (Value.Int 1, Value.Int 2));
  v "triple"
    (Value.triple (Value.int 1) (Value.int 2) (Value.int 3))
    (Value.Pair (Value.Int 1, Value.Pair (Value.Int 2, Value.Int 3)));
  v "of_int_list" (Value.of_int_list [ 1; 2 ]) (Value.List [ Value.Int 1; Value.Int 2 ])

let test_destructors () =
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.bool true));
  Alcotest.(check int) "to_int" 7 (Value.to_int (Value.int 7));
  Alcotest.(check string) "to_str" "a" (Value.to_str (Value.str "a"));
  let a, b = Value.to_pair (Value.pair Value.unit (Value.int 1)) in
  v "to_pair fst" a Value.unit;
  v "to_pair snd" b (Value.int 1);
  let x, y, z = Value.to_triple (Value.triple (Value.int 1) (Value.int 2) (Value.int 3)) in
  Alcotest.(check (list int)) "to_triple" [ 1; 2; 3 ] (List.map Value.to_int [ x; y; z ])

let test_type_errors () =
  Alcotest.check_raises "to_int on str" (Value.Type_error "expected int, got \"a\"")
    (fun () -> ignore (Value.to_int (Value.str "a")));
  Alcotest.check_raises "to_pair on int" (Value.Type_error "expected pair, got 3") (fun () ->
    ignore (Value.to_pair (Value.int 3)))

let test_ordering_constructors () =
  (* Unit < Bool < Int < Str < Pair < List *)
  let chain =
    [
      Value.Unit;
      Value.Bool false;
      Value.Int 0;
      Value.Str "";
      Value.Pair (Value.Unit, Value.Unit);
      Value.List [];
    ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          let c = Value.compare a b in
          if i < j then Alcotest.(check bool) "lt" true (c < 0)
          else if i = j then Alcotest.(check int) "eq" 0 c
          else Alcotest.(check bool) "gt" true (c > 0))
        chain)
    chain

let test_sets () =
  let s = Value.set_of_list [ Value.int 3; Value.int 1; Value.int 3; Value.int 2 ] in
  v "set_of_list dedups and sorts" s (Value.of_int_list [ 1; 2; 3 ]);
  Alcotest.(check bool) "mem" true (Value.set_mem (Value.int 2) s);
  Alcotest.(check bool) "not mem" false (Value.set_mem (Value.int 9) s);
  v "add existing" (Value.set_add (Value.int 2) s) s;
  v "add new" (Value.set_add (Value.int 0) s) (Value.of_int_list [ 0; 1; 2; 3 ]);
  v "remove" (Value.set_remove (Value.int 2) s) (Value.of_int_list [ 1; 3 ]);
  v "union"
    (Value.set_union s (Value.of_int_list [ 0; 2; 4 ]))
    (Value.of_int_list [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check int) "cardinal" 3 (Value.set_cardinal s);
  Alcotest.(check bool) "subset" true (Value.set_subset (Value.of_int_list [ 1; 3 ]) s);
  Alcotest.(check bool) "not subset" false (Value.set_subset (Value.of_int_list [ 1; 4 ]) s);
  Alcotest.(check bool) "empty subset" true (Value.set_subset Value.set_empty s)

let test_maps () =
  let m = Value.map_add (Value.int 2) (Value.str "b") Value.map_empty in
  let m = Value.map_add (Value.int 1) (Value.str "a") m in
  Alcotest.(check (option string))
    "find 1" (Some "a")
    (Option.map Value.to_str (Value.map_find (Value.int 1) m));
  Alcotest.(check (option string))
    "find missing" None
    (Option.map Value.to_str (Value.map_find (Value.int 9) m));
  v "get default" (Value.map_get ~default:Value.unit (Value.int 9) m) Value.unit;
  let m2 = Value.map_add (Value.int 1) (Value.str "z") m in
  Alcotest.(check (option string))
    "overwrite" (Some "z")
    (Option.map Value.to_str (Value.map_find (Value.int 1) m2));
  Alcotest.(check int) "bindings sorted" 1
    (Value.to_int (fst (List.hd (Value.map_bindings m))));
  let m3 = Value.map_remove (Value.int 1) m in
  Alcotest.(check (option string))
    "removed" None
    (Option.map Value.to_str (Value.map_find (Value.int 1) m3))

let test_map_canonical () =
  (* Insertion order must not affect the representation. *)
  let m1 =
    Value.map_add (Value.int 1) (Value.str "a")
      (Value.map_add (Value.int 2) (Value.str "b") Value.map_empty)
  in
  let m2 =
    Value.map_add (Value.int 2) (Value.str "b")
      (Value.map_add (Value.int 1) (Value.str "a") Value.map_empty)
  in
  v "insertion order irrelevant" m1 m2

let test_queues () =
  let q = Value.queue_push (Value.int 2) (Value.queue_push (Value.int 1) Value.queue_empty) in
  Alcotest.(check int) "length" 2 (Value.queue_length q);
  Alcotest.(check bool) "not empty" false (Value.queue_is_empty q);
  (match Value.queue_pop q with
  | Some (x, rest) ->
    v "FIFO head" x (Value.int 1);
    (match Value.queue_pop rest with
    | Some (y, rest2) ->
      v "FIFO second" y (Value.int 2);
      Alcotest.(check bool) "drained" true (Value.queue_is_empty rest2)
    | None -> Alcotest.fail "expected second element")
  | None -> Alcotest.fail "expected head");
  Alcotest.(check bool) "pop empty" true (Value.queue_pop Value.queue_empty = None)

let test_pp () =
  Alcotest.(check string) "pp pair" "(1, true)" (Value.to_string (Value.pair (Value.int 1) (Value.bool true)));
  Alcotest.(check string) "pp unit" "()" (Value.to_string Value.unit);
  Alcotest.(check string) "pp list" "[1; 2]" (Value.to_string (Value.of_int_list [ 1; 2 ]))

(* Properties *)

let prop_compare_refl = qtest "compare reflexive" value_gen (fun a -> Value.compare a a = 0)

let prop_compare_antisym =
  qtest "compare antisymmetric" QCheck2.Gen.(pair value_gen value_gen) (fun (a, b) ->
    let c1 = Value.compare a b and c2 = Value.compare b a in
    (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_compare_trans =
  qtest "compare transitive" QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

(* [Value.hash] as a local closure fold, the form it had before its fold
   moved to the top level: the values must not move. *)
let closure_hash v =
  let combine h x = (h * 16777619) lxor x in
  let rec go h = function
    | Value.Unit -> combine h 1
    | Value.Bool b -> combine (combine h 2) (if b then 1 else 0)
    | Value.Int i -> combine (combine h 3) i
    | Value.Str s -> combine (combine h 4) (Hashtbl.hash s)
    | Value.Pair (a, b) -> go (go (combine h 5) a) b
    | Value.List xs -> List.fold_left go (combine h 6) xs
  in
  go 2166136261 v land max_int

let prop_hash_reference =
  qtest "hash ≡ closure-fold reference" value_gen (fun v -> Value.hash v = closure_hash v)

let prop_hash_consistent =
  qtest "equal implies same hash" QCheck2.Gen.(pair value_gen value_gen) (fun (a, b) ->
    (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* [Value.compare] without its [==] short-cut: a purely structural walk
   that never looks at physical identity. *)
let rec structural_compare a b =
  match a, b with
  | Value.Unit, Value.Unit -> 0
  | Value.Unit, _ -> -1
  | _, Value.Unit -> 1
  | Value.Bool x, Value.Bool y -> Bool.compare x y
  | Value.Bool _, _ -> -1
  | _, Value.Bool _ -> 1
  | Value.Int x, Value.Int y -> Int.compare x y
  | Value.Int _, _ -> -1
  | _, Value.Int _ -> 1
  | Value.Str x, Value.Str y -> String.compare x y
  | Value.Str _, _ -> -1
  | _, Value.Str _ -> 1
  | Value.Pair (x1, y1), Value.Pair (x2, y2) ->
    let c = structural_compare x1 x2 in
    if c <> 0 then c else structural_compare y1 y2
  | Value.Pair _, _ -> -1
  | _, Value.Pair _ -> 1
  | Value.List xs, Value.List ys -> List.compare structural_compare xs ys

(* Replace the subterm that the bits of [k] steer to with [f] of it, keeping
   every other subterm (list tails included) physically shared. *)
let rec edit k f v =
  match v with
  | Value.Pair (a, b) when k > 1 ->
    if k land 1 = 0 then Value.Pair (edit (k lsr 1) f a, b) else Value.Pair (a, edit (k lsr 1) f b)
  | Value.List (_ :: _ as xs) when k > 1 ->
    let i = (k lsr 1) mod List.length xs in
    let rec go j = function
      | [] -> []
      | x :: rest -> if j = 0 then edit (k lsr 3) f x :: rest else x :: go (j - 1) rest
    in
    Value.List (go i xs)
  | _ -> f v

(* Pairs with every kind of sharing: aliased, a deep copy, one-site edits
   (to a fresh equal subterm or to an arbitrary one) that share the rest,
   two edits of a common base, and unrelated values. *)
let related_pair_gen =
  let open QCheck2.Gen in
  let* a = value_gen in
  let* k1 = int_bound 4095 and* k2 = int_bound 4095 and* r = value_gen in
  let subst = function 0 -> fresh_copy | _ -> fun _ -> r in
  let* s1 = int_bound 1 and* s2 = int_bound 1 in
  oneofl
    [
      a, a;
      a, fresh_copy a;
      a, edit k1 (subst s1) a;
      edit k1 (subst s1) a, edit k2 (subst s2) a;
      Value.Pair (a, a), Value.Pair (a, fresh_copy a);
      Value.List [ a; r ], Value.List [ fresh_copy a; r ];
      a, r;
    ]

let prop_compare_reference =
  qtest "compare ≡ structural reference under sharing" ~count:500 related_pair_gen
    (fun (a, b) ->
      Value.compare a b = structural_compare a b
      && Value.compare b a = structural_compare b a
      && Value.equal a b = (structural_compare a b = 0))

let prop_set_model =
  qtest "set ops match a model" ~count:300
    QCheck2.Gen.(list_size (int_bound 12) (int_bound 8))
    (fun xs ->
      let s = Value.set_of_list (List.map Value.int xs) in
      let model = List.sort_uniq Int.compare xs in
      List.map Value.to_int (Value.set_elements s) = model
      && Value.set_cardinal s = List.length model)

let prop_set_add_mem =
  qtest "set_add then mem" QCheck2.Gen.(pair (int_bound 20) (list_size (int_bound 10) (int_bound 20)))
    (fun (x, xs) ->
      let s = Value.set_of_list (List.map Value.int xs) in
      Value.set_mem (Value.int x) (Value.set_add (Value.int x) s))

let prop_map_model =
  qtest "map_add/find match assoc model" ~count:300
    QCheck2.Gen.(list_size (int_bound 12) (pair (int_bound 6) (int_bound 50)))
    (fun kvs ->
      let m =
        List.fold_left
          (fun m (k, v) -> Value.map_add (Value.int k) (Value.int v) m)
          Value.map_empty kvs
      in
      let model k =
        List.fold_left (fun acc (k', v) -> if k = k' then Some v else acc) None kvs
      in
      List.for_all
        (fun k ->
          Option.map Value.to_int (Value.map_find (Value.int k) m) = model k)
        (List.init 7 Fun.id))

let prop_queue_fifo =
  qtest "queue is FIFO" QCheck2.Gen.(list_size (int_bound 10) (int_bound 100)) (fun xs ->
    let q = List.fold_left (fun q x -> Value.queue_push (Value.int x) q) Value.queue_empty xs in
    let rec drain q acc =
      match Value.queue_pop q with
      | None -> List.rev acc
      | Some (x, rest) -> drain rest (Value.to_int x :: acc)
    in
    drain q [] = xs)

let suite =
  ( "value",
    [
      Alcotest.test_case "constructors" `Quick test_constructors;
      Alcotest.test_case "destructors" `Quick test_destructors;
      Alcotest.test_case "type errors" `Quick test_type_errors;
      Alcotest.test_case "constructor ordering" `Quick test_ordering_constructors;
      Alcotest.test_case "sets" `Quick test_sets;
      Alcotest.test_case "maps" `Quick test_maps;
      Alcotest.test_case "map canonical form" `Quick test_map_canonical;
      Alcotest.test_case "queues" `Quick test_queues;
      Alcotest.test_case "pretty-printing" `Quick test_pp;
      prop_compare_refl;
      prop_compare_antisym;
      prop_compare_trans;
      prop_hash_consistent;
      prop_hash_reference;
      prop_compare_reference;
      prop_set_model;
      prop_set_add_mem;
      prop_map_model;
      prop_queue_fifo;
    ] )
