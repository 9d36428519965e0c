(* Order statistics over samples, as the benchmark reports them. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least ten samples beyond it:
   the 11th-largest sample, or the largest when there are fewer than 11. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (n - 11))

let sum xs = Array.fold_left ( +. ) 0. xs
