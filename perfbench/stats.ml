(* Order statistics over a run's samples. *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spread printed here is the one
   a caller recomputes from the same samples. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  match n with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
