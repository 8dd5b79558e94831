(* Order statistics shared by the benchmark and the comparator. *)

let sorted xs = List.sort Float.compare xs

(* Percentile [p] in [0, 100] by linear interpolation between closest
   ranks; [nan] on an empty sample. *)
let percentile p xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let r = p /. 100. *. float (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spreads printed
   here match the ones a reviewer computes from the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then
    let x = if ld = 1 then a.(0) else Float.nan in
    (x, x)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)
