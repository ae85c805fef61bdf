(** Order statistics shared by the benchmark and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile: the smallest sample with at least [p] percent
    of the sample at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(** {!percentile} of the sample in which each [(x, n)] stands for [n]
    copies of [x]. *)
let weighted_percentile xns p =
  let a = Array.of_list xns in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 a in
  if total = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int total))) in
    let rec go i seen =
      let x, n = a.(i) in
      if seen + n >= rank || i = Array.length a - 1 then x else go (i + 1) (seen + n)
    in
    go 0 0

(** First and third quartile exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
    computes them, so spreads printed here match the ones an external
    checker derives from the same values. Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  q 1, q 3

(** Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
