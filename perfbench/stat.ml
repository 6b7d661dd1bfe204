(* Order statistics over float samples.  Every function copies before
   sorting, so callers may pass arrays they keep using. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median a = quantile a 0.5
let median_l l = median (Array.of_list l)
let max_of a = Array.fold_left Float.max neg_infinity a

(* The first and third quartiles exactly as Python's
   [statistics.quantiles(data, n=4)] ("exclusive" method) computes them,
   so the benchmark's own spread check agrees with any external one.
   Needs at least two samples. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 3)
