let min_beyond = 10

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let nearest_rank s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.nearest_rank: empty sample";
  s.(rank ~n p - 1)

let beyond ~n p = if n = 0 then 0 else n - rank ~n p

let reportable ~n p = beyond ~n p >= min_beyond

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.median: empty sample";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's default method: m = n + 1, cut point j = ⌊i·m/4⌋ clamped
   to [1, n − 1], then linear interpolation with weight (i·m − 4j)/4. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Quantile.quartiles: need at least two values";
  let s = sorted a in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let spread a =
  if Array.length a < 2 then 0.
  else
    let q1, q2, q3 = quartiles a in
    if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
