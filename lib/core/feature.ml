module Vec = Dm_linalg.Vec

let aggregate ~dim comps =
  let m = Vec.dim comps in
  if dim < 1 || dim > m then
    invalid_arg "Feature.aggregate: dim must be within [1, owner count]";
  let i = ref 0 in
  while !i < m && Array.unsafe_get comps !i >= 0. do
    incr i
  done;
  if !i < m then invalid_arg "Feature.aggregate: negative or NaN compensation";
  let sorted = Vec.sorted comps in
  let out = Vec.zeros dim in
  (* Partition boundaries ⌊k·m/dim⌋ make the parts as even as
     possible; every element lands in exactly one part. *)
  for k = 0 to dim - 1 do
    let start = k * m / dim in
    let stop = (k + 1) * m / dim in
    let acc = ref 0. in
    for i = start to stop - 1 do
      acc := !acc +. sorted.(i)
    done;
    out.(k) <- !acc
  done;
  out

(* [Vec.scale (1. /. n)]'s products, written in place.  A NaN norm
   scales too (every feature becomes NaN), hence [not (n <= 0.)] rather
   than [n > 0.]. *)
let[@inline] normalize_in_place v =
  let n = Vec.norm2 v in
  if not (n <= 0.) then begin
    let a = 1. /. n in
    for i = 0 to Array.length v - 1 do
      Array.unsafe_set v i (a *. Array.unsafe_get v i)
    done
  end

(* [Vec.sum]'s left-to-right sum from [0.], without its boxing fold. *)
let[@inline] sum v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. Array.unsafe_get v i
  done;
  !acc

let unit_normalize v =
  let w = Vec.copy v in
  normalize_in_place w;
  w

let of_compensations ~dim comps =
  let features = aggregate ~dim comps in
  normalize_in_place features;
  (features, sum features)
