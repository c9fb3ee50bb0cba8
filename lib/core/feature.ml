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

let unit_normalize v =
  let n = Vec.norm2 v in
  if n <= 0. then v else Vec.scale (1. /. n) v

let of_compensations ~dim comps =
  let features = unit_normalize (aggregate ~dim comps) in
  (features, Vec.sum features)
