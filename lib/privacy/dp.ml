module Vec = Dm_linalg.Vec

type query = { weights : Vec.t; noise_scale : float }

let make_query ~weights ~noise_scale =
  if Vec.dim weights = 0 then invalid_arg "Dp.make_query: no owners";
  if not (noise_scale > 0.) then
    invalid_arg "Dp.make_query: noise scale must be positive";
  { weights; noise_scale }

let variance_to_scale v =
  if not (v > 0.) then
    invalid_arg "Dp.variance_to_scale: variance must be positive";
  sqrt (v /. 2.)

let owner_count q = Vec.dim q.weights

let leakage q ~data_ranges =
  let m = Vec.dim q.weights in
  if Vec.dim data_ranges <> m then invalid_arg "Dp.leakage: dimension mismatch";
  let out = Array.create_float m in
  for i = 0 to m - 1 do
    let range = Array.unsafe_get data_ranges i in
    if not (range >= 0.) then
      invalid_arg "Dp.leakage: negative or NaN data range";
    Array.unsafe_set out i
      (abs_float (Array.unsafe_get q.weights i) *. range /. q.noise_scale)
  done;
  out

let true_answer q ~data = Vec.dot q.weights data

let noisy_answer rng q ~data =
  true_answer q ~data +. Dm_prob.Dist.laplace rng ~scale:q.noise_scale

let total_epsilon q ~data_ranges = Vec.sum (leakage q ~data_ranges)
