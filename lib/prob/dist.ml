module Vec = Dm_linalg.Vec

let normal rng ~mean ~std =
  if not (std >= 0.) then invalid_arg "Dist.normal: negative or NaN std";
  (* Box–Muller; u1 is kept away from 0 so the log is finite. *)
  let u1 = 1. -. Rng.float rng in
  let u2 = Rng.float rng in
  mean +. (std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let normal_vec rng ~dim = Vec.init dim (fun _ -> normal rng ~mean:0. ~std:1.)

let uniform_vec rng ~dim ~lo ~hi = Vec.init dim (fun _ -> Rng.uniform rng lo hi)

let laplace rng ~scale =
  if not (scale >= 0.) then invalid_arg "Dist.laplace: negative or NaN scale";
  let u = Rng.float rng -. 0.5 in
  let s = if u >= 0. then 1. else -1. in
  -.scale *. s *. log (1. -. (2. *. abs_float u))

let rademacher rng = if Rng.bool rng then 1. else -1.

let bernoulli rng ~p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Dist.bernoulli: p outside [0,1]";
  Rng.float rng < p

let exponential rng ~rate =
  if not (rate > 0.) then
    invalid_arg "Dist.exponential: rate must be positive, not NaN";
  -.log (1. -. Rng.float rng) /. rate

let categorical rng ~weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then
    invalid_arg "Dist.categorical: weights must sum > 0, not NaN";
  Array.iter
    (fun w ->
      if not (w >= 0.) then
        invalid_arg "Dist.categorical: negative or NaN weight")
    weights;
  let u = Rng.float rng *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let zipf rng ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if not (s >= 0.) then invalid_arg "Dist.zipf: negative or NaN exponent";
  let weights =
    Array.init n (fun k -> (1. /. float_of_int (k + 1)) ** s)
  in
  categorical rng ~weights

let student_t rng ~dof ~scale =
  if dof <= 0. || not (Float.is_finite dof) then
    invalid_arg "Dist.student_t: dof must be finite and positive";
  if not (scale >= 0.) then
    invalid_arg "Dist.student_t: negative or NaN scale";
  (* Bailey's polar method: with u, v uniform on (0,1],
     √(ν·(u^{−2/ν} − 1))·cos(2πv) is Student-t with ν degrees of
     freedom.  Two uniforms per call, like Box–Muller above, so
     consumption per draw is deterministic. *)
  let u = 1. -. Rng.float rng in
  let v = Rng.float rng in
  scale
  *. sqrt (dof *. ((u ** (-2. /. dof)) -. 1.))
  *. cos (2. *. Float.pi *. v)

let pareto rng ~alpha ~scale =
  if alpha <= 0. || not (Float.is_finite alpha) then
    invalid_arg "Dist.pareto: alpha must be finite and positive";
  if not (scale >= 0.) then
    invalid_arg "Dist.pareto: negative or NaN scale";
  (* Inverse CDF: x_m·u^{−1/α} on [x_m, ∞); u is kept away from 0 so
     the draw is finite. *)
  let u = 1. -. Rng.float rng in
  scale *. (u ** (-1. /. alpha))

let symmetric_pareto rng ~alpha ~scale =
  (* Excess over the mode with a fair sign: s·(x − x_m) is zero-median
     with both tails Pareto-heavy — infinite variance at α ≤ 2,
     infinite mean of |·| at α ≤ 1.  The sign is drawn first so the
     two-draws-per-call consumption is deterministic. *)
  let s = if Rng.bool rng then 1. else -1. in
  let x = pareto rng ~alpha ~scale in
  s *. (x -. scale)

type subgaussian =
  | Gaussian of float
  | Uniform_pm of float
  | Scaled_rademacher of float
  | Degenerate

let subgaussian_sample rng = function
  | Gaussian sigma -> normal rng ~mean:0. ~std:sigma
  | Uniform_pm a -> Rng.uniform rng (-.a) a
  | Scaled_rademacher a -> a *. rademacher rng
  | Degenerate -> 0.

let subgaussian_sigma = function
  | Gaussian sigma -> sigma
  | Uniform_pm a -> a
  | Scaled_rademacher a -> a
  | Degenerate -> 0.

let on_sphere rng ~dim ~radius =
  if not (radius >= 0.) then
    invalid_arg "Dist.on_sphere: negative or NaN radius";
  let rec draw () =
    let v = normal_vec rng ~dim in
    if Vec.norm2 v > 1e-12 then v else draw ()
  in
  Vec.scale radius (Vec.normalize (draw ()))
