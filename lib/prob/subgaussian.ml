let check_c c =
  if not (c > 1.) then invalid_arg "Subgaussian: C must exceed 1 (NaN refused)"

let buffer ?(c = 2.) ~sigma ~horizon () =
  check_c c;
  if not (sigma >= 0.) then
    invalid_arg "Subgaussian.buffer: negative or NaN sigma";
  if horizon < 1 then invalid_arg "Subgaussian.buffer: horizon must be >= 1";
  sqrt (2. *. log c) *. sigma *. log (float_of_int horizon)

let sigma_for_buffer ?(c = 2.) ~delta ~horizon () =
  check_c c;
  if not (delta >= 0.) then
    invalid_arg "Subgaussian.sigma_for_buffer: negative or NaN delta";
  if horizon < 2 then
    invalid_arg "Subgaussian.sigma_for_buffer: horizon must be >= 2";
  delta /. (sqrt (2. *. log c) *. log (float_of_int horizon))

let tail_bound ?(c = 2.) ~sigma ~z () =
  check_c c;
  if not (z >= 0.) then invalid_arg "Subgaussian.tail_bound: negative or NaN z";
  if sigma = 0. then (if z > 0. then 0. else 1.)
  else Float.min 1. (c *. exp (-.(z *. z) /. (2. *. sigma *. sigma)))

let union_miss_probability ~horizon =
  if horizon < 1 then invalid_arg "Subgaussian.union_miss_probability";
  let t = float_of_int horizon in
  Float.min 1. (t ** (1. -. log t))

let low_uncertainty_delta ~dim ~horizon =
  if dim < 1 || horizon < 1 then invalid_arg "Subgaussian.low_uncertainty_delta";
  float_of_int dim /. float_of_int horizon

let default_threshold ~dim ~horizon =
  if dim < 1 || horizon < 1 then invalid_arg "Subgaussian.default_threshold";
  let t = float_of_int horizon in
  let base =
    if dim = 1 then log t /. log 2. /. t
    else float_of_int (dim * dim) /. t
  in
  let delta = low_uncertainty_delta ~dim ~horizon in
  Float.max base (4. *. float_of_int dim *. delta)
