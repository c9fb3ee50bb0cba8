let poisson ~seed ~rate ~count =
  if not (rate > 0.) then invalid_arg "Arrivals.poisson: rate must be positive";
  if count < 0 then invalid_arg "Arrivals.poisson: negative count";
  let rng = Dm_prob.Rng.create seed in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t +. (Dm_prob.Dist.exponential rng ~rate *. 1e9);
      int_of_float !t)
