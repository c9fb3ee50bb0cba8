module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Airbnb = Dm_synth.Airbnb
module Linreg = Dm_ml.Linreg
module Split = Dm_ml.Split
module Model = Dm_market.Model
module Mechanism = Dm_market.Mechanism
module Ellipsoid = Dm_market.Ellipsoid
module Broker = Dm_market.Broker

type t = {
  dim : int;
  rounds : int;
  model : Model.t;
  radius : float;
  epsilon : float;
  test_mse : float;
  feature_bound : float;
  features : Mat.t;
}

let make ?(rows = 74_111) ~seed () =
  if rows < 10 then invalid_arg "Rental.make: need at least 10 rows";
  let root = Rng.create seed in
  let data_rng = Rng.split root in
  let split_rng = Rng.split root in
  let records = Airbnb.generate data_rng ~rows in
  let encoder = Airbnb.fit_encoder records in
  (* 80/20 split for the regression fit; the pricing stream then runs
     over the full corpus in arrival order, as the paper's T equals the
     corpus size. *)
  let { Split.train; test } = Split.random split_rng ~test_fraction:0.2 records in
  (* The staircase amenity block is strongly collinear; a ridge
     proportional to the sample count keeps the recovered weights
     small (the minimum-norm solution among near-equivalent fits),
     which in turn keeps the initial knowledge ball R = 2‖θ̂‖ tight. *)
  let ridge = 1e-3 *. float_of_int (Array.length train) in
  let fitted =
    Linreg.fit ~ridge ~intercept:false
      (Airbnb.design_matrix encoder train)
      (Airbnb.targets train)
  in
  let test_mse =
    Linreg.mse fitted (Airbnb.design_matrix encoder test) (Airbnb.targets test)
  in
  (* Normalize the log-price scale to [0, 1] over the training range.
     The paper's risk-averse baseline percentages (23.40 / 17.00 /
     9.33% at log-ratios 0.4 / 0.6 / 0.8) are only consistent with
     log prices on a unit scale, so their preprocessing must have
     normalized the regression target; we reproduce that by rescaling
     the fitted weights (exact, because feature 0 is the constant
     bias): zθ' = (zθ̂ − lo)/(hi − lo).  See EXPERIMENTS.md. *)
  let train_targets = Airbnb.targets train in
  let lo = Vec.min_elt train_targets in
  let hi = Vec.max_elt train_targets in
  let span = hi -. lo in
  let theta =
    Vec.init (Vec.dim fitted.Linreg.weights) (fun j ->
        let w = fitted.Linreg.weights.(j) /. span in
        if j = 0 then w -. (lo /. span) else w)
  in
  let model = Model.log_linear ~theta in
  let radius = 1.5 *. Float.max 0.75 (Vec.norm2 theta) in
  let epsilon = float_of_int (Airbnb.feature_dim * Airbnb.feature_dim) /. float_of_int rows in
  let features = Airbnb.design_matrix encoder records in
  {
    dim = Airbnb.feature_dim;
    rounds = rows;
    model;
    radius;
    epsilon;
    test_mse;
    feature_bound = Airbnb.max_feature_norm encoder records;
    features;
  }

let workload t ~ratio =
  if not (ratio >= 0. && ratio < 1.) then
    invalid_arg "Rental.workload: ratio must be in [0, 1), not NaN";
  fun i ->
    let x = Mat.row t.features i in
    let log_v = Model.index t.model x in
    (x, exp (ratio *. log_v))

let mechanism t variant =
  Mechanism.create
    (Mechanism.config ~variant ~epsilon:t.epsilon ())
    (Ellipsoid.ball ~dim:t.dim ~radius:t.radius)

let run ?checkpoints ?(ratio = 0.6) t variant =
  Broker.run ?checkpoints
    ~policy:(Broker.Ellipsoid_pricing (mechanism t variant))
    ~model:t.model
    ~noise:(fun _ -> 0.)
    ~workload:(workload t ~ratio) ~rounds:t.rounds ()

let run_baseline ?checkpoints ~ratio t =
  Broker.run ?checkpoints ~policy:Broker.Risk_averse ~model:t.model
    ~noise:(fun _ -> 0.)
    ~workload:(workload t ~ratio) ~rounds:t.rounds ()
