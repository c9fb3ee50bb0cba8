module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Avazu = Dm_synth.Avazu
module Hashing = Dm_ml.Hashing
module Ftrl = Dm_ml.Ftrl
module Model = Dm_market.Model
module Mechanism = Dm_market.Mechanism
module Ellipsoid = Dm_market.Ellipsoid
module Broker = Dm_market.Broker

type case = Sparse | Dense

type t = {
  hash_dim : int;
  rounds : int;
  theta_nonzeros : int;
  train_log_loss : float;
  sparse_model : Model.t;
  dense_model : Model.t;
  dense_dim : int;
  sparse_stream : Vec.t array;
  dense_stream : Vec.t array;
  feature_bound : float;
}

let make ?(train_rounds = 200_000) ?ftrl_l1 ~seed ~dim ~rounds () =
  (* The L1 threshold competes with z-accumulator random walks that
     grow like √N over the training stream; scaling it accordingly
     recovers the paper's ≈21–23 non-zero weights at either n. *)
  let ftrl_l1 =
    match ftrl_l1 with
    | Some l1 -> l1
    | None -> 0.8 *. sqrt (float_of_int train_rounds)
  in
  if dim < 2 then invalid_arg "Impression.make: dim must be >= 2";
  if rounds < 1 then invalid_arg "Impression.make: need at least one round";
  if train_rounds < 1 then
    invalid_arg "Impression.make: need at least one training round";
  let root = Rng.create seed in
  let train_rng = Rng.split root in
  let price_rng = Rng.split root in
  (* Learn θ* on a training stream, exactly the paper's FTRL-Proximal
     step (per-coordinate rates, L1/L2).  Each impression is encoded as
     it is drawn, in [Avazu.generate]'s order, so the raw stream (nine
     fresh string pairs per impression) is never held alongside its
     encodings. *)
  let examples =
    Array.init train_rounds (fun _ ->
        let imp = Avazu.draw train_rng in
        (Avazu.encode ~dim imp, imp.Avazu.clicked))
  in
  let ftrl =
    Ftrl.create
      ~params:{ Ftrl.alpha = 0.1; beta = 1.; l1 = ftrl_l1; l2 = 1. }
      ~dim ()
  in
  Ftrl.train ftrl examples ~epochs:2;
  let theta = Ftrl.weights ftrl in
  let train_log_loss = Ftrl.log_loss ftrl examples in
  (* Support of the fitted model: the dense case keeps only these. *)
  let support =
    Array.of_list
      (List.filter (fun i -> theta.(i) <> 0.)
         (List.init dim (fun i -> i)))
  in
  let support = if Array.length support = 0 then [| 0 |] else support in
  let dense_dim = Array.length support in
  let theta_dense = Array.map (fun i -> theta.(i)) support in
  (* The pricing stream: fresh impressions from the same market,
     streamed the same way. *)
  let sparse_stream =
    Array.init rounds (fun _ ->
        Hashing.to_dense ~dim (Avazu.encode ~dim (Avazu.draw price_rng)))
  in
  let dense_stream =
    Array.map
      (fun x -> Vec.init dense_dim (fun k -> x.(support.(k))))
      sparse_stream
  in
  let feature_bound =
    Array.fold_left (fun acc x -> Float.max acc (Vec.norm2 x)) 0. sparse_stream
  in
  {
    hash_dim = dim;
    rounds;
    theta_nonzeros = Ftrl.nonzeros ftrl;
    train_log_loss;
    sparse_model = Model.logistic ~theta;
    dense_model = Model.logistic ~theta:theta_dense;
    dense_dim;
    sparse_stream;
    dense_stream;
    feature_bound;
  }

let model t = function Sparse -> t.sparse_model | Dense -> t.dense_model

let dim t = function Sparse -> t.hash_dim | Dense -> t.dense_dim

let workload t case =
  let stream =
    match case with Sparse -> t.sparse_stream | Dense -> t.dense_stream
  in
  fun i -> (stream.(i), 0.)

let default_epsilon t case =
  let n = dim t case in
  float_of_int (n * n) /. float_of_int t.rounds

let mechanism ?epsilon t case variant =
  let epsilon =
    match epsilon with Some e -> e | None -> default_epsilon t case
  in
  let n = dim t case in
  let theta = (model t case).Model.theta in
  let radius = 1.2 *. Float.max 1. (Vec.norm2 theta) in
  Mechanism.create
    (Mechanism.config ~variant ~epsilon ())
    (Ellipsoid.ball ~dim:n ~radius)

let run ?checkpoints ?epsilon t case variant =
  Broker.run ?checkpoints
    ~policy:(Broker.Ellipsoid_pricing (mechanism ?epsilon t case variant))
    ~model:(model t case)
    ~noise:(fun _ -> 0.)
    ~workload:(workload t case) ~rounds:t.rounds ()
