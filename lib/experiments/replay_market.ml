module Broker = Dm_market.Broker
module Mechanism = Dm_market.Mechanism
module Ellipsoid = Dm_market.Ellipsoid
module Model = Dm_market.Model
module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Subgaussian = Dm_prob.Subgaussian

let default_dim = 16
let delta = 0.01

let scaled_rounds scale rounds =
  max 100 (int_of_float (Float.round (scale *. float_of_int rounds)))

type setup = {
  dim : int;
  rounds : int;
  model : Model.t;
  radius : float;
  epsilon : float;
  workload : int -> Vec.t * float;
  noise : int -> float;
}

(* The App-1 market shape (tilted non-negative θ* with ‖θ‖ = √(2n),
   unit-norm non-negative features, reserve q = Σᵢ x_i) but with the
   stream backed by per-round [Rng.split] children instead of a single
   sequential cursor: [workload]/[noise] replay round [t] from a copy
   of child [t], so they are pure in [t].  Crash recovery needs that:
   one setup serves [Recover]'s uninterrupted reference, the journaled
   run it kills mid-stream and the run it resumes, and each must see
   the same round [t].  The split order fixes every recorded result,
   so it must not change. *)
let make_setup ?(dim = default_dim) ~seed ~rounds () =
  let root = Rng.create seed in
  let theta_rng = Rng.split root in
  let workload_root = Rng.split root in
  let noise_root = Rng.split root in
  let theta =
    let markup = Vec.map abs_float (Dist.normal_vec theta_rng ~dim) in
    let tilted = Vec.init dim (fun i -> 1. +. (3. *. markup.(i))) in
    Vec.scale (sqrt (2. *. float_of_int dim)) (Vec.normalize tilted)
  in
  let model = Model.linear ~theta in
  let radius = 2. *. sqrt (float_of_int dim) in
  let epsilon = float_of_int (dim * dim) /. float_of_int rounds in
  let sigma = Subgaussian.sigma_for_buffer ~delta ~horizon:rounds () in
  let workload_streams = Array.init rounds (fun _ -> Rng.split workload_root) in
  let noise_streams = Array.init rounds (fun _ -> Rng.split noise_root) in
  let workload t =
    let rng = Rng.copy workload_streams.(t) in
    let x = Vec.normalize (Vec.map abs_float (Dist.normal_vec rng ~dim)) in
    (x, Array.fold_left ( +. ) 0. x)
  in
  let noise t =
    Dist.normal (Rng.copy noise_streams.(t)) ~mean:0. ~std:sigma
  in
  { dim; rounds; model; radius; epsilon; workload; noise }

(* Same ε floor as [Noisy_query.mechanism]: below 2.5nδ the buffered
   cuts stall (EXPERIMENTS.md), so the uncertainty variants would
   explore forever at a stuck width. *)
let mechanism setup variant =
  let epsilon =
    Float.max setup.epsilon
      (2.5 *. float_of_int setup.dim *. variant.Mechanism.delta)
  in
  Mechanism.create
    (Mechanism.config ~variant ~epsilon ())
    (Ellipsoid.ball ~dim:setup.dim ~radius:setup.radius)

let variants =
  [
    ("pure", Mechanism.pure);
    ("uncertainty", Mechanism.with_uncertainty ~delta);
    ("reserve", Mechanism.with_reserve);
    ("reserve+unc", Mechanism.with_reserve_and_uncertainty ~delta);
  ]

let bits = Int64.bits_of_float

let floats_identical a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if bits x <> bits b.(i) then ok := false) a;
      !ok)

let series_identical (a : Broker.series) (b : Broker.series) =
  a.Broker.checkpoints = b.Broker.checkpoints
  && floats_identical a.Broker.cumulative_regret b.Broker.cumulative_regret
  && floats_identical a.Broker.cumulative_value b.Broker.cumulative_value
  && floats_identical a.Broker.regret_ratio b.Broker.regret_ratio
