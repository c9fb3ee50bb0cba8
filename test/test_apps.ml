(* Integration tests for the dm_apps application wiring (Sections V-A,
   V-B, V-C of the paper) at reduced scale. *)

module Vec = Dm_linalg.Vec
module Mechanism = Dm_market.Mechanism
module Broker = Dm_market.Broker
module Model = Dm_market.Model
module Noisy_query = Dm_apps.Noisy_query
module Rental = Dm_apps.Rental
module Impression = Dm_apps.Impression
module Ellipsoid = Dm_market.Ellipsoid
module Avazu = Dm_synth.Avazu
module Hashing = Dm_ml.Hashing

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* App 1: noisy linear query                                           *)
(* ------------------------------------------------------------------ *)

let nq_setup = lazy (Noisy_query.make ~owners:120 ~seed:11 ~dim:10 ~rounds:2000 ())

let test_nq_parameters () =
  let s = Lazy.force nq_setup in
  check_int "dim" 10 s.Noisy_query.dim;
  check_bool "radius = 2√n" true
    (abs_float (s.Noisy_query.radius -. (2. *. sqrt 10.)) < 1e-9);
  check_bool "epsilon = n²/T" true
    (abs_float (s.Noisy_query.epsilon -. (100. /. 2000.)) < 1e-12);
  (* ‖θ*‖ = √(2n). *)
  check_bool "theta norm" true
    (abs_float (Vec.norm2 s.Noisy_query.model.Model.theta -. sqrt 20.) < 1e-9);
  (* σ reproduces δ through the buffer formula. *)
  check_bool "sigma consistent" true
    (abs_float
       (Dm_prob.Subgaussian.buffer ~sigma:s.Noisy_query.sigma ~horizon:2000 ()
       -. s.Noisy_query.delta)
    < 1e-12)

let test_nq_workload_properties () =
  let s = Lazy.force nq_setup in
  let workload = Noisy_query.workload s in
  for t = 0 to 199 do
    let x, reserve = workload t in
    check_bool "unit norm features" true (abs_float (Vec.norm2 x -. 1.) < 1e-9);
    check_bool "non-negative features" true (Array.for_all (fun v -> v >= 0.) x);
    check_bool "reserve = sum of features" true
      (abs_float (reserve -. Vec.sum x) < 1e-9)
  done;
  (* The workload replays identically (shared across variants). *)
  let x1, q1 = workload 7 and x2, q2 = workload 7 in
  check_bool "replayable" true (Vec.approx_equal x1 x2 && q1 = q2)

let test_nq_market_exceeds_reserve () =
  let s = Lazy.force nq_setup in
  let workload = Noisy_query.workload s in
  let above = ref 0 in
  for t = 0 to 499 do
    let x, reserve = workload t in
    if Model.value s.Noisy_query.model x >= reserve then incr above
  done;
  (* "the market value ... is no less than its reserve price with a
     high probability" *)
  check_bool "v >= q w.h.p." true (!above > 450)

let test_nq_variants_ordering () =
  let s = Lazy.force nq_setup in
  let pure = Noisy_query.run s Mechanism.pure in
  let reserve = Noisy_query.run s Mechanism.with_reserve in
  let baseline = Noisy_query.run_baseline s in
  check_bool "mechanism beats risk-averse baseline" true
    (reserve.Broker.regret_ratio < baseline.Broker.regret_ratio);
  check_bool "regret ratios sane" true
    (pure.Broker.regret_ratio > 0. && pure.Broker.regret_ratio < 0.5);
  (* The exploratory-round counter respects the Lemma 7 bound. *)
  check_bool "Te within bound" true
    (float_of_int reserve.Broker.exploratory
    <= Mechanism.te_upper_bound ~radius:s.Noisy_query.radius ~feature_bound:1.
         ~dim:s.Noisy_query.dim ~epsilon:s.Noisy_query.epsilon)

let test_nq_regret_ratio_declines () =
  let s = Lazy.force nq_setup in
  let r = Noisy_query.run s Mechanism.with_reserve in
  let series = r.Broker.series in
  let n = Array.length series.Broker.checkpoints in
  (* The ratio at the end is lower than at 5% of the horizon. *)
  let early_idx = ref 0 in
  Array.iteri
    (fun i c -> if c <= s.Noisy_query.rounds / 20 then early_idx := i)
    series.Broker.checkpoints;
  check_bool "ratio declines" true
    (series.Broker.regret_ratio.(n - 1)
    < series.Broker.regret_ratio.(!early_idx))

let test_nq_uncertainty_epsilon_floor () =
  let s = Lazy.force nq_setup in
  let m =
    Noisy_query.mechanism s (Mechanism.with_uncertainty ~delta:s.Noisy_query.delta)
  in
  let cfg = Mechanism.config_of m in
  check_bool "floor applied" true
    (cfg.Mechanism.epsilon
    >= 2.5 *. float_of_int s.Noisy_query.dim *. s.Noisy_query.delta -. 1e-12)

let test_nq_effective_epsilon_boundary () =
  (* ε = 2nδ exactly (dim 10, δ = 0.01, T = 500 so n²/T = 2nδ): the
     stall bound itself, where buffered cuts first freeze.  The 2.5nδ
     floor must still lift it, visibly via effective_epsilon. *)
  let s = Noisy_query.make ~owners:120 ~seed:11 ~dim:10 ~rounds:500 () in
  let delta = s.Noisy_query.delta in
  let unc = Mechanism.with_uncertainty ~delta in
  check_bool "setup epsilon is exactly 2ndelta" true
    (abs_float (s.Noisy_query.epsilon -. (2. *. 10. *. delta)) < 1e-12);
  check_bool "floored at the boundary" true (Noisy_query.epsilon_floored s unc);
  check_bool "effective = 2.5ndelta" true
    (abs_float (Noisy_query.effective_epsilon s unc -. (2.5 *. 10. *. delta))
    < 1e-12);
  (* δ = 0 variants never hit the floor. *)
  check_bool "pure not floored" false
    (Noisy_query.epsilon_floored s Mechanism.pure);
  check_bool "pure effective = setup epsilon" true
    (Noisy_query.effective_epsilon s Mechanism.pure = s.Noisy_query.epsilon);
  (* A configured ε that already clears the floor passes through. *)
  let s' = Noisy_query.make ~owners:120 ~seed:11 ~dim:10 ~rounds:200 () in
  let unc' = Mechanism.with_uncertainty ~delta:s'.Noisy_query.delta in
  check_bool "large epsilon not floored" false
    (Noisy_query.epsilon_floored s' unc');
  check_bool "large epsilon passes through" true
    (Noisy_query.effective_epsilon s' unc' = s'.Noisy_query.epsilon)

let test_nq_one_dimensional () =
  (* The paper's Fig. 4(a) observation: at n = 1 the knowledge set
     starts as the interval [0, 2], the first exploratory price is 1 —
     exactly the reserve — and thereafter the reserve never binds, so
     the pure and reserve versions coincide. *)
  let s = Noisy_query.make ~owners:50 ~seed:3 ~dim:1 ~rounds:100 () in
  let pure = Noisy_query.run s Mechanism.pure in
  let reserve = Noisy_query.run s Mechanism.with_reserve in
  check_bool "identical regret curves" true
    (pure.Broker.total_regret = reserve.Broker.total_regret);
  (* At n = 1 every feature is the single normalized compensation sum,
     so reserves are exactly 1 and market values exactly √2. *)
  check_bool "reserve is 1" true
    (abs_float (reserve.Broker.reserve_stats.Dm_prob.Stats.mean -. 1.) < 1e-9);
  check_bool "market value is sqrt 2" true
    (abs_float
       (reserve.Broker.market_value_stats.Dm_prob.Stats.mean -. sqrt 2.)
    < 0.01)

let test_nq_validation () =
  check_bool "owners < dim rejected" true
    (match Noisy_query.make ~owners:5 ~seed:1 ~dim:10 ~rounds:100 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* App 2: accommodation rental                                         *)
(* ------------------------------------------------------------------ *)

let rental_setup = lazy (Rental.make ~rows:4000 ~seed:5 ())

let test_rental_fit () =
  let s = Lazy.force rental_setup in
  check_int "dim 55" 55 s.Rental.dim;
  check_bool "test mse comparable to paper's 0.226" true
    (s.Rental.test_mse > 0.05 && s.Rental.test_mse < 0.5);
  check_bool "radius covers theta" true
    (s.Rental.radius >= Vec.norm2 s.Rental.model.Model.theta)

let test_rental_workload () =
  let s = Lazy.force rental_setup in
  let w = Rental.workload s ~ratio:0.6 in
  for t = 0 to 99 do
    let x, reserve = w t in
    check_int "feature dim" 55 (Vec.dim x);
    let v = Model.value s.Rental.model x in
    check_bool "reserve below value" true (reserve <= v +. 1e-9);
    (* log q = 0.6·log v exactly. *)
    check_bool "log ratio" true (abs_float (log reserve -. (0.6 *. log v)) < 1e-9)
  done;
  check_bool "bad ratio rejected" true
    (match Rental.workload s ~ratio:1.5 with
    | (_ : int -> Vec.t * float) -> false
    | exception Invalid_argument _ -> true)

let test_rental_workload_refuses_nan () =
  let s = Lazy.force rental_setup in
  Alcotest.check_raises "nan ratio"
    (Invalid_argument "Rental.workload: ratio must be in [0, 1), not NaN")
    (fun () -> ignore (Rental.workload s ~ratio:nan : int -> Vec.t * float))

let test_rental_run () =
  let s = Lazy.force rental_setup in
  let ours = Rental.run ~ratio:0.6 s Mechanism.with_reserve in
  let baseline = Rental.run_baseline ~ratio:0.6 s in
  check_bool "every baseline round sells" true
    (baseline.Broker.accepted_rounds = s.Rental.rounds);
  check_bool "ratios sane" true
    (ours.Broker.regret_ratio > 0. && ours.Broker.regret_ratio < 1.);
  (* The baseline's ratio approximates 1 − E[q/v] > 10% for ratio 0.6
     on the unit log scale. *)
  check_bool "baseline pays the reserve gap" true
    (baseline.Broker.regret_ratio > 0.08)

let test_rental_baseline_ratio_ordering () =
  let s = Lazy.force rental_setup in
  let b r = (Rental.run_baseline ~ratio:r s).Broker.regret_ratio in
  let b4 = b 0.4 and b6 = b 0.6 and b8 = b 0.8 in
  (* Closer reserve → lower baseline regret (paper: 23.4 > 17.0 > 9.3). *)
  check_bool "baseline ordering" true (b4 > b6 && b6 > b8)

(* ------------------------------------------------------------------ *)
(* App 3: impression pricing                                           *)
(* ------------------------------------------------------------------ *)

let impression_setup =
  lazy (Impression.make ~train_rounds:30_000 ~seed:9 ~dim:64 ~rounds:8000 ())

let test_impression_sparsity () =
  let s = Lazy.force impression_setup in
  check_bool "sparse fit" true
    (s.Impression.theta_nonzeros >= 3 && s.Impression.theta_nonzeros <= 45);
  check_int "dense dim = nonzeros (or 1 floor)" s.Impression.theta_nonzeros
    s.Impression.dense_dim;
  check_bool "training converged below base entropy" true
    (s.Impression.train_log_loss < 0.5)

let test_impression_streams () =
  let s = Lazy.force impression_setup in
  check_int "sparse stream length" 8000 (Array.length s.Impression.sparse_stream);
  check_int "dense stream length" 8000 (Array.length s.Impression.dense_stream);
  Array.iteri
    (fun i x ->
      check_int "sparse dim" 64 (Vec.dim x);
      check_int "dense dim" s.Impression.dense_dim
        (Vec.dim s.Impression.dense_stream.(i)))
    s.Impression.sparse_stream;
  (* Dense features are the sparse ones restricted to the support, so
     both models agree on every market value. *)
  let sm = Impression.model s Impression.Sparse in
  let dm = Impression.model s Impression.Dense in
  Array.iteri
    (fun i xs ->
      let vs = Model.value sm xs in
      let vd = Model.value dm s.Impression.dense_stream.(i) in
      check_bool "values agree across cases" true (abs_float (vs -. vd) < 1e-9))
    s.Impression.sparse_stream

let test_impression_values_are_probabilities () =
  let s = Lazy.force impression_setup in
  let m = Impression.model s Impression.Sparse in
  Array.iter
    (fun x ->
      let v = Model.value m x in
      check_bool "ctr in (0,1)" true (v > 0. && v < 1.))
    s.Impression.sparse_stream

let test_impression_dense_converges_faster () =
  let s = Lazy.force impression_setup in
  let sparse = Impression.run s Impression.Sparse Mechanism.pure in
  let dense = Impression.run s Impression.Dense Mechanism.pure in
  (* Fig. 5(c): the dense case's regret ratio decreases faster. *)
  check_bool "dense beats sparse" true
    (dense.Broker.regret_ratio < sparse.Broker.regret_ratio);
  check_bool "dense explores less" true
    (dense.Broker.exploratory < sparse.Broker.exploratory)

let test_impression_validation () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "no training round" true
    (raises (fun () ->
         Impression.make ~train_rounds:0 ~seed:1 ~dim:64 ~rounds:10 ()));
  check_bool "negative training rounds" true
    (raises (fun () ->
         Impression.make ~train_rounds:(-5) ~seed:1 ~dim:64 ~rounds:10 ()));
  check_bool "dim below 2" true
    (raises (fun () -> Impression.make ~seed:1 ~dim:1 ~rounds:10 ()));
  check_bool "no pricing round" true
    (raises (fun () -> Impression.make ~seed:1 ~dim:64 ~rounds:0 ()))

(* App 3's quote path at n = 1024, as dmbench's app3-n1024 runs it:
   hash an impression into a sparse feature list, densify it, price it.
   The dense vector (1,024 floats) goes straight to the major heap, so
   the count is the feature list (~74 words for ten pairs) and the
   decide (~48).  Hashing through concatenated strings and a table
   cost ~1,410 words per request. *)
let app3_quote_minor_words_bound = 122.

let test_app3_quote_allocation () =
  let dim = 1_024 and calls = 256 in
  let imps = Avazu.generate (Dm_prob.Rng.create 2027) ~rounds:calls in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.pure
         ~epsilon:(float_of_int (dim * dim) /. 100_000.)
         ())
      (Ellipsoid.ball ~dim ~radius:5.)
  in
  let quote imp =
    Mechanism.decide mech
      ~x:(Hashing.to_dense ~dim (Avazu.encode ~dim imp))
      ~reserve:0.
  in
  ignore (Sys.opaque_identity (quote imps.(0)));
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    ignore (Sys.opaque_identity (quote imps.(i)))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  check_bool
    (Printf.sprintf "%.1f minor words per request <= %.0f" per_call
       app3_quote_minor_words_bound)
    true
    (per_call <= app3_quote_minor_words_bound)

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_apps"
    [
      ( "noisy_query",
        [
          Alcotest.test_case "parameters" `Quick test_nq_parameters;
          Alcotest.test_case "workload properties" `Quick test_nq_workload_properties;
          Alcotest.test_case "market exceeds reserve" `Quick
            test_nq_market_exceeds_reserve;
          Alcotest.test_case "variant ordering" `Slow test_nq_variants_ordering;
          Alcotest.test_case "ratio declines" `Slow test_nq_regret_ratio_declines;
          Alcotest.test_case "uncertainty epsilon floor" `Quick
            test_nq_uncertainty_epsilon_floor;
          Alcotest.test_case "effective epsilon boundary" `Quick
            test_nq_effective_epsilon_boundary;
          Alcotest.test_case "one-dimensional interval" `Quick
            test_nq_one_dimensional;
          Alcotest.test_case "validation" `Quick test_nq_validation;
        ] );
      ( "rental",
        [
          Alcotest.test_case "fit" `Slow test_rental_fit;
          Alcotest.test_case "workload" `Slow test_rental_workload;
          Alcotest.test_case "workload refuses NaN ratio" `Slow
            test_rental_workload_refuses_nan;
          Alcotest.test_case "run" `Slow test_rental_run;
          Alcotest.test_case "baseline ordering" `Slow
            test_rental_baseline_ratio_ordering;
        ] );
      ( "impression",
        [
          Alcotest.test_case "sparsity" `Slow test_impression_sparsity;
          Alcotest.test_case "streams" `Slow test_impression_streams;
          Alcotest.test_case "probabilities" `Slow
            test_impression_values_are_probabilities;
          Alcotest.test_case "dense converges faster" `Slow
            test_impression_dense_converges_faster;
          Alcotest.test_case "validation" `Quick test_impression_validation;
          Alcotest.test_case "quote allocation" `Quick
            test_app3_quote_allocation;
        ] );
    ]
