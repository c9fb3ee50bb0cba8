(* Benchmark harness.

   Two stages:

   1. Regenerate every table and figure of the paper at a reduced,
      shape-preserving scale (BENCH_SCALE environment variable,
      default 0.05 of the paper's horizons; set BENCH_SCALE=1 for the
      full evaluation — several minutes).

   2. Run Bechamel micro-benchmarks: one Test.make per table/figure,
      timing the per-round unit of work that experiment repeats 10⁴–10⁵
      times, plus substrate kernels.  These are the Sec. V-D latency
      numbers in steady state.

   Both stages feed a BENCH_<stamp>.json file (stage-1 wall-clock per
   artifact, stage-2 ns-per-call medians) so successive runs accumulate
   a perf trajectory; BENCH_JOBS sets the domain fan-out of the
   stage-1 drivers that support it (the rendered tables are identical
   whatever the value). *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Chol = Dm_linalg.Chol
module Eigen = Dm_linalg.Eigen
module Pool = Dm_linalg.Pool
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Ellipsoid = Dm_market.Ellipsoid
module Mechanism = Dm_market.Mechanism
module Model = Dm_market.Model
module Regret = Dm_market.Regret
module Noisy_query = Dm_apps.Noisy_query
module Rental = Dm_apps.Rental
module Impression = Dm_apps.Impression
module Ftrl = Dm_ml.Ftrl
module Hashing = Dm_ml.Hashing
module Avazu = Dm_synth.Avazu

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Stage 1: table/figure regeneration                                  *)
(* ------------------------------------------------------------------ *)

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. && f <= 1. -> f
      | _ -> failwith "BENCH_SCALE must be a float in (0, 1]")
  | None -> 0.05

(* Requested jobs are clamped to the physical core count: domains
   beyond that only contend for the same cores and inflate every
   latency figure (output bytes are jobs-independent either way). *)
let jobs_requested =
  match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ -> failwith "BENCH_JOBS must be a positive integer")
  | None -> 1

let jobs = min jobs_requested (Domain.recommended_domain_count ())

let () =
  if jobs < jobs_requested then
    Printf.eprintf "bench: clamping BENCH_JOBS %d to the %d available core(s)\n%!"
      jobs_requested jobs

(* One pool for the whole run, installed as the process default: the
   stage-1 drivers reach it through [Runner], and the large-n kernels
   inside single cells (fig5c's n = 1024 rounds, stage 2's kernel
   benchmarks) pick it up implicitly. *)
let pool =
  if jobs > 1 then begin
    let p = Pool.create ~jobs in
    Pool.set_default (Some p);
    Some p
  end
  else None

(* Every stage-1 artifact as a named thunk, so the harness can time
   each one individually for the BENCH_*.json trajectory. *)
let stage1_artifacts =
  [
    ("fig1", fun ppf -> Dm_experiments.Analysis.fig1 ppf);
    ("fig4", fun ppf -> Dm_experiments.App1.fig4 ~scale ~jobs ppf);
    ("table1", fun ppf -> Dm_experiments.App1.table1 ~scale ppf);
    ("fig5a", fun ppf -> Dm_experiments.App1.fig5a ~scale ppf);
    ("fig5b", fun ppf -> Dm_experiments.App2.fig5b ~scale ppf);
    ("fig5c", fun ppf -> Dm_experiments.App3.fig5c ~scale ppf);
    ("fig5c_hd", fun ppf -> Dm_experiments.Hd.fig5c_hd ~scale ~jobs ppf);
    ( "coldstart_app1",
      fun ppf -> Dm_experiments.App1.coldstart ~scale ~seeds:3 ~jobs ppf );
    ( "coldstart_app2",
      fun ppf -> Dm_experiments.App2.coldstart ~scale ~seeds:3 ~jobs ppf );
    ("lemma8", fun ppf -> Dm_experiments.Analysis.lemma8 ppf);
    ("theorem3", fun ppf -> Dm_experiments.Analysis.theorem3 ppf);
    ("theorem2", fun ppf -> Dm_experiments.Analysis.theorem2 ~scale ppf);
    ("lemma2", fun ppf -> Dm_experiments.Analysis.lemma2_check ppf);
    ("lemma45", fun ppf -> Dm_experiments.Analysis.lemma45_check ppf);
    ( "ablation_epsilon",
      fun ppf -> Dm_experiments.Ablation.epsilon_sweep ~rounds:5_000 ~jobs ppf );
    ( "ablation_delta",
      fun ppf -> Dm_experiments.Ablation.delta_sweep ~rounds:5_000 ~jobs ppf );
    ( "ablation_aggregation",
      fun ppf ->
        Dm_experiments.Ablation.aggregation_sweep ~rounds:5_000 ~jobs ppf );
    ( "ablation_feature_pipeline",
      fun ppf -> Dm_experiments.Ablation.feature_pipeline ~rounds:5_000 ppf );
    ( "ablation_param_dist",
      fun ppf ->
        Dm_experiments.Ablation.param_dist_sweep ~rounds:5_000 ~jobs ppf );
    ("baselines", fun ppf -> Dm_experiments.Baselines.compare ~scale ~jobs ppf);
    ("stress", fun ppf -> Dm_experiments.Stress.degradation ~scale ~jobs ppf);
    ( "auction",
      fun ppf -> Dm_experiments.Auction.revenue_vs_opt ~scale ~jobs ppf );
    ("recover", fun ppf -> Dm_experiments.Recover.report ~scale ~jobs ppf);
    ("fleet", fun ppf -> Dm_experiments.Fleet.report ~scale ~jobs ppf);
    ("serve", fun ppf -> Dm_experiments.Serve.report ~scale ~jobs ppf);
    ("rank", fun ppf -> Dm_experiments.Diagnostics.report ~sample:1_000 ppf);
    ("overhead", fun ppf -> Dm_experiments.Overhead.report ppf);
  ]

let stage1 () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf
    "Stage 1: paper tables and figures at scale %.2f (BENCH_SCALE), %d \
     domain(s) (BENCH_JOBS)@."
    scale jobs;
  Format.fprintf ppf
    "==================================================================@.@.";
  let timings =
    List.map
      (fun (name, artifact) ->
        let t0 = Unix.gettimeofday () in
        artifact ppf;
        (name, Unix.gettimeofday () -. t0))
      stage1_artifacts
  in
  Dm_experiments.Table.print ppf ~title:"Stage 1 wall clock"
    ~header:[ "artifact"; "seconds" ]
    (List.map (fun (n, s) -> [ n; Printf.sprintf "%.3f" s ]) timings);
  timings

(* ------------------------------------------------------------------ *)
(* Stage 2: Bechamel micro-benchmarks                                  *)
(* ------------------------------------------------------------------ *)

(* A self-cycling pricing-round closure: replays a fixed stream
   against a persistent mechanism (steady-state mix of exploratory and
   conservative rounds, like the long experiments). *)
let pricing_round ~dim ~radius ~epsilon ~variant ~model ~stream ~reserves =
  let mech =
    Mechanism.create
      (Mechanism.config ~variant ~epsilon ())
      (Ellipsoid.ball ~dim ~radius)
  in
  let n = Array.length stream in
  let theta = model.Model.theta in
  let t = ref 0 in
  fun () ->
    let i = !t mod n in
    incr t;
    let x = stream.(i) in
    ignore
      (Mechanism.step mech ~x ~reserve:reserves.(i)
         ~market_index:(Vec.dot x theta))

(* App 1's feature map φ = Dp.leakage → Compensation.per_owner →
   Feature.of_compensations on the n = 100 market's 500-owner corpus,
   cycling through 64 pre-drawn queries.  The fig4/fig5a rounds replay
   a precomputed stream, so this is the only key that times φ. *)
let app1_phi () =
  let setup = Noisy_query.make ~seed:42 ~dim:100 ~rounds:2 () in
  let corpus = setup.Noisy_query.corpus in
  let contracts = Dm_synth.Movielens.contracts corpus in
  let data_ranges = Dm_synth.Movielens.data_ranges corpus in
  let rng = Rng.create 13 in
  let queries =
    Array.init 64 (fun _ ->
        Dm_synth.Linear_query.draw rng ~dist:Dm_synth.Linear_query.Mixed
          ~owners:setup.Noisy_query.owners)
  in
  let t = ref 0 in
  fun () ->
    let q = queries.(!t land 63) in
    incr t;
    let leakages = Dm_privacy.Dp.leakage q ~data_ranges in
    Dm_market.Feature.of_compensations ~dim:setup.Noisy_query.dim
      (Dm_privacy.Compensation.per_owner ~contracts ~leakages)

(* App 3 as dmbench's app3-n1024 workload prices it: the pure mechanism
   at ε = n²/10⁵ with θ* fitted on 10⁴ training impressions, pricing
   fresh impressions one-hot hashed into n = 1024 buckets.  Their cuts
   keep b̃ to a few dozen nonzeros, where the uniform random supports
   of the sparse_cut keys fill M in.  One fresh market prices 16,384
   pre-drawn impressions and its decisions are recorded; a second
   fresh market ([fresh ()]) that observes the same rounds in order
   ([load i] writes round i into a recycled buffer, which the dense
   mechanism never retains) is then in exactly the recorded state at
   every round, so observe can be timed alone. *)
let app3_recording () =
  let dim = 1_024 in
  let imp = Impression.make ~train_rounds:10_000 ~seed:3 ~dim ~rounds:1 () in
  let model = Impression.model imp Impression.Sparse in
  let fresh () =
    Impression.mechanism
      ~epsilon:(float_of_int (dim * dim) /. 100_000.)
      imp Impression.Sparse Mechanism.pure
  in
  let rows =
    Array.map
      (fun i -> Array.of_list (Avazu.encode ~dim i))
      (Avazu.generate (Rng.create 31) ~rounds:16_384)
  in
  let x = Vec.zeros dim and prev = ref [||] in
  let load i =
    Array.iter (fun f -> x.(f.Hashing.index) <- 0.) !prev;
    Array.iter (fun f -> x.(f.Hashing.index) <- f.Hashing.value) rows.(i);
    prev := rows.(i);
    x
  in
  let m = fresh () in
  let rounds =
    Array.init (Array.length rows) (fun i ->
        let x = load i in
        let d = Mechanism.decide m ~x ~reserve:neg_infinity in
        let accepted =
          match d with
          | Mechanism.Skip -> false
          | Mechanism.Post { price; _ } -> price <= Model.index model x
        in
        Mechanism.observe m ~x d ~accepted;
        (d, accepted))
  in
  (fresh, load, rounds)

(* Each call observes the next recorded round; a fresh market takes
   over at the end of the recording (one O(n²) set-up per 16,384
   calls). *)
let app3_observe_round () =
  let fresh, load, rounds = app3_recording () in
  let mech = ref (fresh ()) and t = ref 0 in
  fun () ->
    if !t = Array.length rounds then begin
      mech := fresh ();
      t := 0
    end;
    let d, accepted = rounds.(!t) in
    Mechanism.observe !mech ~x:(load !t) d ~accepted;
    incr t

let make_tests () =
  let open Bechamel in
  (* Fig. 4 / Table I / Fig. 5(a): App 1 rounds at n = 20 and n = 100. *)
  let nq_round dim =
    let setup = Noisy_query.make ~seed:42 ~dim ~rounds:2_000 () in
    let w = Noisy_query.workload setup in
    let stream = Array.init 512 (fun t -> fst (w t)) in
    let reserves = Array.init 512 (fun t -> snd (w t)) in
    pricing_round ~dim ~radius:setup.Noisy_query.radius
      ~epsilon:setup.Noisy_query.epsilon ~variant:Mechanism.with_reserve
      ~model:setup.Noisy_query.model ~stream ~reserves
  in
  (* Fig. 5(b): App 2 round. *)
  let rental_round () =
    let setup = Rental.make ~rows:4_000 ~seed:7 () in
    let w = Rental.workload setup ~ratio:0.6 in
    let stream = Array.init 512 (fun t -> fst (w t)) in
    let reserves =
      Array.init 512 (fun t ->
          Model.index_of_price setup.Rental.model (snd (w t)))
    in
    pricing_round ~dim:setup.Rental.dim ~radius:setup.Rental.radius
      ~epsilon:setup.Rental.epsilon ~variant:Mechanism.with_reserve
      ~model:setup.Rental.model ~stream ~reserves
  in
  (* Fig. 5(c): App 3 rounds, sparse n = 1024 and its dense support. *)
  let impression =
    lazy (Impression.make ~train_rounds:30_000 ~seed:3 ~dim:1024 ~rounds:512 ())
  in
  let impression_round case =
    let setup = Lazy.force impression in
    let stream =
      match case with
      | Impression.Sparse -> setup.Impression.sparse_stream
      | Impression.Dense -> setup.Impression.dense_stream
    in
    let reserves = Array.make (Array.length stream) neg_infinity in
    pricing_round
      ~dim:(Impression.dim setup case)
      ~radius:4. ~epsilon:1. ~variant:Mechanism.pure
      ~model:(Impression.model setup case)
      ~stream ~reserves
  in
  (* Scalar-scaled sparse cut kernel in isolation: the fig5c sparse
     path's per-round shape update — an n-dim ellipsoid cut along
     ~23-nonzero directions with in-place mutation permitted, so the
     O(nnz·n + nnz²) path (plus its amortized fold-ins) is what gets
     timed. *)
  let sparse_cut_round dim =
    let rng = Rng.create 23 in
    let dirs =
      Array.init 64 (fun _ ->
          let x = Vec.zeros dim in
          for _ = 1 to 23 do
            x.(Rng.int rng dim) <- Dist.normal rng ~mean:0. ~std:1.
          done;
          x)
    in
    let ell = ref (Ellipsoid.ball ~dim ~radius:4.) in
    let t = ref 0 in
    fun () ->
      let x = dirs.(!t mod 64) in
      incr t;
      let b = Ellipsoid.bounds !ell ~x in
      match
        Ellipsoid.cut_below ~mutate:true !ell ~x ~price:b.Ellipsoid.mid
      with
      | Ellipsoid.Cut e -> ell := e
      | Ellipsoid.Too_shallow | Ellipsoid.Empty ->
          ell := Ellipsoid.ball ~dim ~radius:4.
  in
  (* Fig. 1: single-round regret curve. *)
  let fig1_curve =
    let prices = Vec.init 101 (fun i -> float_of_int i /. 10.) in
    fun () ->
      ignore (Regret.single_round_curve ~reserve:2. ~market_value:6. ~prices)
  in
  (* Lemma 8: one adversarial round (dim 2, cuts allowed). *)
  let lemma8_round =
    let theta = [| 0.; 0.4 |] in
    let model = Model.linear ~theta in
    let mech =
      Mechanism.create
        (Mechanism.config ~allow_conservative_cuts:true
           ~variant:Mechanism.with_reserve ~epsilon:1e-3 ())
        (Ellipsoid.ball ~dim:2 ~radius:1.)
    in
    let e1 = Vec.basis 2 0 in
    fun () ->
      let b = Ellipsoid.bounds (Mechanism.ellipsoid mech) ~x:e1 in
      ignore
        (Mechanism.step mech ~x:e1 ~reserve:b.Ellipsoid.mid
           ~market_index:(Vec.dot e1 model.Model.theta))
  in
  (* Theorem 3: a 1-D pricing round. *)
  let theorem3_round =
    let model = Model.linear ~theta:[| 1.2 |] in
    pricing_round ~dim:1 ~radius:2. ~epsilon:1e-4 ~variant:Mechanism.pure
      ~model
      ~stream:(Array.make 1 [| 1. |])
      ~reserves:(Array.make 1 0.)
  in
  (* Substrate kernels. *)
  let rng = Rng.create 5 in
  let a100 = Mat.scaled_identity 100 4. in
  let x100 = Dist.normal_vec rng ~dim:100 in
  let ell100 = Ellipsoid.ball ~dim:100 ~radius:2. in
  let spd20 =
    let m = Mat.init 20 20 (fun _ _ -> Dist.normal rng ~mean:0. ~std:1.) in
    let a = Mat.matmul m (Mat.transpose m) in
    for i = 0 to 19 do
      Mat.set a i i (Mat.get a i i +. 1.)
    done;
    a
  in
  let ftrl_model = Ftrl.create ~dim:1024 () in
  let ftrl_example =
    [ { Hashing.index = 3; value = 1. }; { Hashing.index = 700; value = 1. } ]
  in
  (* Tiled/pooled kernels above the n ≥ 512 threshold, and the two
     volume paths (incremental O(1) vs full Cholesky). *)
  let rng_k = Rng.create 11 in
  let a1024 = Mat.scaled_identity 1024 4. in
  let x1024 = Dist.normal_vec rng_k ~dim:1024 in
  let b1024 = Dist.normal_vec rng_k ~dim:1024 in
  let into1024 = Mat.zeros 1024 1024 in
  let m128 =
    Mat.init 128 128 (fun _ _ -> Dist.normal rng_k ~mean:0. ~std:1.)
  in
  (* fig5c_hd kernels (the "hd/" keys are critical in
     [Dm_bench.Record.critical_prefixes]): the pooled tall-skinny
     projection alone at n = 4096, and the k = 64 pricing round on
     pre-projected features from an n = 16384 market — the per-round
     cut cost the projected mechanism pays after its projection memo
     hit (same k-dim ellipsoid ops, same δ = err widening). *)
  let rng_hd = Rng.create 29 in
  let gauss_rows rng k n =
    let rows =
      Array.init k (fun _ -> Vec.normalize (Dist.normal_vec rng ~dim:n))
    in
    Mat.init k n (fun i j -> rows.(i).(j))
  in
  let p4096 = gauss_rows rng_hd 64 4_096 in
  let x4096 = Vec.normalize (Dist.normal_vec rng_hd ~dim:4_096) in
  let into64 = Vec.zeros 64 in
  let hd_cut_round =
    let n = 16_384 and k = 64 in
    let p = gauss_rows rng_hd k n in
    let theta =
      let t = Mat.project_t p (Dist.normal_vec rng_hd ~dim:k) in
      Vec.scale (1.8 /. Vec.norm2 t) t
    in
    let stream =
      Array.init 64 (fun _ ->
          Mat.project p (Vec.normalize (Dist.normal_vec rng_hd ~dim:n)))
    in
    let err = 2e-3 in
    pricing_round ~dim:k ~radius:2.
      ~epsilon:(Float.max 0.1 (2.5 *. float_of_int k *. err))
      ~variant:(Mechanism.with_uncertainty ~delta:err)
      ~model:(Model.linear ~theta:(Mat.project p theta))
      ~stream
      ~reserves:(Array.make 64 neg_infinity)
  in
  let hd_group =
    Test.make_grouped ~name:"hd"
      [
        Test.make ~name:"project n4096 k64"
          (Staged.stage (fun () ->
               ignore (Mat.project ~into:into64 p4096 x4096)));
        Test.make ~name:"cut n16384 k64" (Staged.stage hd_cut_round);
      ]
  in
  let pricing_group =
  Test.make_grouped ~name:"pricing"
    [
      Test.make ~name:"fig4+table1 round n20 reserve"
        (Staged.stage (nq_round 20));
      Test.make ~name:"fig4+fig5a round n100 reserve"
        (Staged.stage (nq_round 100));
      Test.make ~name:"app1 phi m500 n100" (Staged.stage (app1_phi ()));
      Test.make ~name:"fig5b round n55 log-linear"
        (Staged.stage (rental_round ()));
      Test.make ~name:"fig5c round n1024 sparse"
        (Staged.stage (impression_round Impression.Sparse));
      Test.make ~name:"fig5c round dense support"
        (Staged.stage (impression_round Impression.Dense));
      Test.make ~name:"sparse_cut n128 nnz23"
        (Staged.stage (sparse_cut_round 128));
      Test.make ~name:"sparse_cut n1024 nnz23"
        (Staged.stage (sparse_cut_round 1024));
      Test.make ~name:"app3 observe n1024" (Staged.stage (app3_observe_round ()));
      Test.make ~name:"fig1 regret curve" (Staged.stage fig1_curve);
      Test.make ~name:"lemma8 adversarial round" (Staged.stage lemma8_round);
      Test.make ~name:"theorem3 1d round" (Staged.stage theorem3_round);
      Test.make ~name:"kernel quad n100"
        (Staged.stage (fun () -> ignore (Mat.quad a100 x100)));
      Test.make ~name:"kernel ellipsoid cut n100"
        (Staged.stage (fun () ->
             ignore (Ellipsoid.cut_below ell100 ~x:x100 ~price:0.)));
      Test.make ~name:"kernel jacobi eigen n20"
        (Staged.stage (fun () -> ignore (Eigen.eigenvalues spd20)));
      Test.make ~name:"kernel matvec n1024 dense"
        (Staged.stage (fun () -> ignore (Mat.matvec a1024 x1024)));
      Test.make ~name:"kernel matvec_t n1024 dense"
        (Staged.stage (fun () -> ignore (Mat.matvec_t a1024 x1024)));
      Test.make ~name:"kernel matmul n128"
        (Staged.stage (fun () -> ignore (Mat.matmul m128 m128)));
      Test.make ~name:"kernel fused cut rescale n1024"
        (Staged.stage (fun () ->
             ignore
               (Mat.rank_one_rescale ~into:into1024 a1024 ~beta:(-0.001)
                  ~b:b1024 ~factor:1.0001)));
      Test.make ~name:"volume incremental cut+read n100"
        (Staged.stage (fun () ->
             match Ellipsoid.cut_below ell100 ~x:x100 ~price:0. with
             | Ellipsoid.Cut e -> ignore (Ellipsoid.log_volume_factor e)
             | Ellipsoid.Too_shallow | Ellipsoid.Empty -> ()));
      Test.make ~name:"volume cholesky log_det n100"
        (Staged.stage (fun () -> ignore (0.5 *. Chol.log_det a100)));
      Test.make ~name:"kernel ftrl learn step"
        (Staged.stage (fun () ->
             ignore (Ftrl.learn ftrl_model ftrl_example true)));
      Test.make ~name:"baselines sgd round n20"
        (Staged.stage
           (let sgd = Dm_market.Sgd_pricing.create ~dim:20 ~radius:4. () in
            let p = Dm_market.Sgd_pricing.policy sgd in
            let rng = Rng.create 77 in
            let xs =
              Array.init 64 (fun _ ->
                  Vec.normalize (Vec.map abs_float (Dist.normal_vec rng ~dim:20)))
            in
            let t = ref 0 in
            fun () ->
              let x = xs.(!t mod 64) in
              incr t;
              match p.Dm_market.Broker.decide ~x ~reserve:0.5 with
              | Some price ->
                  p.Dm_market.Broker.learn ~x ~price ~accepted:(price <= 1.)
              | None -> ()));
      Test.make ~name:"arbitrage grid check"
        (Staged.stage
           (let grid = Array.init 8 (fun i -> 0.1 *. (2. ** float_of_int i)) in
            let tariff = Dm_market.Arbitrage.inverse_variance ~c:2. in
            fun () ->
              ignore (Dm_market.Arbitrage.is_arbitrage_free_on ~grid tariff)));
    ]
  in
  (* The misspecification-robust hot path: a full decide/observe round
     carrying the drift detector, shading update and probe logic on
     top of the vanilla ellipsoid work ("stress/" keys are critical in
     [Dm_bench.Record.critical_prefixes]). *)
  let stress_group =
    Test.make_grouped ~name:"stress"
      [
        Test.make ~name:"robust round n20"
          (Staged.stage
             (let cfg =
                Mechanism.config
                  ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.01)
                  ~epsilon:0.1 ()
              in
              let mech =
                Mechanism.create_robust
                  (Mechanism.robust_config ~explore_every:32
                     ~reinflate_radius:4. ())
                  cfg
                  (Ellipsoid.ball ~dim:20 ~radius:2.)
              in
              let rng = Rng.create 91 in
              let xs =
                Array.init 64 (fun _ ->
                    Vec.normalize
                      (Vec.map abs_float (Dist.normal_vec rng ~dim:20)))
              in
              let t = ref 0 in
              fun () ->
                let x = xs.(!t mod 64) in
                incr t;
                ignore (Mechanism.step mech ~x ~reserve:0.3 ~market_index:1.)));
        Test.make ~name:"robust snapshot n20"
          (Staged.stage
             (let cfg =
                Mechanism.config
                  ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.01)
                  ~epsilon:0.1 ()
              in
              let mech =
                Mechanism.create_robust
                  (Mechanism.robust_config ~explore_every:32
                     ~reinflate_radius:4. ())
                  cfg
                  (Ellipsoid.ball ~dim:20 ~radius:2.)
              in
              fun () -> ignore (Mechanism.snapshot_binary mech)));
      ]
  in
  (* The auction front-end's hot kernel: one eager second-price
     clearing scan over the round's bid vector ("auction/" keys are
     critical in [Dm_bench.Record.critical_prefixes]).  Counterfactual
     full-information feedback calls this bidders x arms times per
     round, so its per-call cost is what bounds the learner drivers. *)
  let auction_group =
    let clear_round m =
      let stream =
        Dm_synth.Bids.make ~seed:61 ~dim:4 ~bidders:m ~rounds:64
          ~noise:(Dm_synth.Bids.Gaussian 0.3) ()
      in
      let reserves =
        Array.init 64 (fun t ->
            let f = Dm_synth.Bids.floor stream t in
            Array.make m (2. *. f))
      in
      let t = ref 0 in
      fun () ->
        let i = !t mod 64 in
        incr t;
        ignore
          (Dm_auction.Auction.clear
             ~bids:(Dm_synth.Bids.bids stream i)
             ~reserves:reserves.(i))
    in
    Test.make_grouped ~name:"auction"
      [
        Test.make ~name:"clear m8" (Staged.stage (clear_round 8));
        Test.make ~name:"clear m64" (Staged.stage (clear_round 64));
      ]
  in
  Test.make_grouped ~name:"" ~fmt:"%s%s"
    [ pricing_group; hd_group; stress_group; auction_group ]

let stage2 () =
  let open Bechamel in
  let open Toolkit in
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Stage 2: Bechamel micro-benchmarks (ns per call)@.";
  Format.fprintf ppf
    "==================================================================@.@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (make_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Some est
          | _ -> None
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Dm_experiments.Table.print ppf ~title:"per-call latency"
    ~header:[ "benchmark"; "ns/call" ]
    (List.map
       (fun (name, ns) ->
         [
           name;
           (match ns with Some est -> Printf.sprintf "%.1f" est | None -> "n/a");
         ])
       estimates);
  estimates

(* ------------------------------------------------------------------ *)
(* Journal-overhead stage                                              *)
(* ------------------------------------------------------------------ *)

(* Rounds/s of the replay market with the dm_store journal off, on
   without per-record fsync, and fsync-every-record, then the
   multi-tenant fleet with its group-commit journal.  The entries join
   the stage-2 JSON under the "journal/" prefix that
   [Dm_bench.Record.critical_prefixes] watches, so a regression in the
   journal hot path flags `bench/compare.exe`. *)
let journal_stage () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Journal overhead: replay market, dm_store sink@.";
  Format.fprintf ppf
    "==================================================================@.@.";
  let rounds = Dm_experiments.Replay_market.scaled_rounds scale 400_000 in
  let entries = Dm_experiments.Recover.journal_overhead ~rounds () in
  let ns name = List.assoc name entries in
  let off = ns "journal/longrun_off" in
  let row name ns =
    [
      name;
      Printf.sprintf "%.1f" ns;
      Printf.sprintf "%.0f" (1e9 /. ns);
      (if ns <= off then "-" else Printf.sprintf "+%.1f%%" ((ns -. off) /. off *. 100.));
    ]
  in
  Dm_experiments.Table.print ppf
    ~title:
      (Printf.sprintf
         "journal overhead at %d rounds (n = %d, best of 3 interleaved passes)"
         rounds Dm_experiments.Replay_market.default_dim)
    ~header:[ "mode"; "ns/round"; "rounds/s"; "vs off" ]
    (List.map (fun (name, v) -> row name v) entries);
  (* Group-commit amortization: every tenant-round is fully durable
     (like fsync-every-record above), but one group fsync covers a
     whole cross-tenant batch, so fsyncs-per-round must come out
     orders of magnitude below the solo fsync mode's 1.0. *)
  let fleet_rounds = Dm_experiments.Replay_market.scaled_rounds scale 2_000 in
  let fleet_entries =
    Dm_experiments.Fleet.journal_amortization ~rounds:fleet_rounds ()
  in
  let fleet_ns = List.assoc "journal/fleet_group" fleet_entries in
  let fleet_rate =
    List.assoc "journal/fleet_fsyncs_per_kround" fleet_entries /. 1000.
  in
  let fsync_ns = ns "journal/longrun_fsync" in
  Dm_experiments.Table.print ppf
    ~title:
      (Printf.sprintf
         "fleet group commit: 64 tenants x %d rounds (n = %d), every round \
          durable"
         fleet_rounds 4)
    ~header:[ "mode"; "ns/round"; "fsyncs/round"; "vs solo fsync ns" ]
    [
      [
        "journal/longrun_fsync"; Printf.sprintf "%.1f" fsync_ns; "1.0"; "1.00x";
      ];
      [
        "journal/fleet_group";
        Printf.sprintf "%.1f" fleet_ns;
        Printf.sprintf "%.2e" fleet_rate;
        Printf.sprintf "%.0fx" (fsync_ns /. fleet_ns);
      ];
    ];
  entries @ fleet_entries

(* ------------------------------------------------------------------ *)
(* Batched-serving stage                                               *)
(* ------------------------------------------------------------------ *)

(* One B = 64 batched serving run: decide ns/round plus the two
   steady-state minor-words-per-round counters.  The keys land under
   the "serve/" and "gc/" prefixes of
   [Dm_bench.Record.critical_prefixes], so a regression in the fused
   decide kernel or an allocation leak in the round loop flags
   `bench/compare.exe`. *)
let serve_stage () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Batched serving: fused decide kernel, round-loop GC@.";
  Format.fprintf ppf
    "==================================================================@.@.";
  let entries = Dm_experiments.Serve.microbench ~scale () in
  Dm_experiments.Table.print ppf ~title:"batched serving (B = 64, 64 tenants)"
    ~header:[ "benchmark"; "value" ]
    (List.map (fun (name, v) -> [ name; Printf.sprintf "%.1f" v ]) entries);
  entries

(* ------------------------------------------------------------------ *)
(* App 1 feature-map allocation                                        *)
(* ------------------------------------------------------------------ *)

(* Minor words per φ call over 16 cycles of the 64 queries, after one
   warm-up cycle; a "gc/" key, so [Dm_bench.Record.critical_prefixes]
   flags its removal. *)
let phi_stage () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "App 1 feature map: minor words per call@.";
  Format.fprintf ppf
    "==================================================================@.@.";
  let phi = app1_phi () in
  for _ = 1 to 64 do
    ignore (Sys.opaque_identity (phi ()))
  done;
  let calls = 16 * 64 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (phi ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  let entries = [ ("gc/app1_phi minor_words", words) ] in
  Dm_experiments.Table.print ppf ~title:"App 1 phi (m = 500, n = 100)"
    ~header:[ "benchmark"; "value" ]
    (List.map (fun (name, v) -> [ name; Printf.sprintf "%.1f" v ]) entries);
  entries

(* ------------------------------------------------------------------ *)
(* App 3 observe allocation                                            *)
(* ------------------------------------------------------------------ *)

(* Minor words per exploratory observe — App 3's cut — over the
   recorded market's 16,384 rounds; a "gc/" key, so
   [Dm_bench.Record.critical_prefixes] flags its removal.  The count
   repeats exactly: the rounds and the mechanism are seeded. *)
let app3_observe_stage () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "App 3 observe: minor words per exploratory observe@.";
  Format.fprintf ppf
    "==================================================================@.@.";
  let fresh, load, rounds = app3_recording () in
  let mech = fresh () in
  let cuts = ref 0 and words = ref 0. in
  Array.iteri
    (fun i (d, accepted) ->
      let x = load i in
      match d with
      | Mechanism.Post { kind = Mechanism.Exploratory; _ } ->
          let w0 = Gc.minor_words () in
          Mechanism.observe mech ~x d ~accepted;
          words := !words +. (Gc.minor_words () -. w0);
          incr cuts
      | _ -> Mechanism.observe mech ~x d ~accepted)
    rounds;
  let entries =
    [ ("gc/app3_observe minor_words", !words /. float_of_int (max 1 !cuts)) ]
  in
  Dm_experiments.Table.print ppf
    ~title:
      (Printf.sprintf "App 3 observe (n = 1024, %d cuts in %d rounds)" !cuts
         (Array.length rounds))
    ~header:[ "benchmark"; "value" ]
    (List.map (fun (name, v) -> [ name; Printf.sprintf "%.1f" v ]) entries);
  entries

(* ------------------------------------------------------------------ *)
(* JSON trajectory file                                                *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled emitter — the measurement record is flat enough that a
   JSON library would be pure dependency weight. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json ~stamp ~stage1_timings ~stage2_estimates =
  let path = Printf.sprintf "BENCH_%s.json" stamp in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"dm-bench/1\",\n";
  out "  \"stamp\": \"%s\",\n" (json_escape stamp);
  out "  \"scale\": %s,\n" (json_float scale);
  out "  \"jobs\": %d,\n" jobs;
  out "  \"jobs_requested\": %d,\n" jobs_requested;
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"profile\": \"%s\",\n" (json_escape Build_profile.profile);
  out "  \"stage1_wall_clock_s\": [\n";
  List.iteri
    (fun i (name, seconds) ->
      out "    { \"artifact\": \"%s\", \"seconds\": %s }%s\n" (json_escape name)
        (json_float seconds)
        (if i < List.length stage1_timings - 1 then "," else ""))
    stage1_timings;
  out "  ],\n";
  out "  \"stage2_ns_per_call\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    { \"benchmark\": \"%s\", \"ns\": %s }%s\n" (json_escape name)
        (match ns with Some est -> json_float est | None -> "null")
        (if i < List.length stage2_estimates - 1 then "," else ""))
    stage2_estimates;
  out "  ]\n";
  out "}\n";
  close_out oc;
  path

let () =
  let stamp =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  let stage1_timings = stage1 () in
  let stage2_estimates = stage2 () in
  let journal_estimates =
    List.map (fun (name, ns) -> (name, Some ns)) (journal_stage ())
  in
  let serve_estimates =
    List.map (fun (name, v) -> (name, Some v)) (serve_stage ())
  in
  let phi_estimates =
    List.map (fun (name, v) -> (name, Some v)) (phi_stage ())
  in
  let app3_estimates =
    List.map (fun (name, v) -> (name, Some v)) (app3_observe_stage ())
  in
  let path =
    write_json ~stamp ~stage1_timings
      ~stage2_estimates:
        (stage2_estimates @ journal_estimates @ serve_estimates
       @ phi_estimates @ app3_estimates)
  in
  (match pool with
  | Some p ->
      Pool.set_default None;
      Pool.shutdown p
  | None -> ());
  Format.fprintf ppf "@.wrote %s@." path
