(* Command-line driver regenerating every table and figure of the
   paper's evaluation section (plus the appendix analyses and extra
   ablations).  `experiments all` reproduces everything at full scale;
   each artifact is also an individual subcommand.  See EXPERIMENTS.md
   for the paper-vs-measured record. *)

open Cmdliner

let ppf = Format.std_formatter

let scale_arg =
  let doc =
    "Multiply every horizon by $(docv) in (0, 1]; 1 is the paper's full scale."
  in
  Arg.(value & opt float 1. & info [ "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Base random seed; every experiment is deterministic given it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Run independent experiment cells on $(docv) domains (default 1).  The \
     output is byte-identical whatever the value; only the wall clock \
     changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let check_scale scale =
  if scale <= 0. || scale > 1. then
    `Error (false, "scale must be in (0, 1]")
  else `Ok scale

(* Clamped to the physical core count: domains beyond it only contend
   for the same cores (rendered bytes are jobs-independent either
   way, so the clamp is pure wall-clock hygiene). *)
let check_jobs jobs =
  if jobs < 1 then `Error (false, "jobs must be at least 1")
  else begin
    let cores = Domain.recommended_domain_count () in
    if jobs > cores then
      Printf.eprintf
        "experiments: clamping --jobs %d to the %d available core(s)\n%!" jobs
        cores;
    `Ok (min jobs cores)
  end

(* One pool for the whole invocation, installed as the process default
   so the large-n Mat kernels accelerate inside a single cell, and
   passed explicitly to the drivers that fan grid cells out. *)
let with_pool jobs f =
  if jobs = 1 then f None
  else
    Dm_linalg.Pool.with_pool ~jobs (fun pool ->
        Dm_linalg.Pool.set_default (Some pool);
        Fun.protect
          ~finally:(fun () -> Dm_linalg.Pool.set_default None)
          (fun () -> f (Some pool)))

let simple name doc f =
  let run scale seed jobs =
    match (check_scale scale, check_jobs jobs) with
    | (`Error _ as e), _ | _, (`Error _ as e) -> e
    | `Ok scale, `Ok jobs ->
        with_pool jobs (fun pool -> f ~pool ~scale ~seed ~jobs);
        `Ok ()
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(ret (const run $ scale_arg $ seed_arg $ jobs_arg))

let fig4_cmd =
  simple "fig4" "Fig. 4(a)-(f): cumulative regrets, noisy linear query"
    (fun ~pool ~scale ~seed ~jobs -> Dm_experiments.App1.fig4 ?pool ~scale ~seed ~jobs ppf)

let table1_cmd =
  simple "table1" "Table I: per-round statistics, noisy linear query"
    (fun ~pool:_ ~scale ~seed ~jobs:_ -> Dm_experiments.App1.table1 ~scale ~seed ppf)

let fig5a_cmd =
  simple "fig5a" "Fig. 5(a): regret ratios at n = 100"
    (fun ~pool:_ ~scale ~seed ~jobs:_ -> Dm_experiments.App1.fig5a ~scale ~seed ppf)

let fig5b_cmd =
  simple "fig5b" "Fig. 5(b): regret ratios, accommodation rental"
    (fun ~pool:_ ~scale ~seed ~jobs:_ -> Dm_experiments.App2.fig5b ~scale ~seed ppf)

let fig5c_full_arg =
  let doc = "Run n = 1024 at the paper's full 10^5-round horizon." in
  Arg.(value & flag & info [ "full" ] ~doc)

let fig5c_cmd =
  let run scale seed full jobs =
    match (check_scale scale, check_jobs jobs) with
    | (`Error _ as e), _ | _, (`Error _ as e) -> e
    | `Ok scale, `Ok jobs ->
        (* fig5c has one serial cell; [jobs] still helps because the
           default pool accelerates the n = 1024 kernels inside it. *)
        with_pool jobs (fun _pool ->
            Dm_experiments.App3.fig5c ~scale ~seed ~full ppf);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fig5c" ~doc:"Fig. 5(c): regret ratios, impression pricing")
    Term.(ret (const run $ scale_arg $ seed_arg $ fig5c_full_arg $ jobs_arg))

let fig5c_hd_cmd =
  simple "fig5c_hd"
    "Fig. 5(c) extension: rank-k projected ellipsoid pricing at n up to 16384"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Hd.fig5c_hd ?pool ~scale ~seed ~jobs ppf)

let coldstart_cmd =
  simple "coldstart" "Cold-start regret reductions (Sec. V-A and V-B claims)"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.App1.coldstart ?pool ~scale ~seed ~jobs ppf;
      Dm_experiments.App2.coldstart ?pool ~scale ~seed ~jobs ppf)

let fig1_cmd =
  simple "fig1" "Fig. 1: single-round regret function"
    (fun ~pool:_ ~scale:_ ~seed:_ ~jobs:_ -> Dm_experiments.Analysis.fig1 ppf)

let lemma8_cmd =
  simple "lemma8" "Lemma 8 / Fig. 6: the conservative-cut adversary"
    (fun ~pool:_ ~scale:_ ~seed:_ ~jobs:_ -> Dm_experiments.Analysis.lemma8 ppf)

let theorem3_cmd =
  simple "theorem3" "Theorem 3: O(log T) regret in one dimension"
    (fun ~pool:_ ~scale:_ ~seed ~jobs:_ -> Dm_experiments.Analysis.theorem3 ~seed ppf)

let lemma2_cmd =
  simple "lemma2" "Lemma 2: empirical volume-ratio bound check"
    (fun ~pool:_ ~scale:_ ~seed ~jobs:_ -> Dm_experiments.Analysis.lemma2_check ~seed ppf)

let lemma45_cmd =
  simple "lemma45" "Lemmas 4-5: smallest-eigenvalue floor check"
    (fun ~pool:_ ~scale:_ ~seed ~jobs:_ -> Dm_experiments.Analysis.lemma45_check ~seed ppf)

let theorem2_cmd =
  simple "theorem2" "Theorem 2: the four non-linear market-value models"
    (fun ~pool:_ ~scale ~seed ~jobs:_ -> Dm_experiments.Analysis.theorem2 ~scale ~seed ppf)

let overhead_cmd =
  simple "overhead" "Sec. V-D: online latency and memory overhead"
    (fun ~pool:_ ~scale:_ ~seed:_ ~jobs:_ -> Dm_experiments.Overhead.report ppf)

let ablation_cmd =
  simple "ablation"
    "Extra ablations: epsilon, delta, aggregation granularity, feature \
     pipeline, parameter distribution"
    (fun ~pool ~scale:_ ~seed ~jobs ->
      Dm_experiments.Ablation.epsilon_sweep ?pool ~seed ~jobs ppf;
      Dm_experiments.Ablation.delta_sweep ?pool ~seed ~jobs ppf;
      Dm_experiments.Ablation.aggregation_sweep ?pool ~seed ~jobs ppf;
      Dm_experiments.Ablation.feature_pipeline ~seed ppf;
      Dm_experiments.Ablation.param_dist_sweep ?pool ~seed ~jobs ppf;
      Dm_experiments.Ablation.ctr_trainer ppf)

let rank_cmd =
  simple "rank" "Feature-stream effective-rank diagnostics"
    (fun ~pool:_ ~scale:_ ~seed ~jobs:_ -> Dm_experiments.Diagnostics.report ~seed ppf)

let recover_cmd =
  simple "recover"
    "Crash recovery: journaled run killed mid-stream, recovered from \
     snapshot + journal tail, resumed bit-identically"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Recover.report ?pool ~scale ~seed ~jobs ppf)

let fleet_cmd =
  simple "fleet"
    "Multi-tenant broker fleet: ~10^3 concurrent markets on one shared \
     group-commit journal, each bit-identical to its solo run, live and \
     after kill/recover/resume"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Fleet.report ?pool ~scale ~seed ~jobs ppf)

let serve_cmd =
  simple "serve"
    "Batched fleet serving: fused cross-tenant decide kernels and \
     group-commit-aligned batching vs unbatched rounds, bit-identity \
     checked against B=1"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Serve.report ?pool ~scale ~seed ~jobs ppf)

let stress_cmd =
  simple "stress"
    "Adversarial valuation streams: regret degradation of Algorithm 2 vs \
     the misspecification-robust variant under drift, regime switches, \
     heavy tails and strategic responses"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Stress.degradation ?pool ~scale ~seed ~jobs ppf)

let auction_cmd =
  simple "auction"
    "Auction front-end: eager second-price clearing with learned \
     personalized reserves (EW, FTPL, full-info and bandit) vs the wrapped \
     ellipsoid mechanism and the hindsight OPT reserve vector"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Auction.revenue_vs_opt ?pool ~scale ~seed ~jobs ppf)

let baselines_cmd =
  simple "baselines" "Ellipsoid vs SGD (Amin et al.) vs risk-averse"
    (fun ~pool ~scale ~seed ~jobs -> Dm_experiments.Baselines.compare ?pool ~scale ~seed ~jobs ppf)

let robustness_cmd =
  simple "robustness" "Headline orderings across independent market seeds"
    (fun ~pool ~scale ~seed ~jobs ->
      Dm_experiments.Baselines.seed_robustness ?pool ~scale ~seed ~jobs ppf)

let all_cmd =
  let run scale seed full jobs =
    match (check_scale scale, check_jobs jobs) with
    | (`Error _ as e), _ | _, (`Error _ as e) -> e
    | `Ok scale, `Ok jobs ->
        with_pool jobs (fun pool ->
            Dm_experiments.Analysis.fig1 ppf;
            Dm_experiments.App1.fig4 ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.App1.table1 ~scale ~seed ppf;
            Dm_experiments.App1.fig5a ~scale ~seed ppf;
            Dm_experiments.App2.fig5b ~scale ~seed:7 ppf;
            Dm_experiments.App3.fig5c ~scale ~seed:3 ~full ppf;
            Dm_experiments.Hd.fig5c_hd ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.App1.coldstart ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.App2.coldstart ?pool ~scale ~seed:7 ~jobs ppf;
            Dm_experiments.Analysis.lemma8 ppf;
            Dm_experiments.Analysis.theorem3 ~seed ppf;
            Dm_experiments.Analysis.theorem2 ~scale ~seed ppf;
            Dm_experiments.Analysis.lemma2_check ~seed ppf;
            Dm_experiments.Analysis.lemma45_check ~seed ppf;
            Dm_experiments.Ablation.epsilon_sweep ?pool ~seed ~jobs ppf;
            Dm_experiments.Ablation.delta_sweep ?pool ~seed ~jobs ppf;
            Dm_experiments.Ablation.aggregation_sweep ?pool ~seed ~jobs ppf;
            Dm_experiments.Ablation.feature_pipeline ~seed ppf;
            Dm_experiments.Ablation.param_dist_sweep ?pool ~seed ~jobs ppf;
            Dm_experiments.Ablation.ctr_trainer ppf;
            Dm_experiments.Baselines.compare ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Baselines.seed_robustness ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Stress.degradation ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Auction.revenue_vs_opt ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Recover.report ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Fleet.report ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Serve.report ?pool ~scale ~seed ~jobs ppf;
            Dm_experiments.Diagnostics.report ~seed ppf;
            Dm_experiments.Overhead.report ppf);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(ret (const run $ scale_arg $ seed_arg $ fig5c_full_arg $ jobs_arg))

let () =
  let info =
    Cmd.info "experiments" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Online Pricing with Reserve Price \
         Constraint for Personal Data Markets' (ICDE 2020)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig1_cmd; fig4_cmd; table1_cmd; fig5a_cmd; fig5b_cmd; fig5c_cmd;
            fig5c_hd_cmd;
            coldstart_cmd; lemma8_cmd; theorem3_cmd; theorem2_cmd; lemma2_cmd;
            lemma45_cmd; overhead_cmd; ablation_cmd; baselines_cmd;
            robustness_cmd; stress_cmd; auction_cmd; recover_cmd; fleet_cmd;
            serve_cmd; rank_cmd;
            all_cmd;
          ]))
