(* Smoke and format tests for the dm_experiments drivers: each must
   produce a non-empty, well-formed report at tiny scale, and the
   analytical checks must hold. *)

module Table = Dm_experiments.Table
module App1 = Dm_experiments.App1
module App2 = Dm_experiments.App2
module App3 = Dm_experiments.App3
module Analysis = Dm_experiments.Analysis
module Ablation = Dm_experiments.Ablation
module Baselines = Dm_experiments.Baselines

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ------------------------------------------------------------------ *)

let test_table_rendering () =
  let out =
    render (fun ppf ->
        Table.print ppf ~title:"demo" ~header:[ "a"; "b" ]
          [ [ "1"; "2" ]; [ "30"; "40" ] ])
  in
  check_bool "title" true (contains out "demo");
  check_bool "header" true (contains out "a");
  check_bool "row" true (contains out "40");
  check_string "pct" "7.77%" (Table.fmt_pct 0.0777);
  check_string "g" "3.142" (Table.fmt_g 3.14159)

let test_sparkline () =
  check_string "empty" "" (Table.sparkline [||]);
  check_string "monotone" "▁▃▅█" (Table.sparkline [| 0.; 1.; 2.; 3.5 |]);
  check_string "flat series renders low" "▁▁▁" (Table.sparkline [| 2.; 2.; 2. |]);
  check_string "non-finite as space" "▁ █" (Table.sparkline [| 0.; nan; 1. |])

let test_checkpoints_shape () =
  let cps = App1.checkpoints ~rounds:1000 ~count:5 in
  check_bool "ends at rounds" true (cps.(Array.length cps - 1) = 1000);
  let sorted = Array.copy cps in
  Array.sort compare sorted;
  check_bool "strictly increasing" true (sorted = cps);
  check_bool "positive" true (Array.for_all (fun c -> c >= 1) cps)

let test_fig1_driver () =
  let out = render Analysis.fig1 in
  check_bool "mentions regret" true (contains out "regret");
  check_bool "shows the jump" true (contains out "rejected");
  check_bool "shows underpricing" true (contains out "sold, underpriced")

let test_fig4_driver_small () =
  (* Tiny scale: n = 1 panel runs at its floor of 100 rounds. *)
  let out = render (fun ppf -> App1.fig4 ~scale:0.01 ~seed:1 ppf) in
  check_bool "panel n=1" true (contains out "n = 1,");
  check_bool "panel n=100" true (contains out "n = 100");
  check_bool "variant columns" true
    (contains out "pure" && contains out "reserve+unc")

let test_table1_driver_small () =
  let out = render (fun ppf -> App1.table1 ~scale:0.01 ~seed:1 ppf) in
  check_bool "columns" true
    (contains out "market value" && contains out "posted")

let test_fig5a_driver_small () =
  let out = render (fun ppf -> App1.fig5a ~scale:0.002 ~seed:1 ppf) in
  check_bool "baseline column" true (contains out "risk-averse");
  check_bool "paper reference" true (contains out "18.16%")

let test_fig5b_driver_small () =
  let out = render (fun ppf -> App2.fig5b ~scale:0.03 ~seed:2 ppf) in
  check_bool "ratio columns" true
    (contains out "reserve 0.4" && contains out "risk-averse 0.8");
  check_bool "mse reported" true (contains out "MSE")

let test_fig5c_driver_small () =
  let out = render (fun ppf -> App3.fig5c ~scale:0.02 ~seed:2 ppf) in
  check_bool "sparse and dense" true
    (contains out "sparse" && contains out "dense");
  check_bool "both dims" true (contains out "n = 128" && contains out "n = 1024")

let test_lemma8_driver () =
  let out = render (fun ppf -> Analysis.lemma8 ~dim:2 ~rounds:600 ppf) in
  check_bool "both variants" true
    (contains out "guarded (paper)" && contains out "conservative cuts allowed")

let test_theorem3_driver () =
  let out = render (fun ppf -> Analysis.theorem3 ~seed:1 ppf) in
  check_bool "log column" true (contains out "regret / log T")

let test_lemma2_driver () =
  let out = render (fun ppf -> Analysis.lemma2_check ~samples:200 ~seed:1 ppf) in
  (* The bound must hold: the reported max difference is ≤ 0, so the
     rendered number starts with '-' or is exactly 0. *)
  check_bool "bound holds" true
    (contains out "-0." || contains out " 0.000000")

let test_lemma45_driver () =
  let out = render (fun ppf -> Analysis.lemma45_check ~dim:4 ~rounds:400 ppf) in
  check_bool "both bounds hold" true (not (contains out "NO"));
  check_bool "reports the floor" true (contains out "min over run")

let test_theorem2_driver () =
  let out = render (fun ppf -> Analysis.theorem2 ~scale:0.05 ppf) in
  check_bool "all four models" true
    (contains out "log-linear" && contains out "log-log"
    && contains out "logistic" && contains out "kernelized")

let test_diagnostics () =
  (* A rank-2 sample: two independent directions plus noise-free
     copies. *)
  let m =
    Dm_linalg.Mat.init 50 4 (fun i j ->
        let a = float_of_int (i mod 5) and b = float_of_int (i mod 3) in
        match j with 0 -> a | 1 -> b | 2 -> a +. b | _ -> 2. *. a)
  in
  Alcotest.(check int) "rank 2" 2 (Dm_experiments.Diagnostics.effective_rank m);
  check_bool "bad threshold" true
    (match Dm_experiments.Diagnostics.effective_rank ~threshold:0. m with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_baselines_driver () =
  let out = render (fun ppf -> Baselines.compare ~scale:0.1 ppf) in
  check_bool "three policies" true
    (contains out "ellipsoid" && contains out "sgd" && contains out "risk-averse")

let test_ablation_drivers () =
  let out1 = render (fun ppf -> Ablation.epsilon_sweep ~rounds:500 ppf) in
  check_bool "epsilon grid" true (contains out1 "125x");
  let out2 = render (fun ppf -> Ablation.delta_sweep ~rounds:500 ppf) in
  check_bool "delta grid" true (contains out2 "0.100");
  let out3 = render (fun ppf -> Ablation.aggregation_sweep ~rounds:500 ppf) in
  check_bool "partition grid" true (contains out3 "n (partitions)")

let test_coldstart_drivers () =
  let out = render (fun ppf -> App1.coldstart ~scale:0.02 ~seeds:2 ppf) in
  check_bool "reduction columns" true (contains out "reserve vs pure");
  let out2 = render (fun ppf -> App2.coldstart ~scale:0.3 ~seeds:2 ppf) in
  check_bool "horizon columns" true (contains out2 "t = 1000")

(* ------------------------------------------------------------------ *)

module Runner = Dm_experiments.Runner

let test_runner_map () =
  let xs = Array.init 37 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int))
    "parallel map matches serial" (Array.map f xs)
    (Runner.map ~jobs:4 f xs);
  Alcotest.(check (array int)) "empty input" [||] (Runner.map ~jobs:4 f [||]);
  check_bool "jobs above cell count" true
    (Runner.map ~jobs:16 f [| 3 |] = [| 10 |]);
  check_bool "invalid jobs rejected" true
    (match Runner.map ~jobs:0 f xs with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* A failing cell re-raises in the caller after every domain joins. *)
  check_bool "exception propagates" true
    (match
       Runner.map ~jobs:4 (fun x -> if x = 11 then failwith "boom" else x) xs
     with
    | _ -> false
    | exception Failure msg -> msg = "boom")

let test_runner_render_deterministic () =
  (* The tentpole contract: output bytes never depend on [jobs]. *)
  let drivers =
    [
      ("fig4", fun ~jobs ppf -> App1.fig4 ~scale:0.01 ~seed:1 ~jobs ppf);
      ( "coldstart app1",
        fun ~jobs ppf -> App1.coldstart ~scale:0.02 ~seeds:2 ~jobs ppf );
      ( "epsilon sweep",
        fun ~jobs ppf -> Ablation.epsilon_sweep ~rounds:500 ~jobs ppf );
      ( "param dist sweep",
        fun ~jobs ppf -> Ablation.param_dist_sweep ~rounds:500 ~jobs ppf );
      ("baselines", fun ~jobs ppf -> Baselines.compare ~scale:0.05 ~jobs ppf);
    ]
  in
  List.iter
    (fun (name, driver) ->
      check_string name
        (render (fun ppf -> driver ~jobs:1 ppf))
        (render (fun ppf -> driver ~jobs:4 ppf)))
    drivers

module Pool = Dm_linalg.Pool

let test_runner_explicit_pool () =
  (* A shared pool gives the same bytes as per-call domain spawning,
     and an explicit size-1 pool degrades to the serial path. *)
  let reference = render (fun ppf -> App1.fig4 ~scale:0.01 ~seed:1 ~jobs:1 ppf) in
  Pool.with_pool ~jobs:4 (fun pool ->
      check_string "shared pool" reference
        (render (fun ppf -> App1.fig4 ~scale:0.01 ~seed:1 ~pool ppf)));
  Pool.with_pool ~jobs:1 (fun pool ->
      check_string "size-1 pool" reference
        (render (fun ppf -> App1.fig4 ~scale:0.01 ~seed:1 ~pool ppf)))

let test_incell_kernel_determinism () =
  (* Above the n >= 512 threshold the mechanism's cut kernels fan out
     over the default pool; the pricing trajectory must stay
     byte-identical to the serial run. *)
  let module Vec = Dm_linalg.Vec in
  let module Ellipsoid = Dm_market.Ellipsoid in
  let module Mechanism = Dm_market.Mechanism in
  let module Rng = Dm_prob.Rng in
  let module Dist = Dm_prob.Dist in
  let dim = 520 in
  let run () =
    let mech =
      Mechanism.create
        (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:1e-9 ())
        (Ellipsoid.ball ~dim ~radius:2.)
    in
    let rng = Rng.create 12 in
    let buf = Buffer.create 4096 in
    for _ = 1 to 30 do
      let x = Vec.normalize (Dist.normal_vec rng ~dim) in
      let d = Mechanism.decide mech ~x ~reserve:neg_infinity in
      (match d with
      | Mechanism.Post { price; _ } ->
          Buffer.add_string buf (Printf.sprintf "%h\n" price)
      | Mechanism.Skip -> Buffer.add_string buf "skip\n");
      Mechanism.observe mech ~x d ~accepted:(Rng.bool rng)
    done;
    let e = Mechanism.ellipsoid mech in
    Buffer.add_string buf
      (Printf.sprintf "vol %h\n" (Ellipsoid.log_volume_factor e));
    for i = 0 to dim - 1 do
      Buffer.add_string buf (Printf.sprintf "%h\n" (Vec.get e.Ellipsoid.center i))
    done;
    Buffer.contents buf
  in
  let serial = run () in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          Pool.set_default (Some p);
          Fun.protect ~finally:(fun () -> Pool.set_default None) (fun () ->
              check_string
                (Printf.sprintf "pooled trajectory, jobs=%d" jobs)
                serial (run ()))))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)

module Stress = Dm_experiments.Stress

let test_stress_smoke () =
  (* The CI configuration (default seed, bench scale): the closing
     verdict must read OK — robust wins every misspecified family and
     holds the stated margin on the paper stream. *)
  let out = render (fun ppf -> Stress.degradation ~scale:0.05 ~seed:42 ppf) in
  check_bool "all six families" true
    (contains out "paper" && contains out "drift" && contains out "switch"
    && contains out "student-t" && contains out "pareto"
    && contains out "strategic");
  check_bool "both mechanisms" true
    (contains out "vanilla" && contains out "robust");
  check_bool "lower-bound panel" true (contains out "Lemma-8");
  check_bool "greppable verdict" true
    (contains out "stress summary:" && contains out "OK")

let test_stress_jobs_independent () =
  let at jobs =
    render (fun ppf -> Stress.degradation ~scale:0.02 ~seed:1 ~jobs ppf)
  in
  check_string "jobs-independent bytes" (at 1) (at 4);
  Pool.with_pool ~jobs:3 (fun pool ->
      check_string "explicit pool bytes" (at 1)
        (render (fun ppf -> Stress.degradation ~scale:0.02 ~seed:1 ~pool ppf)))

module Auction = Dm_experiments.Auction

let test_auction_smoke () =
  let out = render (fun ppf -> Auction.revenue_vs_opt ~scale:0.05 ~seed:42 ppf) in
  check_bool "all policies" true
    (contains out "floor-only" && contains out "ew-bandit"
    && contains out "ftpl-bandit" && contains out "ellipsoid"
    && contains out "opt (fixed vector)");
  check_bool "all bidder panels" true
    (contains out " 2 " && contains out " 8 " && contains out " 32 ");
  check_bool "greppable verdict" true
    (contains out "auction summary:" && contains out "OK")

let test_auction_jobs_independent () =
  let at jobs =
    render (fun ppf -> Auction.revenue_vs_opt ~scale:0.05 ~seed:1 ~jobs ppf)
  in
  check_string "jobs-independent bytes" (at 1) (at 4);
  Pool.with_pool ~jobs:3 (fun pool ->
      check_string "explicit pool bytes" (at 1)
        (render (fun ppf -> Auction.revenue_vs_opt ~scale:0.05 ~seed:1 ~pool ppf)))

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_experiments"
    [
      ( "drivers",
        [
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
          Alcotest.test_case "checkpoints" `Quick test_checkpoints_shape;
          Alcotest.test_case "fig1" `Quick test_fig1_driver;
          Alcotest.test_case "fig4 (tiny)" `Slow test_fig4_driver_small;
          Alcotest.test_case "table1 (tiny)" `Slow test_table1_driver_small;
          Alcotest.test_case "fig5a (tiny)" `Slow test_fig5a_driver_small;
          Alcotest.test_case "fig5b (tiny)" `Slow test_fig5b_driver_small;
          Alcotest.test_case "fig5c (tiny)" `Slow test_fig5c_driver_small;
          Alcotest.test_case "lemma8" `Slow test_lemma8_driver;
          Alcotest.test_case "theorem3" `Slow test_theorem3_driver;
          Alcotest.test_case "lemma2" `Slow test_lemma2_driver;
          Alcotest.test_case "lemma45" `Slow test_lemma45_driver;
          Alcotest.test_case "theorem2 (tiny)" `Slow test_theorem2_driver;
          Alcotest.test_case "baselines (tiny)" `Slow test_baselines_driver;
          Alcotest.test_case "diagnostics rank" `Quick test_diagnostics;
          Alcotest.test_case "ablations (tiny)" `Slow test_ablation_drivers;
          Alcotest.test_case "coldstart (tiny)" `Slow test_coldstart_drivers;
        ] );
      ( "runner",
        [
          Alcotest.test_case "map semantics" `Quick test_runner_map;
          Alcotest.test_case "jobs-independent bytes" `Slow
            test_runner_render_deterministic;
          Alcotest.test_case "explicit pool bytes" `Slow
            test_runner_explicit_pool;
          Alcotest.test_case "in-cell kernel determinism (n = 520)" `Slow
            test_incell_kernel_determinism;
        ] );
      ( "stress",
        [
          Alcotest.test_case "smoke (tiny)" `Slow test_stress_smoke;
          Alcotest.test_case "jobs-independent bytes" `Slow
            test_stress_jobs_independent;
        ] );
      ( "auction",
        [
          Alcotest.test_case "smoke (tiny)" `Slow test_auction_smoke;
          Alcotest.test_case "jobs-independent bytes" `Slow
            test_auction_jobs_independent;
        ] );
    ]
