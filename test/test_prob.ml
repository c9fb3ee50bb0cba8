(* Unit and property tests for the dm_prob substrate. *)

module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Stats = Dm_prob.Stats
module Subgaussian = Dm_prob.Subgaussian

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  check_float "copy replays" (Rng.float a) (Rng.float b)

let test_rng_split_independence () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  (* Child and parent produce different streams. *)
  check_bool "independent" true (Rng.bits64 child <> Rng.bits64 a)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let rng = Rng.create 5 in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let k = Rng.int rng 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d roughly uniform" i) true
        (c > 700 && c < 1300))
    counts;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_shuffle () =
  let rng = Rng.create 3 in
  let a = Array.init 10 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 10 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let moments f n rng =
  let xs = Array.init n (fun _ -> f rng) in
  (Stats.mean xs, Stats.std xs)

let test_normal_moments () =
  let rng = Rng.create 11 in
  let m, s = moments (fun r -> Dist.normal r ~mean:2. ~std:3.) 50_000 rng in
  check_bool "mean near 2" true (abs_float (m -. 2.) < 0.1);
  check_bool "std near 3" true (abs_float (s -. 3.) < 0.1)

let test_laplace_moments () =
  let rng = Rng.create 12 in
  let m, s = moments (fun r -> Dist.laplace r ~scale:1.5) 50_000 rng in
  check_bool "mean near 0" true (abs_float m < 0.05);
  (* Laplace(b) has std b·√2. *)
  check_bool "std near 1.5·√2" true (abs_float (s -. (1.5 *. sqrt 2.)) < 0.1)

let test_rademacher () =
  let rng = Rng.create 13 in
  let xs = Array.init 10_000 (fun _ -> Dist.rademacher rng) in
  Array.iter (fun x -> check_bool "pm one" true (x = 1. || x = -1.)) xs;
  check_bool "balanced" true (abs_float (Stats.mean xs) < 0.05)

let test_bernoulli () =
  let rng = Rng.create 14 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Dist.bernoulli rng ~p:0.3 then incr hits
  done;
  check_bool "p respected" true (abs_float ((float_of_int !hits /. 10_000.) -. 0.3) < 0.03);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Dist.bernoulli: p outside [0,1]") (fun () ->
      ignore (Dist.bernoulli rng ~p:1.5))

let test_exponential () =
  let rng = Rng.create 15 in
  let m, _ = moments (fun r -> Dist.exponential r ~rate:2.) 50_000 rng in
  check_bool "mean near 1/2" true (abs_float (m -. 0.5) < 0.02)

let test_categorical () =
  let rng = Rng.create 16 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let k = Dist.categorical rng ~weights:[| 1.; 2.; 7. |] in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "heaviest wins" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  check_bool "ratios respected" true
    (abs_float ((float_of_int counts.(2) /. 10_000.) -. 0.7) < 0.03)

let test_zipf () =
  let rng = Rng.create 17 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Dist.zipf rng ~n:10 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 most popular" true
    (counts.(0) > counts.(4) && counts.(4) > counts.(9))

let test_on_sphere () =
  let rng = Rng.create 18 in
  for _ = 1 to 50 do
    let v = Dist.on_sphere rng ~dim:7 ~radius:3. in
    check_bool "radius" true (abs_float (Dm_linalg.Vec.norm2 v -. 3.) < 1e-9)
  done

let test_subgaussian_kinds () =
  let rng = Rng.create 19 in
  check_float "degenerate" 0. (Dist.subgaussian_sample rng Dist.Degenerate);
  check_float "degenerate sigma" 0. (Dist.subgaussian_sigma Dist.Degenerate);
  let u = Dist.subgaussian_sample rng (Dist.Uniform_pm 0.5) in
  check_bool "uniform bounded" true (abs_float u <= 0.5);
  let r = Dist.subgaussian_sample rng (Dist.Scaled_rademacher 0.25) in
  check_bool "rademacher scaled" true (abs_float r = 0.25)

let dist_props =
  [
    prop "normal_vec has requested dim" 50 QCheck.(int_range 1 30) (fun n ->
        let rng = Rng.create n in
        Dm_linalg.Vec.dim (Dist.normal_vec rng ~dim:n) = n);
    prop "uniform_vec respects bounds" 50 QCheck.(int_range 1 30) (fun n ->
        let rng = Rng.create n in
        let v = Dist.uniform_vec rng ~dim:n ~lo:(-1.) ~hi:1. in
        Array.for_all (fun x -> x >= -1. && x < 1.) v);
    prop "laplace median is 0-ish per sample sign balance" 20
      QCheck.(int_range 1 1000)
      (fun seed ->
        let rng = Rng.create seed in
        let pos = ref 0 in
        for _ = 1 to 200 do
          if Dist.laplace rng ~scale:1. > 0. then incr pos
        done;
        !pos > 50 && !pos < 150);
  ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_online_matches_batch () =
  let xs = [| 1.; 4.; 2.; 8.; 5.; 7. |] in
  let o = Stats.online_create () in
  Array.iter (Stats.online_add o) xs;
  check_float "mean" (Stats.mean xs) (Stats.online_mean o);
  check_bool "std" true (abs_float (Stats.std xs -. Stats.online_std o) < 1e-9);
  check_int "count" 6 (Stats.online_count o);
  check_float "min" 1. (Stats.online_min o);
  check_float "max" 8. (Stats.online_max o);
  check_float "sum" 27. (Stats.online_sum o)

let test_online_empty () =
  let o = Stats.online_create () in
  check_bool "mean nan" true (Float.is_nan (Stats.online_mean o));
  check_float "variance zero" 0. (Stats.online_variance o);
  (* Regression: these used to leak the ±infinity accumulator seeds. *)
  check_bool "min nan" true (Float.is_nan (Stats.online_min o));
  check_bool "max nan" true (Float.is_nan (Stats.online_max o));
  let s = Stats.summarize o in
  check_bool "summary min nan" true (Float.is_nan s.Stats.min);
  check_bool "summary max nan" true (Float.is_nan s.Stats.max);
  check_bool "summary pretty-prints as empty" true
    (Format.asprintf "%a" Stats.pp_summary s = "n=0 (empty)")

let test_quantiles () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "median interp" 2.5 (Stats.median xs);
  check_float "q0" 1. (Stats.quantile xs 0.);
  check_float "q1" 4. (Stats.quantile xs 1.);
  check_float "q25" 1.75 (Stats.quantile xs 0.25);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty input")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let test_quantile_rejects_nan () =
  Alcotest.check_raises "NaN p"
    (Invalid_argument "Stats.quantile: p outside [0,1] or NaN") (fun () ->
      ignore (Stats.quantile [| 1.; 2. |] nan))

let test_summary () =
  let o = Stats.online_create () in
  List.iter (Stats.online_add o) [ 1.; 2.; 3. ];
  let s = Stats.summarize o in
  check_int "count" 3 s.Stats.count;
  check_float "mean" 2. s.Stats.mean;
  check_float "sum" 6. s.Stats.sum

let stats_props =
  [
    prop "online mean equals batch mean" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
      (fun xs ->
        let o = Stats.online_create () in
        Array.iter (Stats.online_add o) xs;
        abs_float (Stats.online_mean o -. Stats.mean xs) < 1e-6);
    prop "online std equals batch std" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 2 50) (float_range (-100.) 100.))
      (fun xs ->
        let o = Stats.online_create () in
        Array.iter (Stats.online_add o) xs;
        abs_float (Stats.online_std o -. Stats.std xs) < 1e-6);
    prop "quantile is monotone in p" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
      (fun xs ->
        Stats.quantile xs 0.2 <= Stats.quantile xs 0.8 +. 1e-9);
    prop "median between min and max" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
      (fun xs ->
        let m = Stats.median xs in
        let sorted = Dm_linalg.Vec.sorted xs in
        m >= sorted.(0) -. 1e-9 && m <= sorted.(Array.length xs - 1) +. 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Subgaussian                                                         *)
(* ------------------------------------------------------------------ *)

let test_buffer_formula () =
  (* δ = √(2 log 2)·σ·log T, the paper's choice with C = 2. *)
  let sigma = 0.5 and horizon = 1000 in
  let expected = sqrt (2. *. log 2.) *. sigma *. log 1000. in
  check_float "buffer" expected (Subgaussian.buffer ~sigma ~horizon ())

let test_buffer_sigma_roundtrip () =
  let delta = 0.01 and horizon = 100_000 in
  let sigma = Subgaussian.sigma_for_buffer ~delta ~horizon () in
  check_bool "roundtrip" true
    (abs_float (Subgaussian.buffer ~sigma ~horizon () -. delta) < 1e-12)

let test_tail_bound () =
  check_float "zero sigma, positive z" 0.
    (Subgaussian.tail_bound ~sigma:0. ~z:1. ());
  check_float "capped at 1" 1. (Subgaussian.tail_bound ~sigma:10. ~z:0. ());
  let b1 = Subgaussian.tail_bound ~sigma:1. ~z:1. () in
  let b2 = Subgaussian.tail_bound ~sigma:1. ~z:2. () in
  check_bool "decreasing in z" true (b2 < b1)

let test_union_bound () =
  (* Eq. 6: for T >= 8, miss probability <= 1/T. *)
  List.iter
    (fun t ->
      check_bool
        (Printf.sprintf "T=%d miss <= 1/T" t)
        true
        (Subgaussian.union_miss_probability ~horizon:t <= 1. /. float_of_int t))
    [ 8; 100; 10_000 ]

let test_default_threshold () =
  (* Multi-dimensional: ε = n²/T, floored at 4nδ with δ = n/T. *)
  let eps = Subgaussian.default_threshold ~dim:10 ~horizon:1000 in
  check_bool "at least n^2/T" true (eps >= 0.1 -. 1e-12);
  check_bool "at least 4n·(n/T)" true (eps >= 0.4 -. 1e-12);
  (* One-dimensional: log₂T/T vs 4δ. *)
  let eps1 = Subgaussian.default_threshold ~dim:1 ~horizon:100 in
  check_bool "1-d value" true
    (abs_float (eps1 -. (log 100. /. log 2. /. 100.)) < 1e-12)

(* NaN answers false to [<] and [<=], so each check is written as
   [not (x >= 0.)] / [not (x > 1.)]. *)
let test_check_c_refuses_nan () =
  Alcotest.check_raises "nan C"
    (Invalid_argument "Subgaussian: C must exceed 1 (NaN refused)") (fun () ->
      ignore (Subgaussian.buffer ~c:nan ~sigma:1. ~horizon:10 ()))

let test_buffer_refuses_nan () =
  Alcotest.check_raises "nan sigma"
    (Invalid_argument "Subgaussian.buffer: negative or NaN sigma") (fun () ->
      ignore (Subgaussian.buffer ~sigma:nan ~horizon:10 ()))

let test_sigma_for_buffer_refuses_nan () =
  Alcotest.check_raises "nan delta"
    (Invalid_argument "Subgaussian.sigma_for_buffer: negative or NaN delta")
    (fun () -> ignore (Subgaussian.sigma_for_buffer ~delta:nan ~horizon:10 ()))

let test_tail_bound_refuses_nan () =
  Alcotest.check_raises "nan z"
    (Invalid_argument "Subgaussian.tail_bound: negative or NaN z") (fun () ->
      ignore (Subgaussian.tail_bound ~sigma:1. ~z:nan ()))

let subgaussian_props =
  [
    prop "buffer monotone in horizon" 50 QCheck.(int_range 2 100_000) (fun t ->
        Subgaussian.buffer ~sigma:1. ~horizon:(t + 1) ()
        >= Subgaussian.buffer ~sigma:1. ~horizon:t ());
    prop "buffer linear in sigma" 50 QCheck.(float_range 0. 10.) (fun s ->
        let b1 = Subgaussian.buffer ~sigma:s ~horizon:100 () in
        let b2 = Subgaussian.buffer ~sigma:(2. *. s) ~horizon:100 () in
        abs_float (b2 -. (2. *. b1)) < 1e-9);
    prop "empirical tail within bound (uniform and rademacher)" 20
      QCheck.(int_range 1 500)
      (fun seed ->
        (* Both laws are a-sub-Gaussian with σ = a (Eq. 4 discussion);
           the buffer computed from that σ must dominate their
           empirical tails. *)
        let rng = Rng.create seed in
        let check law =
          let sigma = Dist.subgaussian_sigma law in
          let z = 1.5 *. sigma in
          let bound = Subgaussian.tail_bound ~sigma ~z () in
          let exceed = ref 0 in
          for _ = 1 to 1000 do
            if abs_float (Dist.subgaussian_sample rng law) > z then incr exceed
          done;
          float_of_int !exceed /. 1000. <= bound +. 0.05
        in
        check (Dist.Uniform_pm 0.7) && check (Dist.Scaled_rademacher 0.7));
    prop "quantiles stay within the data range" 100
      QCheck.(
        pair
          (array_of_size (QCheck.Gen.int_range 1 40) (float_range (-50.) 50.))
          (float_range 0. 1.))
      (fun (xs, p) ->
        let q = Stats.quantile xs p in
        let sorted = Dm_linalg.Vec.sorted xs in
        q >= sorted.(0) -. 1e-9
        && q <= sorted.(Array.length xs - 1) +. 1e-9);
    prop "empirical tail within bound (gaussian)" 20 QCheck.(int_range 1 500)
      (fun seed ->
        let rng = Rng.create seed in
        let sigma = 1. in
        let z = 2. in
        let n = 2000 in
        let exceed = ref 0 in
        for _ = 1 to n do
          if abs_float (Dist.normal rng ~mean:0. ~std:sigma) > z then
            incr exceed
        done;
        let empirical = float_of_int !exceed /. float_of_int n in
        (* Eq. 4 bound with C = 2 plus sampling slack. *)
        empirical <= Subgaussian.tail_bound ~sigma ~z () +. 0.05);
  ]

(* ------------------------------------------------------------------ *)
(* NaN parameters                                                      *)
(* ------------------------------------------------------------------ *)

(* Each sampler's parameter check refuses NaN, which answers false to
   every comparison and so slipped past the [x < 0.] form. *)
let refuses_nan name f =
  check_bool (name ^ " refuses NaN") true
    (match f (Rng.create 3) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_normal_nan () =
  refuses_nan "normal std" (fun rng -> Dist.normal rng ~mean:0. ~std:nan)

let test_laplace_nan () =
  refuses_nan "laplace scale" (fun rng -> Dist.laplace rng ~scale:nan)

let test_exponential_nan () =
  refuses_nan "exponential rate" (fun rng -> Dist.exponential rng ~rate:nan)

let test_student_t_nan () =
  refuses_nan "student_t scale" (fun rng ->
      Dist.student_t rng ~dof:3. ~scale:nan)

let test_pareto_nan () =
  refuses_nan "pareto scale" (fun rng -> Dist.pareto rng ~alpha:2. ~scale:nan)

let test_on_sphere_nan () =
  refuses_nan "on_sphere radius" (fun rng ->
      Dist.on_sphere rng ~dim:3 ~radius:nan)

let test_bernoulli_nan () =
  refuses_nan "bernoulli p" (fun rng -> Dist.bernoulli rng ~p:nan)

let test_categorical_nan () =
  refuses_nan "categorical weight" (fun rng ->
      Dist.categorical rng ~weights:[| 1.; nan; 1. |])

let test_zipf_nan () =
  (* 1 ** NaN = 1, so the first weight stays finite and only the sum
     check could see it. *)
  refuses_nan "zipf exponent" (fun rng -> Dist.zipf rng ~n:4 ~s:nan)

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_prob"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independence;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_range;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "laplace moments" `Quick test_laplace_moments;
          Alcotest.test_case "rademacher" `Quick test_rademacher;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "zipf" `Quick test_zipf;
          Alcotest.test_case "on sphere" `Quick test_on_sphere;
          Alcotest.test_case "subgaussian kinds" `Quick test_subgaussian_kinds;
        ]
        @ dist_props
        @ [
            Alcotest.test_case "normal refuses NaN" `Quick test_normal_nan;
            Alcotest.test_case "laplace refuses NaN" `Quick test_laplace_nan;
            Alcotest.test_case "exponential refuses NaN" `Quick
              test_exponential_nan;
            Alcotest.test_case "student_t refuses NaN" `Quick
              test_student_t_nan;
            Alcotest.test_case "pareto refuses NaN" `Quick test_pareto_nan;
            Alcotest.test_case "on_sphere refuses NaN" `Quick
              test_on_sphere_nan;
            Alcotest.test_case "bernoulli refuses NaN" `Quick
              test_bernoulli_nan;
            Alcotest.test_case "categorical refuses NaN" `Quick
              test_categorical_nan;
            Alcotest.test_case "zipf refuses NaN" `Quick test_zipf_nan;
          ] );
      ( "stats",
        [
          Alcotest.test_case "online vs batch" `Quick test_online_matches_batch;
          Alcotest.test_case "online empty" `Quick test_online_empty;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile rejects NaN p" `Quick
            test_quantile_rejects_nan;
          Alcotest.test_case "summary" `Quick test_summary;
        ]
        @ stats_props );
      ( "subgaussian",
        [
          Alcotest.test_case "buffer formula" `Quick test_buffer_formula;
          Alcotest.test_case "buffer/sigma roundtrip" `Quick
            test_buffer_sigma_roundtrip;
          Alcotest.test_case "tail bound" `Quick test_tail_bound;
          Alcotest.test_case "union bound" `Quick test_union_bound;
          Alcotest.test_case "default threshold" `Quick test_default_threshold;
          Alcotest.test_case "C refuses NaN" `Quick test_check_c_refuses_nan;
          Alcotest.test_case "buffer refuses NaN sigma" `Quick
            test_buffer_refuses_nan;
          Alcotest.test_case "sigma_for_buffer refuses NaN delta" `Quick
            test_sigma_for_buffer_refuses_nan;
          Alcotest.test_case "tail bound refuses NaN z" `Quick
            test_tail_bound_refuses_nan;
        ]
        @ subgaussian_props );
    ]
