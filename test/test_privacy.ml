(* Unit and property tests for the dm_privacy substrate. *)

module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Stats = Dm_prob.Stats
module Dp = Dm_privacy.Dp
module Comp = Dm_privacy.Compensation

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

(* ------------------------------------------------------------------ *)
(* Dp                                                                  *)
(* ------------------------------------------------------------------ *)

let test_query_validation () =
  check_bool "rejects empty owners" true
    (match Dp.make_query ~weights:[||] ~noise_scale:1. with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "rejects zero noise" true
    (match Dp.make_query ~weights:[| 1. |] ~noise_scale:0. with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_variance_to_scale () =
  (* Laplace(λ) has variance 2λ², so λ = √(v/2). *)
  check_float "v=2 gives λ=1" 1. (Dp.variance_to_scale 2.);
  check_float "v=8 gives λ=2" 2. (Dp.variance_to_scale 8.)

(* NaN answers false to [x < 0.] and [x <= 0.]; these pin that each
   input check rejects it all the same. *)
let test_make_query_rejects_nan () =
  Alcotest.check_raises "NaN noise scale"
    (Invalid_argument "Dp.make_query: noise scale must be positive")
    (fun () -> ignore (Dp.make_query ~weights:[| 1. |] ~noise_scale:nan))

let test_variance_to_scale_rejects_nan () =
  Alcotest.check_raises "NaN variance"
    (Invalid_argument "Dp.variance_to_scale: variance must be positive")
    (fun () -> ignore (Dp.variance_to_scale nan))

let test_leakage_rejects_nan () =
  let q = Dp.make_query ~weights:[| 1.; 2. |] ~noise_scale:1. in
  Alcotest.check_raises "NaN data range"
    (Invalid_argument "Dp.leakage: negative or NaN data range") (fun () ->
      ignore (Dp.leakage q ~data_ranges:[| 1.; nan |]))

let test_leakage_formula () =
  let q = Dp.make_query ~weights:[| 2.; -3.; 0. |] ~noise_scale:4. in
  let eps = Dp.leakage q ~data_ranges:[| 1.; 2.; 5. |] in
  check_float "owner 0" 0.5 (Vec.get eps 0);
  check_float "owner 1: |w| used" 1.5 (Vec.get eps 1);
  check_float "owner 2: zero weight leaks nothing" 0. (Vec.get eps 2);
  check_float "total" 2. (Dp.total_epsilon q ~data_ranges:[| 1.; 2.; 5. |])

let test_leakage_scaling () =
  (* Doubling the noise halves every leakage. *)
  let w = [| 1.; 2.; 3. |] and ranges = [| 1.; 1.; 1. |] in
  let q1 = Dp.make_query ~weights:w ~noise_scale:1. in
  let q2 = Dp.make_query ~weights:w ~noise_scale:2. in
  let e1 = Dp.leakage q1 ~data_ranges:ranges in
  let e2 = Dp.leakage q2 ~data_ranges:ranges in
  check_bool "halved" true
    (Vec.approx_equal (Vec.scale 0.5 e1) e2)

let test_answers () =
  let q = Dp.make_query ~weights:[| 1.; 2. |] ~noise_scale:0.5 in
  check_float "true answer" 8. (Dp.true_answer q ~data:[| 2.; 3. |]);
  (* Noisy answers are unbiased: average error goes to 0. *)
  let rng = Rng.create 42 in
  let o = Stats.online_create () in
  for _ = 1 to 20_000 do
    Stats.online_add o (Dp.noisy_answer rng q ~data:[| 2.; 3. |] -. 8.)
  done;
  check_bool "unbiased" true (abs_float (Stats.online_mean o) < 0.02)

let dp_props =
  [
    prop "leakage is non-negative" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 1 20) (float_range (-5.) 5.))
      (fun w ->
        let q = Dp.make_query ~weights:w ~noise_scale:0.7 in
        let ranges = Vec.create (Array.length w) 1. in
        Array.for_all (fun e -> e >= 0.) (Dp.leakage q ~data_ranges:ranges));
    prop "total epsilon additive over owners" 100
      QCheck.(array_of_size (QCheck.Gen.int_range 1 20) (float_range (-5.) 5.))
      (fun w ->
        let q = Dp.make_query ~weights:w ~noise_scale:0.7 in
        let ranges = Vec.create (Array.length w) 2. in
        let eps = Dp.leakage q ~data_ranges:ranges in
        abs_float (Vec.sum eps -. Dp.total_epsilon q ~data_ranges:ranges)
        < 1e-9);
    prop "leakage monotone in weight magnitude" 100
      QCheck.(float_range 0. 10.)
      (fun w ->
        let mk w = Dp.make_query ~weights:[| w |] ~noise_scale:1. in
        let e w = Vec.get (Dp.leakage (mk w) ~data_ranges:[| 1. |]) 0 in
        e (w +. 1.) >= e w);
  ]

(* ------------------------------------------------------------------ *)
(* Compensation                                                        *)
(* ------------------------------------------------------------------ *)

let test_contract_validation () =
  check_bool "negative rate rejected" true
    (match Comp.linear ~rate:(-1.) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "negative cap rejected" true
    (match Comp.tanh_contract ~cap:(-1.) ~steepness:1. with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_amounts () =
  let lin = Comp.linear ~rate:2. in
  check_float "linear" 3. (Comp.amount lin 1.5);
  let th = Comp.tanh_contract ~cap:4. ~steepness:0.5 in
  check_float "tanh at 0" 0. (Comp.amount th 0.);
  check_float "tanh formula" (4. *. tanh 1.) (Comp.amount th 2.);
  check_bool "negative leakage rejected" true
    (match Comp.amount th (-0.1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_amount_rejects_nan () =
  List.iter
    (fun c ->
      Alcotest.check_raises "NaN leakage"
        (Invalid_argument "Compensation.amount: negative or NaN leakage")
        (fun () -> ignore (Comp.amount c nan)))
    [ Comp.linear ~rate:1.; Comp.tanh_contract ~cap:1. ~steepness:1. ]

let test_linear_rejects_nan () =
  Alcotest.check_raises "NaN rate"
    (Invalid_argument "Compensation.linear: negative or NaN rate") (fun () ->
      ignore (Comp.linear ~rate:nan))

let test_tanh_contract_rejects_nan () =
  Alcotest.check_raises "NaN cap"
    (Invalid_argument "Compensation.tanh_contract: negative or NaN cap")
    (fun () -> ignore (Comp.tanh_contract ~cap:nan ~steepness:1.));
  Alcotest.check_raises "NaN steepness"
    (Invalid_argument "Compensation.tanh_contract: negative or NaN steepness")
    (fun () -> ignore (Comp.tanh_contract ~cap:1. ~steepness:nan))

let test_caps () =
  check_float "tanh cap" 4. (Comp.cap (Comp.tanh_contract ~cap:4. ~steepness:1.));
  check_float "zero linear cap" 0. (Comp.cap (Comp.linear ~rate:0.));
  check_bool "positive linear unbounded" true
    (Comp.cap (Comp.linear ~rate:1.) = infinity)

let test_total () =
  let contracts = [| Comp.linear ~rate:1.; Comp.tanh_contract ~cap:2. ~steepness:1. |] in
  let leakages = [| 0.5; 10. |] in
  (* tanh(10) ≈ 1 so the second owner is paid her cap. *)
  let t = Comp.total ~contracts ~leakages in
  check_bool "near 0.5 + 2" true (abs_float (t -. 2.5) < 1e-4);
  check_bool "length mismatch" true
    (match Comp.total ~contracts ~leakages:[| 1. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let comp_props =
  [
    prop "amount non-negative and zero at zero" 100
      QCheck.(pair (float_range 0. 10.) (float_range 0. 10.))
      (fun (cap, steep) ->
        let c = Comp.tanh_contract ~cap ~steepness:steep in
        Comp.amount c 0. = 0. && Comp.amount c 3. >= 0.);
    prop "tanh amount monotone in leakage" 100
      QCheck.(triple (float_range 0.1 10.) (float_range 0.1 5.) (float_range 0. 10.))
      (fun (cap, steep, eps) ->
        let c = Comp.tanh_contract ~cap ~steepness:steep in
        Comp.amount c (eps +. 0.5) >= Comp.amount c eps);
    prop "tanh amount bounded by cap" 100
      QCheck.(pair (float_range 0.1 10.) (float_range 0. 100.))
      (fun (cap, eps) ->
        let c = Comp.tanh_contract ~cap ~steepness:1. in
        Comp.amount c eps <= cap +. 1e-12);
    prop "tanh is approximately linear near zero" 50
      QCheck.(float_range 0.1 4.)
      (fun cap ->
        let steep = 0.5 in
        let c = Comp.tanh_contract ~cap ~steepness:steep in
        let eps = 1e-4 in
        abs_float (Comp.amount c eps -. (cap *. steep *. eps)) < 1e-9);
    prop "total is additive across disjoint owner sets" 50
      QCheck.(array_of_size (QCheck.Gen.int_range 2 12) (float_range 0. 5.))
      (fun leakages ->
        let n = Array.length leakages in
        let contracts = Array.make n (Comp.tanh_contract ~cap:3. ~steepness:0.7) in
        let k = n / 2 in
        let part pos len =
          Comp.total
            ~contracts:(Array.sub contracts pos len)
            ~leakages:(Vec.slice leakages ~pos ~len)
        in
        let whole = Comp.total ~contracts ~leakages in
        abs_float (whole -. (part 0 k +. part k (n - k))) < 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

module Compo = Dm_privacy.Composition

let test_basic_composition () =
  let total = Compo.basic [ Compo.pure 0.5; Compo.approx ~eps:0.3 ~del:1e-6 ] in
  check_float "eps adds" 0.8 total.Compo.eps;
  check_float "del adds" 1e-6 total.Compo.del;
  check_bool "negative rejected" true
    (match Compo.pure (-1.) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_advanced_composition () =
  (* Dwork–Roth Thm 3.20 at k = 100, ε = 0.01, slack = 1e-5. *)
  let l = Compo.approx ~eps:0.01 ~del:1e-8 in
  let a = Compo.advanced ~k:100 ~slack:1e-5 l in
  let expected_eps =
    (sqrt (200. *. log 1e5) *. 0.01) +. (100. *. 0.01 *. (exp 0.01 -. 1.))
  in
  check_bool "eps formula" true (abs_float (a.Compo.eps -. expected_eps) < 1e-9);
  check_bool "del" true (abs_float (a.Compo.del -. ((100. *. 1e-8) +. 1e-5)) < 1e-12);
  (* Advanced beats basic for many small-ε queries. *)
  check_bool "advanced wins at small eps" true (a.Compo.eps < 100. *. 0.01);
  let b = Compo.best_of ~k:100 ~slack:1e-5 l in
  check_bool "best_of picks it" true (b.Compo.eps = a.Compo.eps);
  (* ...but basic wins for one large-ε query. *)
  let big = Compo.pure 2. in
  let best = Compo.best_of ~k:2 ~slack:1e-5 big in
  check_bool "basic wins at large eps" true (best.Compo.eps = 4.)

let test_gaussian_scale () =
  let sigma =
    Compo.gaussian_scale ~sensitivity:1. (Compo.approx ~eps:0.5 ~del:1e-5)
  in
  check_bool "formula" true
    (abs_float (sigma -. (sqrt (2. *. log (1.25 /. 1e-5)) /. 0.5)) < 1e-9);
  check_bool "pure rejected" true
    (match Compo.gaussian_scale ~sensitivity:1. (Compo.pure 0.5) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_composition_refuses_nan () =
  let refused name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let level = "Composition: negative or NaN level" in
  refused "nan eps" level (fun () -> Compo.pure nan);
  refused "nan del" level (fun () -> Compo.approx ~eps:0.1 ~del:nan);
  refused "nan slack" "Composition.advanced: slack must be in (0, 1), not NaN"
    (fun () -> Compo.advanced ~k:2 ~slack:nan (Compo.pure 0.1));
  let ok = Compo.approx ~eps:0.5 ~del:1e-5 in
  refused "nan sensitivity"
    "Composition.gaussian_scale: sensitivity must be > 0, not NaN" (fun () ->
      Compo.gaussian_scale ~sensitivity:nan ok);
  refused "nan gaussian eps"
    "Composition.gaussian_scale: eps must be in (0, 1], not NaN" (fun () ->
      Compo.gaussian_scale ~sensitivity:1. { ok with Compo.eps = nan });
  refused "nan gaussian delta"
    "Composition.gaussian_scale: delta must be in (0, 1), not NaN" (fun () ->
      Compo.gaussian_scale ~sensitivity:1. { ok with Compo.del = nan })

let test_accountant () =
  let a = Compo.accountant ~owners:3 ~budget:(Compo.pure 1.) in
  check_bool "first spend fits" true (Compo.spend a ~owner:0 (Compo.pure 0.6));
  check_bool "second spend overruns" false (Compo.spend a ~owner:0 (Compo.pure 0.6));
  check_bool "other owners untouched" true
    ((Compo.spent a ~owner:1).Compo.eps = 0.);
  check_bool "remaining floored at zero" true
    ((Compo.remaining a ~owner:0).Compo.eps = 0.);
  Alcotest.(check (list int)) "exhausted list" [ 0 ] (Compo.exhausted a);
  check_bool "owner bounds checked" true
    (match Compo.spent a ~owner:5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let composition_props =
  [
    prop "basic composition is order-independent" 100
      QCheck.(small_list (float_range 0. 1.))
      (fun epss ->
        let levels = List.map Compo.pure epss in
        let a = Compo.basic levels in
        let b = Compo.basic (List.rev levels) in
        abs_float (a.Compo.eps -. b.Compo.eps) < 1e-9);
    prop "advanced eps grows sublinearly in k for small eps" 50
      QCheck.(int_range 4 400)
      (fun k ->
        let l = Compo.pure 0.01 in
        let a = Compo.advanced ~k ~slack:1e-6 l in
        let a4k = Compo.advanced ~k:(4 * k) ~slack:1e-6 l in
        (* Quadrupling k should far less than quadruple ε. *)
        a4k.Compo.eps < 3. *. a.Compo.eps);
    prop "accountant spends add up" 50
      QCheck.(small_list (float_range 0. 0.2))
      (fun epss ->
        let a = Compo.accountant ~owners:1 ~budget:(Compo.pure 100.) in
        List.iter (fun e -> ignore (Compo.spend a ~owner:0 (Compo.pure e))) epss;
        abs_float
          ((Compo.spent a ~owner:0).Compo.eps
          -. List.fold_left ( +. ) 0. epss)
        < 1e-9);
  ]

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_privacy"
    [
      ( "dp",
        [
          Alcotest.test_case "query validation" `Quick test_query_validation;
          Alcotest.test_case "variance to scale" `Quick test_variance_to_scale;
          Alcotest.test_case "make_query rejects NaN" `Quick
            test_make_query_rejects_nan;
          Alcotest.test_case "variance_to_scale rejects NaN" `Quick
            test_variance_to_scale_rejects_nan;
          Alcotest.test_case "leakage rejects NaN" `Quick
            test_leakage_rejects_nan;
          Alcotest.test_case "leakage formula" `Quick test_leakage_formula;
          Alcotest.test_case "leakage scaling" `Quick test_leakage_scaling;
          Alcotest.test_case "answers" `Quick test_answers;
        ]
        @ dp_props );
      ( "compensation",
        [
          Alcotest.test_case "validation" `Quick test_contract_validation;
          Alcotest.test_case "amounts" `Quick test_amounts;
          Alcotest.test_case "amount rejects NaN" `Quick test_amount_rejects_nan;
          Alcotest.test_case "linear rejects NaN" `Quick test_linear_rejects_nan;
          Alcotest.test_case "tanh_contract rejects NaN" `Quick
            test_tanh_contract_rejects_nan;
          Alcotest.test_case "caps" `Quick test_caps;
          Alcotest.test_case "totals" `Quick test_total;
        ]
        @ comp_props );
      ( "composition",
        [
          Alcotest.test_case "basic" `Quick test_basic_composition;
          Alcotest.test_case "advanced" `Quick test_advanced_composition;
          Alcotest.test_case "gaussian scale" `Quick test_gaussian_scale;
          Alcotest.test_case "accountant" `Quick test_accountant;
          Alcotest.test_case "refuses NaN" `Quick test_composition_refuses_nan;
        ]
        @ composition_props );
    ]
