(* Unit and property tests for the dm_market core library. *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Ellipsoid = Dm_market.Ellipsoid
module Model = Dm_market.Model
module Mechanism = Dm_market.Mechanism
module Regret = Dm_market.Regret
module Feature = Dm_market.Feature
module Broker = Dm_market.Broker
module Adversary = Dm_market.Adversary
module Dp = Dm_privacy.Dp
module Comp = Dm_privacy.Compensation

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

let bits = Int64.bits_of_float

(* Bit-for-bit equality of float arrays, as a plain loop: a closure or
   a call per element would box both floats, which dominates comparing
   two n = 1024 shapes after every cut.  Equal nonzero floats have
   equal bits, zeros are told apart by the sign of 1/x, and only NaNs
   fall back to the bit patterns. *)
let floats_eq (a : float array) b =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while
    !i < Array.length a
    &&
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !i in
    if x = y then x <> 0. || 1. /. x = 1. /. y else bits x = bits y
  do
    incr i
  done;
  !i = Array.length a

(* ------------------------------------------------------------------ *)
(* Ellipsoid: construction and bounds                                  *)
(* ------------------------------------------------------------------ *)

let test_ball () =
  let e = Ellipsoid.ball ~dim:3 ~radius:2. in
  check_int "dim" 3 (Ellipsoid.dim e);
  let b = Ellipsoid.bounds e ~x:(Vec.basis 3 0) in
  check_float "lower" (-2.) b.Ellipsoid.lower;
  check_float "upper" 2. b.Ellipsoid.upper;
  check_float "mid" 0. b.Ellipsoid.mid;
  check_float "width" 4. (Ellipsoid.width e ~x:(Vec.basis 3 0))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_ball_refuses_nan () =
  check_bool "nan radius" true
    (raises_invalid (fun () -> Ellipsoid.ball ~dim:2 ~radius:nan))

let test_make_refuses_non_finite () =
  let shape ~d ~a ~b = Mat.of_arrays [| [| d; a |]; [| b; 1. |] |] in
  let make ?(center = Vec.zeros 2) shape () = Ellipsoid.make ~center ~shape in
  check_bool "nan diagonal" true
    (raises_invalid (make (shape ~d:nan ~a:0.5 ~b:0.5)));
  check_bool "nan off-diagonal pair" true
    (raises_invalid (make (shape ~d:1. ~a:nan ~b:nan)));
  check_bool "infinite off-diagonal pair" true
    (raises_invalid (make (shape ~d:1. ~a:infinity ~b:infinity)));
  check_bool "nan center" true
    (raises_invalid (make ~center:[| nan; 0. |] (Mat.identity 2)));
  check_bool "finite input accepted" false
    (raises_invalid (make (shape ~d:2. ~a:0.5 ~b:0.5)))

let test_of_box_refuses_nan () =
  (* A NaN bound fails here, with [of_box]'s message, not downstream
     in [ball]. *)
  Alcotest.check_raises "NaN lower bound"
    (Invalid_argument "Ellipsoid.of_box: empty box or NaN bound") (fun () ->
      ignore (Ellipsoid.of_box ~lo:[| -1.; nan |] ~hi:[| 2.; 1. |]));
  Alcotest.check_raises "NaN upper bound"
    (Invalid_argument "Ellipsoid.of_box: empty box or NaN bound") (fun () ->
      ignore (Ellipsoid.of_box ~lo:[| -1.; -3. |] ~hi:[| nan; 1. |]));
  Alcotest.check_raises "degenerate box"
    (Invalid_argument "Ellipsoid.of_box: degenerate box") (fun () ->
      ignore (Ellipsoid.of_box ~lo:[| 0.; -0. |] ~hi:[| 0.; 0. |]))

let test_of_box () =
  (* K₁ = [−1,2] × [−3,1] → R = √(4 + 9) = √13. *)
  let e = Ellipsoid.of_box ~lo:[| -1.; -3. |] ~hi:[| 2.; 1. |] in
  check_float "radius via width" (2. *. sqrt 13.)
    (Ellipsoid.width e ~x:(Vec.basis 2 0));
  check_bool "contains the box corners" true
    (Ellipsoid.contains e [| 2.; 1. |] && Ellipsoid.contains e [| -1.; -3. |])

let test_bounds_direction () =
  let e = Ellipsoid.ball ~dim:2 ~radius:1. in
  (* Along (3,4)/5 scaled by 5: width = 2·‖x‖·R = 10. *)
  let b = Ellipsoid.bounds e ~x:[| 3.; 4. |] in
  check_float "half width = ‖x‖R" 5. b.Ellipsoid.half_width

let test_contains () =
  let e = Ellipsoid.ball ~dim:2 ~radius:1. in
  check_bool "center" true (Ellipsoid.contains e [| 0.; 0. |]);
  check_bool "boundary" true (Ellipsoid.contains e [| 1.; 0. |]);
  check_bool "outside" false (Ellipsoid.contains e [| 1.1; 0. |])

(* ------------------------------------------------------------------ *)
(* Ellipsoid: cuts                                                     *)
(* ------------------------------------------------------------------ *)

let test_central_cut_closed_form () =
  (* Central cut of the unit ball along e₁ keeps {θ₁ ≤ 0}; the GLS
     Löwner–John ellipsoid has center −e₁/(n+1) and axis widths
     n/(n+1) along e₁, n/√(n²−1) elsewhere. *)
  let n = 3 in
  let e = Ellipsoid.ball ~dim:n ~radius:1. in
  let x = Vec.basis n 0 in
  match Ellipsoid.cut_below e ~x ~price:0. with
  | Ellipsoid.Cut e' ->
      let nf = float_of_int n in
      check_float_loose "center shifts to −1/(n+1)"
        (-1. /. (nf +. 1.))
        (Vec.get e'.Ellipsoid.center 0);
      let b = Ellipsoid.bounds e' ~x in
      check_float_loose "half width along cut = n/(n+1)" (nf /. (nf +. 1.))
        b.Ellipsoid.half_width;
      let b2 = Ellipsoid.bounds e' ~x:(Vec.basis n 1) in
      check_float_loose "half width across cut = n/√(n²−1)"
        (nf /. sqrt ((nf *. nf) -. 1.))
        b2.Ellipsoid.half_width
  | _ -> Alcotest.fail "central cut must produce an ellipsoid"

let test_cut_shallow_noop () =
  let e = Ellipsoid.ball ~dim:3 ~radius:1. in
  let x = Vec.basis 3 0 in
  (* A cut keeping almost everything (price close to the max) has
     α ≤ −1/n and cannot shrink the Löwner–John ellipsoid. *)
  check_bool "too shallow" true
    (match Ellipsoid.cut_below e ~x ~price:0.99 with
    | Ellipsoid.Too_shallow -> true
    | _ -> false)

let test_cut_empty () =
  let e = Ellipsoid.ball ~dim:3 ~radius:1. in
  let x = Vec.basis 3 0 in
  check_bool "empty below" true
    (match Ellipsoid.cut_below e ~x ~price:(-1.5) with
    | Ellipsoid.Empty -> true
    | _ -> false);
  check_bool "apply keeps old on empty" true
    (Ellipsoid.apply e (Ellipsoid.cut_below e ~x ~price:(-1.5)) == e)

let test_cut_above_is_reflection () =
  let e = Ellipsoid.ball ~dim:2 ~radius:2. in
  let x = [| 0.6; -0.8 |] in
  let price = 0.4 in
  let above = Ellipsoid.cut_above e ~x ~price in
  let below_reflected = Ellipsoid.cut_below e ~x:(Vec.neg x) ~price:(-.price) in
  match (above, below_reflected) with
  | Ellipsoid.Cut a, Ellipsoid.Cut b ->
      check_bool "same center" true
        (Vec.approx_equal a.Ellipsoid.center b.Ellipsoid.center);
      check_bool "same shape" true
        (Mat.approx_equal a.Ellipsoid.shape b.Ellipsoid.shape)
  | _ -> Alcotest.fail "both cuts must succeed"

let test_cut_one_dimensional () =
  (* n = 1 must behave as exact interval bisection. *)
  let e = Ellipsoid.ball ~dim:1 ~radius:2. in
  let x = [| 1. |] in
  match Ellipsoid.cut_below e ~x ~price:0. with
  | Ellipsoid.Cut e' ->
      (* Kept interval [−2, 0]: center −1, half width 1. *)
      check_float_loose "center" (-1.) (Vec.get e'.Ellipsoid.center 0);
      let b = Ellipsoid.bounds e' ~x in
      check_float_loose "half width" 1. b.Ellipsoid.half_width;
      check_float_loose "lower endpoint preserved" (-2.) b.Ellipsoid.lower
  | _ -> Alcotest.fail "1-d cut must succeed"

let test_cut_one_dimensional_deep () =
  let e = Ellipsoid.ball ~dim:1 ~radius:2. in
  let x = [| 1. |] in
  (* Keep [−2, −1]: α = 0.5 (deep). *)
  match Ellipsoid.cut_below e ~x ~price:(-1.) with
  | Ellipsoid.Cut e' ->
      check_float_loose "center" (-1.5) (Vec.get e'.Ellipsoid.center 0);
      check_float_loose "half width" 0.5 (Ellipsoid.bounds e' ~x).Ellipsoid.half_width
  | _ -> Alcotest.fail "deep 1-d cut must succeed"

let test_lemma2_volume_ratio () =
  (* Lemma 2: V(E')/V(E) ≤ exp(−(1+nα)²/(5n)) for α ∈ [−1/n, 0]. *)
  let n = 4 in
  let e = Ellipsoid.ball ~dim:n ~radius:1. in
  let x = Vec.normalize [| 1.; 2.; -1.; 0.5 |] in
  List.iter
    (fun alpha ->
      let price = -.alpha (* mid = 0, half width = 1 ⇒ α = −price *) in
      match Ellipsoid.cut_below e ~x ~price with
      | Ellipsoid.Cut e' ->
          let log_ratio =
            Ellipsoid.log_volume_factor e' -. Ellipsoid.log_volume_factor e
          in
          let nf = float_of_int n in
          let bound = -.(((1. +. (nf *. alpha)) ** 2.) /. (5. *. nf)) in
          check_bool
            (Printf.sprintf "volume ratio bound at alpha=%.3f" alpha)
            true (log_ratio <= bound +. 1e-9)
      | _ -> Alcotest.fail "cut must succeed")
    [ -0.24; -0.1; 0.; 0.2; 0.5 ]

let spd_dir_gen =
  QCheck.(
    make
      ~print:Print.(pair (array float) float)
      Gen.(
        pair
          (array_size (return 4) (float_range (-1.) 1.))
          (float_range (-0.9) 0.9)))

(* A random non-degenerate ellipsoid: SPD shape M·Mᵀ + I/2, random
   center — exercises the cut formulas away from the ball special
   case. *)
let random_ellipsoid seed ~dim =
  let rng = Rng.create seed in
  let m = Mat.init dim dim (fun _ _ -> Dist.normal rng ~mean:0. ~std:1.) in
  let shape = Mat.matmul m (Mat.transpose m) in
  for i = 0 to dim - 1 do
    Mat.set shape i i (Mat.get shape i i +. 0.5)
  done;
  let center = Dist.normal_vec rng ~dim in
  Ellipsoid.make ~center ~shape

(* Drive a chain of random accepted cuts through [e], returning the
   final ellipsoid and the worst observed gap between the incremental
   log-volume cache and a fresh ½·log det recomputation. *)
let cut_chain ~seed ~cuts e0 =
  let rng = Rng.create seed in
  let dim = Ellipsoid.dim e0 in
  let e = ref e0 and worst = ref 0. in
  for t = 1 to cuts do
    let x = Dist.normal_vec rng ~dim in
    if Vec.norm2 x > 0.1 then begin
      let b = Ellipsoid.bounds !e ~x in
      let alpha = -0.2 +. (Rng.float rng *. 0.9) in
      let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
      let result =
        if t mod 3 = 0 then Ellipsoid.cut_above !e ~x ~price
        else Ellipsoid.cut_below !e ~x ~price
      in
      match result with
      | Ellipsoid.Cut e' ->
          e := e';
          ignore (Ellipsoid.log_volume_factor e');
          worst := Float.max !worst (Ellipsoid.volume_drift e')
      | Ellipsoid.Too_shallow | Ellipsoid.Empty -> ()
    end
  done;
  (!e, !worst)

let test_volume_resync_boundary () =
  (* A fresh ball has an exact closed-form log-volume factor. *)
  let e0 = Ellipsoid.ball ~dim:8 ~radius:4. in
  check_float "ball closed form" (8. *. log 4.) (Ellipsoid.log_volume_factor e0);
  check_float "ball drift" 0. (Ellipsoid.volume_drift e0);
  (* 1,200 accepted-or-rejected cuts cross the 1,000-cut resync
     boundary; the cache must agree with Cholesky on both sides. *)
  let e, worst = cut_chain ~seed:5 ~cuts:1_200 e0 in
  check_bool "drift across resync ≤ 1e-9" true (worst <= 1e-9);
  check_bool "final drift ≤ 1e-9" true (Ellipsoid.volume_drift e <= 1e-9)

let test_cut_into_buffer () =
  let e = random_ellipsoid 17 ~dim:5 in
  let rng = Rng.create 18 in
  let x = Dist.normal_vec rng ~dim:5 in
  let price = (Ellipsoid.bounds e ~x).Ellipsoid.mid in
  let into = Mat.zeros 5 5 in
  match (Ellipsoid.cut_below e ~x ~price, Ellipsoid.cut_below ~into e ~x ~price) with
  | Ellipsoid.Cut fresh, Ellipsoid.Cut reused ->
      check_bool "into receives the result" true
        (reused.Ellipsoid.shape == into);
      let same = ref true in
      for i = 0 to 4 do
        for j = 0 to 4 do
          if
            not
              (Int64.equal
                 (Int64.bits_of_float (Mat.get fresh.Ellipsoid.shape i j))
                 (Int64.bits_of_float (Mat.get reused.Ellipsoid.shape i j)))
          then same := false
        done
      done;
      check_bool "buffered cut bit-identical" true !same;
      check_float "same log volume"
        (Ellipsoid.log_volume_factor fresh)
        (Ellipsoid.log_volume_factor reused)
  | _ -> Alcotest.fail "both cuts must succeed"

let volume_cache_props =
  [
    (* 50 sequences × 20 cuts = 10³ random cuts checked against the
       O(n³) reference. *)
    prop "incremental log-volume matches Cholesky within 1e-9" 50
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let dim = 1 + (seed mod 6) in
        let e0 =
          if seed mod 2 = 0 then Ellipsoid.ball ~dim ~radius:2.
          else random_ellipsoid seed ~dim
        in
        let _, worst = cut_chain ~seed:(seed + 1) ~cuts:20 e0 in
        worst <= 1e-9);
  ]

let general_ellipsoid_props =
  [
    prop "general cuts keep the kept halfspace" 100
      QCheck.(pair (int_range 1 500) (float_range (-0.3) 0.8))
      (fun (seed, alpha) ->
        let dim = 5 in
        let e = random_ellipsoid seed ~dim in
        let rng = Rng.create (seed + 1) in
        let x = Dist.normal_vec rng ~dim in
        QCheck.assume (Vec.norm2 x > 0.1);
        let b = Ellipsoid.bounds e ~x in
        let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
        match Ellipsoid.cut_below e ~x ~price with
        | Ellipsoid.Cut e' ->
            let ok = ref true in
            for _ = 1 to 40 do
              (* Rejection sampling inside the original ellipsoid. *)
              let p =
                Vec.add e.Ellipsoid.center
                  (Vec.scale (Rng.float rng *. 3.) (Dist.normal_vec rng ~dim))
              in
              if Ellipsoid.contains e p && Vec.dot x p <= price then
                if not (Ellipsoid.contains ~slack:1e-6 e' p) then ok := false
            done;
            !ok
        | Ellipsoid.Too_shallow -> alpha <= 1. /. float_of_int dim +. 1e-9
        | Ellipsoid.Empty -> alpha >= 1. -. 1e-9);
    prop "general cut volume never increases" 100
      QCheck.(pair (int_range 1 500) (float_range (-0.15) 0.8))
      (fun (seed, alpha) ->
        let dim = 5 in
        let e = random_ellipsoid seed ~dim in
        let rng = Rng.create (seed + 2) in
        let x = Dist.normal_vec rng ~dim in
        QCheck.assume (Vec.norm2 x > 0.1);
        let b = Ellipsoid.bounds e ~x in
        let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
        match Ellipsoid.cut_below e ~x ~price with
        | Ellipsoid.Cut e' ->
            Ellipsoid.log_volume_factor e'
            <= Ellipsoid.log_volume_factor e +. 1e-9
        | Ellipsoid.Too_shallow | Ellipsoid.Empty -> true);
    prop "bounds bracket every member point" 100 QCheck.(int_range 1 500)
      (fun seed ->
        let dim = 4 in
        let e = random_ellipsoid seed ~dim in
        let rng = Rng.create (seed + 3) in
        let x = Dist.normal_vec rng ~dim in
        QCheck.assume (Vec.norm2 x > 0.1);
        let b = Ellipsoid.bounds e ~x in
        let ok = ref true in
        for _ = 1 to 60 do
          let p =
            Vec.add e.Ellipsoid.center
              (Vec.scale (Rng.float rng *. 3.) (Dist.normal_vec rng ~dim))
          in
          if Ellipsoid.contains e p then begin
            let z = Vec.dot x p in
            if z < b.Ellipsoid.lower -. 1e-6 || z > b.Ellipsoid.upper +. 1e-6
            then ok := false
          end
        done;
        !ok);
  ]

let ellipsoid_props =
  general_ellipsoid_props
  @ [
    prop "membership agrees with the explicit-inverse definition" 100
      QCheck.(int_range 1 500)
      (fun seed ->
        (* Definition 1 via an independent code path: LU-inverted
           quadratic form vs the Cholesky-solve in contains. *)
        let dim = 4 in
        let e = random_ellipsoid seed ~dim in
        let inv = Dm_linalg.Lu.inverse e.Ellipsoid.shape in
        let rng = Rng.create (seed + 9) in
        let ok = ref true in
        for _ = 1 to 50 do
          let p =
            Vec.add e.Ellipsoid.center
              (Vec.scale (Rng.float rng *. 4.) (Dist.normal_vec rng ~dim))
          in
          let d = Vec.sub p e.Ellipsoid.center in
          let q = Mat.quad inv d in
          (* Skip near-boundary points where the two code paths may
             legitimately disagree by rounding. *)
          if abs_float (q -. 1.) > 1e-6 then
            if Ellipsoid.contains e p <> (q <= 1.) then ok := false
        done;
        !ok);
    prop "cuts preserve points in the kept halfspace" 300 spd_dir_gen
      (fun (x, alpha) ->
        QCheck.assume (Vec.norm2 x > 0.1);
        let e = Ellipsoid.ball ~dim:4 ~radius:2. in
        let b = Ellipsoid.bounds e ~x in
        let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
        match Ellipsoid.cut_below e ~x ~price with
        | Ellipsoid.Cut e' ->
            (* Any point of the original ellipsoid with xᵀθ ≤ price must
               stay inside the Löwner–John ellipsoid: sample a few. *)
            let rng = Rng.create 99 in
            let ok = ref true in
            for _ = 1 to 50 do
              let p = Dist.on_sphere rng ~dim:4 ~radius:(Rng.float rng *. 2.) in
              if Ellipsoid.contains e p && Vec.dot x p <= price then
                if not (Ellipsoid.contains ~slack:1e-6 e' p) then ok := false
            done;
            !ok
        | Ellipsoid.Too_shallow -> alpha <= 1. /. 4. +. 1e-9
        | Ellipsoid.Empty -> false);
    prop "cut volume never increases" 200 spd_dir_gen (fun (x, alpha) ->
        QCheck.assume (Vec.norm2 x > 0.1);
        let e = Ellipsoid.ball ~dim:4 ~radius:2. in
        let b = Ellipsoid.bounds e ~x in
        let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
        match Ellipsoid.cut_below e ~x ~price with
        | Ellipsoid.Cut e' ->
            Ellipsoid.log_volume_factor e' <= Ellipsoid.log_volume_factor e +. 1e-9
        | Ellipsoid.Too_shallow | Ellipsoid.Empty -> true);
    prop "cut shapes stay symmetric positive definite" 200 spd_dir_gen
      (fun (x, alpha) ->
        QCheck.assume (Vec.norm2 x > 0.1);
        let e = Ellipsoid.ball ~dim:4 ~radius:2. in
        let b = Ellipsoid.bounds e ~x in
        let price = b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width) in
        match Ellipsoid.cut_below e ~x ~price with
        | Ellipsoid.Cut e' ->
            Mat.is_symmetric ~tol:1e-9 e'.Ellipsoid.shape
            && Dm_linalg.Chol.is_positive_definite e'.Ellipsoid.shape
        | Ellipsoid.Too_shallow | Ellipsoid.Empty -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_links () =
  let check_roundtrip link z =
    let y = link.Model.g z in
    check_bool
      (Printf.sprintf "%s roundtrip at %.2f" link.Model.name z)
      true
      (abs_float (link.Model.g_inv y -. z) < 1e-9)
  in
  List.iter (check_roundtrip Model.identity_link) [ -3.; 0.; 2.5 ];
  List.iter (check_roundtrip Model.exp_link) [ -3.; 0.; 2.5 ];
  List.iter (check_roundtrip Model.sigmoid_link) [ -3.; 0.; 2.5 ];
  check_bool "exp g_inv of 0 is −inf" true
    (Model.exp_link.Model.g_inv 0. = neg_infinity);
  check_bool "sigmoid g_inv clamps" true
    (Model.sigmoid_link.Model.g_inv 1.5 = infinity)

let test_model_values () =
  let theta = [| 1.; -2. |] in
  let x = [| 3.; 1. |] in
  check_float "linear" 1. (Model.value (Model.linear ~theta) x);
  check_float "log-linear" (exp 1.) (Model.value (Model.log_linear ~theta) x);
  check_float "logistic" (1. /. (1. +. exp (-1.)))
    (Model.value (Model.logistic ~theta) x);
  (* log-log: log v = θ₁·log x₁ + θ₂·log x₂ *)
  check_float "log-log" (exp (log 3. -. (2. *. log 1.)))
    (Model.value (Model.log_log ~theta) x);
  check_float "linear with noise" 1.5
    (Model.value ~noise:0.5 (Model.linear ~theta) x)

let test_log_log_guard () =
  let m = Model.log_log ~theta:[| 1. |] in
  check_bool "rejects non-positive features" true
    (match Model.value m [| 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_log_log_refuses_nan () =
  let m = Model.log_log ~theta:[| 1.; 1. |] in
  Alcotest.check_raises "NaN feature"
    (Invalid_argument "Model.log_log: non-positive or NaN feature")
    (fun () -> ignore (Model.value m [| 2.; nan |]))

let test_kernelized_model () =
  let landmarks = [| [| 0.; 0. |]; [| 1.; 0. |] |] in
  let map = Dm_ml.Kernel.landmark_map (Dm_ml.Kernel.Rbf { gamma = 1. }) ~landmarks in
  let m = Model.kernelized ~map ~theta:[| 1.; 1. |] in
  check_int "index dim = landmarks" 2 (Model.index_dim m);
  check_float "value at landmark" (1. +. exp (-1.)) (Model.value m [| 0.; 0. |]);
  check_bool "wrong theta size rejected" true
    (match Model.kernelized ~map ~theta:[| 1. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Regret                                                              *)
(* ------------------------------------------------------------------ *)

let test_regret_cases () =
  (* Reserve above value: no regret regardless of the price. *)
  check_float "q > v" 0.
    (Regret.posted ~reserve:5. ~market_value:4. ~price:10. ());
  (* Sale: regret is the money left on the table. *)
  check_float "underpriced sale" 1.
    (Regret.posted ~reserve:1. ~market_value:4. ~price:3. ());
  (* No sale with a sellable query: full value lost. *)
  check_float "overpriced" 4.
    (Regret.posted ~reserve:1. ~market_value:4. ~price:4.5 ());
  (* Eq. 7 (no reserve). *)
  check_float "pure version regret" 1.
    (Regret.posted ~market_value:4. ~price:3. ());
  check_float "skip with q > v" 0. (Regret.skipped ~reserve:5. ~market_value:4.);
  check_float "skip with q <= v" 4. (Regret.skipped ~reserve:2. ~market_value:4.);
  check_float "revenue on sale" 3. (Regret.revenue ~market_value:4. ~price:3.);
  check_float "revenue on no sale" 0. (Regret.revenue ~market_value:4. ~price:5.)

let test_fig1_shape () =
  (* Fig. 1: regret falls linearly to 0 as the price rises to the
     market value, then jumps to the full value. *)
  let prices = Vec.init 101 (fun i -> float_of_int i /. 10.) in
  let curve = Regret.single_round_curve ~reserve:2. ~market_value:6. ~prices in
  check_float "at price 2 (reserve)" 4. curve.(20);
  check_float "at the market value" 0. curve.(60);
  check_float "just above jumps to v" 6. curve.(61);
  check_float "far above still v" 6. curve.(100)

let regret_props =
  [
    prop "lemma 1: reserve never increases single-round regret" 500
      QCheck.(triple (float_range 0. 10.) (float_range 0. 10.) (float_range 0. 10.))
      (fun (q, v, p') ->
        (* Posted price with reserve is max(q, p'); Lemma 1 compares the
           two regret notions on the same underlying price p'. *)
        let with_reserve =
          Regret.posted ~reserve:q ~market_value:v ~price:(Float.max q p') ()
        in
        let without = Regret.posted ~market_value:v ~price:p' () in
        with_reserve <= without +. 1e-12);
    prop "regret is non-negative" 300
      QCheck.(triple (float_range 0. 10.) (float_range 0. 10.) (float_range 0. 10.))
      (fun (q, v, p) ->
        Regret.posted ~reserve:q ~market_value:v ~price:p () >= 0.
        && Regret.posted ~market_value:v ~price:p () >= 0.);
  ]

(* ------------------------------------------------------------------ *)
(* Feature                                                             *)
(* ------------------------------------------------------------------ *)

let test_aggregate () =
  let comps = [| 5.; 1.; 3.; 2.; 4.; 6. |] in
  (* Sorted: 1 2 3 4 5 6; 3 partitions of 2: (3, 7, 11). *)
  let f = Feature.aggregate ~dim:3 comps in
  check_bool "partition sums" true (Vec.approx_equal f [| 3.; 7.; 11. |]);
  (* dim 1 is the total compensation. *)
  check_bool "total" true
    (Vec.approx_equal (Feature.aggregate ~dim:1 comps) [| 21. |]);
  (* dim = m keeps the sorted individual compensations. *)
  check_bool "identity" true
    (Vec.approx_equal (Feature.aggregate ~dim:6 comps) [| 1.; 2.; 3.; 4.; 5.; 6. |])

let test_aggregate_uneven () =
  let comps = [| 1.; 2.; 3.; 4.; 5. |] in
  let f = Feature.aggregate ~dim:2 comps in
  (* Boundaries at ⌊k·5/2⌋: [0,2) and [2,5) → sums 3 and 12. *)
  check_bool "uneven split" true (Vec.approx_equal f [| 3.; 12. |]);
  check_float "mass preserved" (Vec.sum comps) (Vec.sum f)

let test_of_compensations () =
  let comps = [| 2.; 2.; 2.; 2. |] in
  let x, reserve = Feature.of_compensations ~dim:2 comps in
  check_float "unit norm" 1. (Vec.norm2 x);
  check_float "reserve = Σ features" (Vec.sum x) reserve;
  (* All-equal compensations: features (4,4) → normalized (1/√2,1/√2). *)
  check_bool "values" true (Vec.approx_equal x [| 1. /. sqrt 2.; 1. /. sqrt 2. |]);
  (* [unit_normalize] gives the same bits in a fresh vector, the zero
     vector included. *)
  let agg = Feature.aggregate ~dim:2 comps in
  let u = Feature.unit_normalize agg in
  check_bool "unit_normalize bits" true (floats_eq u x);
  check_bool "unit_normalize leaves its input" true (floats_eq agg [| 4.; 4. |]);
  let zero = Vec.zeros 3 in
  check_bool "zero vector copied" true (Feature.unit_normalize zero != zero)

let test_aggregate_rejects_nan () =
  Alcotest.check_raises "NaN compensation"
    (Invalid_argument "Feature.aggregate: negative or NaN compensation")
    (fun () -> ignore (Feature.aggregate ~dim:1 [| 1.; nan; 2. |]))

(* The closure-based feature map φ that the loops in [Dp.leakage],
   [Compensation.per_owner], [Feature.aggregate] and [Vec.sorted]
   replaced, kept as the reference they must match bit for bit. *)
module Reference_phi = struct
  let leakage (q : Dp.query) ~data_ranges =
    Vec.map2
      (fun w range ->
        if range < 0. then invalid_arg "Dp.leakage: negative data range";
        abs_float w *. range /. q.Dp.noise_scale)
      q.Dp.weights data_ranges

  let amount c eps =
    if eps < 0. then invalid_arg "Compensation.amount: negative leakage";
    match c with
    | Comp.Linear { rate } -> rate *. eps
    | Comp.Tanh { cap; steepness } -> cap *. tanh (steepness *. eps)

  let per_owner ~contracts ~leakages =
    Vec.init (Vec.dim leakages) (fun i -> amount contracts.(i) leakages.(i))

  let aggregate ~dim comps =
    let m = Vec.dim comps in
    if dim < 1 || dim > m then
      invalid_arg "Feature.aggregate: dim must be within [1, owner count]";
    Array.iter
      (fun c ->
        if c < 0. then invalid_arg "Feature.aggregate: negative compensation")
      comps;
    let sorted = Array.copy comps in
    Array.sort Float.compare sorted;
    let out = Vec.zeros dim in
    for k = 0 to dim - 1 do
      let start = k * m / dim in
      let stop = (k + 1) * m / dim in
      let acc = ref 0. in
      for i = start to stop - 1 do
        acc := !acc +. sorted.(i)
      done;
      out.(k) <- !acc
    done;
    out

  let of_compensations ~dim comps =
    let v = aggregate ~dim comps in
    let n = Vec.norm2 v in
    let features = if n <= 0. then v else Vec.scale (1. /. n) v in
    (features, Vec.sum features)
end

(* The monomorphic merge sort that [Vec.sorted] was before its radix
   sort, kept verbatim as the reference it must match bit for bit. *)
module Reference_sort = struct
  type t = float array

  (* [sorted] insertion-sorts runs of this length, then merges them
     bottom-up, so it is O(n log n) in the worst case. *)
  let sort_run = 32

  let imin (a : int) b = if a < b then a else b

  let insertion_sort (a : t) lo hi =
    for i = lo + 1 to hi - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && x < Array.unsafe_get a !j do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done

  (* Merges the sorted [src.[lo, mid)] and [src.[mid, hi)] into
     [dst.[lo, hi)], taking from the left on ties. *)
  let merge (src : t) (dst : t) lo mid hi =
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if
        !i < mid
        && (!j >= hi
           || not (Array.unsafe_get src !j < Array.unsafe_get src !i))
      then begin
        Array.unsafe_set dst k (Array.unsafe_get src !i);
        incr i
      end
      else begin
        Array.unsafe_set dst k (Array.unsafe_get src !j);
        incr j
      end
    done

  (* Polymorphic [Array.sort Float.compare] boxes both operands of every
     comparison; this sort compares with the unboxed [<].  NaNs, which
     [<] cannot order, go first as [Float.compare] puts them. *)
  let sorted (v : t) =
    let n = Array.length v in
    let nans = ref 0 in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get v i in
      if Float.is_nan x then incr nans
    done;
    let lo = !nans in
    let passes = ref 0 and width = ref sort_run in
    while !width < n - lo do
      incr passes;
      width := 2 * !width
    done;
    (* The merge passes ping-pong between [out] and [buf]; their parity
       picks where the runs start, so the last pass lands in [out]. *)
    let out = Array.create_float n in
    let buf = if !passes = 0 then out else Array.create_float n in
    let src = ref (if !passes land 1 = 0 then out else buf) in
    let dst = ref (if !passes land 1 = 0 then buf else out) in
    let nan_pos = ref 0 and pos = ref lo in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get v i in
      if Float.is_nan x then begin
        Array.unsafe_set out !nan_pos x;
        incr nan_pos
      end
      else begin
        Array.unsafe_set !src !pos x;
        incr pos
      end
    done;
    let start = ref lo in
    while !start < n do
      let stop = imin n (!start + sort_run) in
      insertion_sort !src !start stop;
      start := stop
    done;
    width := sort_run;
    for _ = 1 to !passes do
      let s = !src and d = !dst in
      start := lo;
      while !start < n do
        let mid = imin n (!start + !width) in
        let stop = imin n (!start + (2 * !width)) in
        merge s d !start mid stop;
        start := stop
      done;
      src := d;
      dst := s;
      width := 2 * !width
    done;
    out
end

(* φ's minor words per call at m = 500 owners and n = 100 features,
   over 64 seeded queries after one warm-up pass.  Arrays longer than
   256 words go to the major heap, so the count is what φ allocates in
   small blocks: the 100 aggregated features, the boxed norm and
   reserve, and the result pair. *)
let phi_minor_words_bound = 110.

let test_phi_allocation () =
  let m = 500 and dim = 100 and calls = 64 in
  let rng = Rng.create 2026 in
  let contracts =
    Array.init m (fun i ->
        if i mod 3 = 0 then Comp.linear ~rate:(Rng.uniform rng 0. 2.)
        else
          Comp.tanh_contract ~cap:(Rng.uniform rng 0. 3.)
            ~steepness:(Rng.uniform rng 0. 4.))
  in
  let data_ranges = Array.init m (fun _ -> Rng.uniform rng 0. 4.) in
  let queries =
    Array.init calls (fun _ ->
        Dp.make_query
          ~weights:(Array.init m (fun _ -> Rng.uniform rng (-1.) 1.))
          ~noise_scale:(Rng.uniform rng 0.1 10.))
  in
  let phi q =
    let leakages = Dp.leakage q ~data_ranges in
    Feature.of_compensations ~dim (Comp.per_owner ~contracts ~leakages)
  in
  Array.iter (fun q -> ignore (Sys.opaque_identity (phi q))) queries;
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    ignore (Sys.opaque_identity (phi queries.(i)))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  check_bool
    (Printf.sprintf "%.1f minor words per call <= %.0f" per_call
       phi_minor_words_bound)
    true
    (per_call <= phi_minor_words_bound)

(* m owners, dim ∈ [1, m], mixed contracts with zero rates and caps
   (and a −0 rate, which makes −0 compensations), weights and ranges
   with zeros and repeats, noise scales from the paper's variance grid,
   random, or +∞ (every leakage 0). *)
let phi_case_arb =
  let open QCheck.Gen in
  let gen =
    let* m = int_range 1 1100 in
    let* dim = int_range 1 m in
    let* pool = array_repeat 4 (float_range (-2.) 2.) in
    let weight =
      frequency
        [
          (4, float_range (-3.) 3.);
          (1, oneofl [ 0.; -0. ]);
          (2, oneofa pool);
        ]
    in
    let range =
      frequency [ (4, float_range 0. 5.); (1, return 0.); (2, oneofl [ 1.; 4. ]) ]
    in
    let contract =
      frequency
        [
          ( 1,
            map
              (fun rate -> Comp.linear ~rate)
              (oneof [ oneofl [ 0.; -0. ]; float_range 0. 3. ]) );
          ( 3,
            map2
              (fun cap steepness -> Comp.tanh_contract ~cap ~steepness)
              (oneof [ return 0.; float_range 0. 3. ])
              (oneof [ return 0.; float_range 0. 4. ]) );
        ]
    in
    let noise_scale =
      oneof
        [
          return infinity;
          map
            (fun k -> Dp.variance_to_scale (10. ** float_of_int k))
            (int_range (-4) 4);
          float_range 1e-3 10.;
        ]
    in
    let* weights = array_repeat m weight in
    let* data_ranges = array_repeat m range in
    let* contracts = array_repeat m contract in
    let+ noise_scale = noise_scale in
    (dim, Dp.make_query ~weights ~noise_scale, data_ranges, contracts)
  in
  QCheck.make gen ~print:(fun (dim, q, _, _) ->
      Printf.sprintf "m = %d, dim = %d, noise scale = %h"
        (Vec.dim q.Dp.weights) dim q.Dp.noise_scale)

(* Lengths on both sides of each power of two up to 1031; 31–33
   straddle [Vec.sorted]'s insertion threshold (key ranges of at most
   32 are insertion-sorted, longer ones radix-sorted). *)
let sort_lengths =
  [ 0; 1; 2; 500; 1031 ]
  @ List.concat_map
      (fun w -> [ w - 1; w; w + 1 ])
      [ 32; 64; 128; 256; 512; 1024 ]

let sort_case_arb =
  let open QCheck.Gen in
  let gen =
    let* n = oneof [ oneofl sort_lengths; int_range 0 1100 ] in
    let finite =
      frequency [ (3, float_range (-100.) 100.); (1, oneofl [ -1.; 1.; 2.5 ]) ]
    in
    let* value =
      oneofl
        [
          finite;
          frequency
            [
              (6, finite);
              (1, oneofl [ nan; 0.; -0.; infinity; neg_infinity ]);
            ];
        ]
    in
    let* v = array_repeat n value in
    let+ shape = oneofl [ `Random; `Sorted; `Reversed; `Equal ] in
    let sorted () =
      let w = Array.copy v in
      Array.sort Float.compare w;
      w
    in
    match shape with
    | `Random -> v
    | `Sorted -> sorted ()
    | `Reversed ->
        let w = sorted () in
        Array.init n (fun i -> w.(n - 1 - i))
    | `Equal -> if n = 0 then v else Array.make n v.(0)
  in
  QCheck.make gen ~print:QCheck.Print.(array float)

(* Inputs that reach every branch of the radix [Vec.sorted]: negatives
   only, mixed signs, runs of ±0, subnormals, ±∞, NaN payloads of both
   signs among raw bit patterns, and keys that share a random set of
   8-bit digits with one base value, so the shared digits' passes are
   skipped.  When only the low digits (bits 0–30) vary, every key
   agrees on bits 31–62, which at n ≥ 33 sends the run to the low-bit
   radix; [few_highs] lets two bits of the high digits vary too, so
   several such runs form.  Any of these may also come out all-equal or
   reversed. *)
let radix_case_arb =
  let open QCheck.Gen in
  let of_bits = Int64.float_of_bits in
  (* Digits 0–3 cover bits 0–30 (the last one 7 bits wide), digits 4–7
     bits 31–62, as the sort cuts its keys. *)
  let digit_mask d =
    if d < 4 then Int64.shift_left (if d = 3 then 0x7FL else 0xFFL) (8 * d)
    else Int64.shift_left 0xFFL (31 + (8 * (d - 4)))
  in
  let mask_of sel =
    List.fold_left
      (fun m d ->
        if sel land (1 lsl d) <> 0 then Int64.logor m (digit_mask d) else m)
      0L
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let masked ~base ~mask =
    map
      (fun b ->
        of_bits
          (Int64.logor
             (Int64.logand base (Int64.lognot mask))
             (Int64.logand b mask)))
      ui64
  in
  let negative =
    oneof
      [
        map (fun x -> -.x) (float_range 0. 1e3);
        (* Any finite negative: sign set, exponent never all ones. *)
        map
          (fun b ->
            of_bits
              (Int64.logor (Int64.logand b 0x7FEF_FFFF_FFFF_FFFFL) Int64.min_int))
          ui64;
      ]
  in
  let specials =
    oneofl
      [
        0.; -0.; infinity; neg_infinity; nan; -.nan; 0x1p-1074; -0x1p-1074;
        0x1p-1022; max_float; -.max_float;
      ]
  in
  let subnormal =
    map (fun b -> of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64
  in
  let nan_payload =
    map (fun b -> of_bits (Int64.logor b 0x7FF0_0000_0000_0001L)) ui64
  in
  let gen =
    let* n = oneofl [ 0; 1; 2; 31; 32; 33; 500; 1031 ] in
    let* base = map Int64.bits_of_float (float_range (-1e3) 1e3) in
    let* sel = oneof [ int_bound 255; int_bound 15 ] in
    let value =
      [|
        negative;
        frequency [ (6, float_range (-100.) 100.); (1, specials) ];
        frequency [ (4, oneofl [ 0.; -0. ]); (1, float_range (-1.) 1.) ];
        frequency
          [ (3, subnormal); (1, oneofl [ 0.; -0.; 0x1p-1022; -0x1p-1022 ]) ];
        frequency
          [ (2, oneofl [ infinity; neg_infinity ]); (3, float_range (-10.) 10.) ];
        frequency [ (1, nan_payload); (3, map of_bits ui64) ];
        masked ~base ~mask:(mask_of sel);
        (* few_highs *)
        masked ~base
          ~mask:(Int64.logor (Int64.shift_left 3L 31) (mask_of (sel land 15)));
      |]
    in
    let* value = oneofa value in
    let* v = array_repeat n value in
    let+ shape = oneofl [ `Random; `Random; `Reversed; `Equal ] in
    match shape with
    | `Random -> v
    | `Reversed ->
        let w = Reference_sort.sorted v in
        Array.init n (fun i -> w.(n - 1 - i))
    | `Equal -> if n = 0 then v else Array.make n v.(0)
  in
  QCheck.make gen ~print:(fun v ->
      String.concat " "
        (Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (bits x)) v)))

let phi_props =
  [
    prop "phi is bit-identical to the closure-based reference" 200
      phi_case_arb (fun (dim, q, data_ranges, contracts) ->
        let x, reserve =
          let leakages = Dp.leakage q ~data_ranges in
          Feature.of_compensations ~dim (Comp.per_owner ~contracts ~leakages)
        in
        let x', reserve' =
          let leakages = Reference_phi.leakage q ~data_ranges in
          Reference_phi.of_compensations ~dim
            (Reference_phi.per_owner ~contracts ~leakages)
        in
        floats_eq x x' && bits reserve = bits reserve');
    prop "Vec.sorted agrees with Array.sort Float.compare" 500 sort_case_arb
      (fun v ->
        let input = Array.copy v in
        let got = Vec.sorted v in
        let want = Array.copy v in
        Array.sort Float.compare want;
        let plain =
          Array.for_all
            (fun x -> not (Float.is_nan x || (x = 0. && Float.sign_bit x)))
            v
        in
        floats_eq v input
        && Array.length got = Array.length want
        && Array.for_all2 (fun a b -> Float.compare a b = 0) got want
        && ((not plain) || floats_eq got want));
    prop "Vec.sorted is bit-identical to the merge sort it replaced" 500
      radix_case_arb (fun v ->
        let input = Array.copy v in
        let got = Vec.sorted v in
        floats_eq v input && floats_eq got (Reference_sort.sorted v));
  ]

let feature_props =
  [
    prop "aggregation preserves total compensation" 200
      QCheck.(array_of_size (QCheck.Gen.int_range 1 40) (float_range 0. 10.))
      (fun comps ->
        let dim = 1 + (Array.length comps / 3) in
        let f = Feature.aggregate ~dim comps in
        abs_float (Vec.sum f -. Vec.sum comps) < 1e-9);
    prop "aggregated features are sorted increasingly ... per partition sums of sorted data" 200
      QCheck.(array_of_size (QCheck.Gen.int_range 4 40) (float_range 0. 10.))
      (fun comps ->
        (* With equal partition sizes the partition sums of sorted data
           are non-decreasing. *)
        let m = Array.length comps in
        let dim = max 1 (m / 4) in
        if m mod dim = 0 then begin
          let f = Feature.aggregate ~dim comps in
          let ok = ref true in
          for i = 0 to dim - 2 do
            if f.(i) > f.(i + 1) +. 1e-9 then ok := false
          done;
          !ok
        end
        else true);
    prop "normalized features have unit norm" 200
      QCheck.(array_of_size (QCheck.Gen.int_range 1 40) (float_range 0.01 10.))
      (fun comps ->
        let x, _ = Feature.of_compensations ~dim:1 comps in
        abs_float (Vec.norm2 x -. 1.) < 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Mechanism                                                           *)
(* ------------------------------------------------------------------ *)

let mk_mech ?(allow = false) ~variant ~epsilon ~dim ~radius () =
  Mechanism.create
    (Mechanism.config ~allow_conservative_cuts:allow ~variant ~epsilon ())
    (Ellipsoid.ball ~dim ~radius)

let test_variant_names () =
  Alcotest.(check string) "pure" "pure version" (Mechanism.variant_name Mechanism.pure);
  Alcotest.(check string) "reserve" "with reserve price"
    (Mechanism.variant_name Mechanism.with_reserve);
  Alcotest.(check string) "uncertainty" "with uncertainty"
    (Mechanism.variant_name (Mechanism.with_uncertainty ~delta:0.1));
  Alcotest.(check string) "both" "with reserve price and uncertainty"
    (Mechanism.variant_name (Mechanism.with_reserve_and_uncertainty ~delta:0.1))

let test_mechanism_skip () =
  let m = mk_mech ~variant:Mechanism.with_reserve ~epsilon:0.01 ~dim:2 ~radius:1. () in
  let x = Vec.basis 2 0 in
  (* p̄ = 1; a reserve above it forces a certain no-deal. *)
  check_bool "skip" true
    (match Mechanism.decide m ~x ~reserve:1.5 with
    | Mechanism.Skip -> true
    | _ -> false);
  (* The pure variant never skips. *)
  let p = mk_mech ~variant:Mechanism.pure ~epsilon:0.01 ~dim:2 ~radius:1. () in
  check_bool "pure never skips" true
    (match Mechanism.decide p ~x ~reserve:1.5 with
    | Mechanism.Post _ -> true
    | _ -> false)

let test_mechanism_reserve_floor () =
  let m = mk_mech ~variant:Mechanism.with_reserve ~epsilon:0.01 ~dim:2 ~radius:1. () in
  let x = Vec.basis 2 0 in
  (* mid = 0 < reserve = 0.5 < p̄ = 1: exploratory price is the reserve. *)
  match Mechanism.decide m ~x ~reserve:0.5 with
  | Mechanism.Post { price; kind = Mechanism.Exploratory; _ } ->
      check_float "price = reserve" 0.5 price
  | _ -> Alcotest.fail "expected exploratory post"

let test_mechanism_exploratory_mid () =
  let m = mk_mech ~variant:Mechanism.pure ~epsilon:0.01 ~dim:2 ~radius:1. () in
  let x = Vec.basis 2 0 in
  match Mechanism.decide m ~x ~reserve:neg_infinity with
  | Mechanism.Post { price; kind = Mechanism.Exploratory; lower; upper } ->
      check_float "mid price" ((lower +. upper) /. 2.) price;
      check_float "mid of ball is 0" 0. price
  | _ -> Alcotest.fail "expected exploratory post"

let test_mechanism_conservative_no_cut () =
  (* Once the width is below ε, conservative prices must leave the
     ellipsoid untouched. *)
  let m = mk_mech ~variant:Mechanism.pure ~epsilon:10. ~dim:2 ~radius:1. () in
  let x = Vec.basis 2 0 in
  let before = Mechanism.ellipsoid m in
  let d = Mechanism.decide m ~x ~reserve:neg_infinity in
  (match d with
  | Mechanism.Post { kind = Mechanism.Conservative; price; _ } ->
      check_float "conservative = p̲" (-1.) price
  | _ -> Alcotest.fail "expected conservative (width 2 < ε 10)");
  Mechanism.observe m ~x d ~accepted:true;
  check_bool "unchanged" true (Mechanism.ellipsoid m == before);
  check_int "counted" 1 (Mechanism.conservative_rounds m)

let test_mechanism_exploratory_cut_shrinks () =
  let m = mk_mech ~variant:Mechanism.pure ~epsilon:0.01 ~dim:3 ~radius:2. () in
  let x = Vec.normalize [| 1.; 1.; 0. |] in
  let w0 = Ellipsoid.width (Mechanism.ellipsoid m) ~x in
  let d = Mechanism.decide m ~x ~reserve:neg_infinity in
  Mechanism.observe m ~x d ~accepted:false;
  let w1 = Ellipsoid.width (Mechanism.ellipsoid m) ~x in
  check_bool "width shrinks along the cut" true (w1 < w0);
  check_int "exploratory counted" 1 (Mechanism.exploratory_rounds m)

let test_mechanism_uncertainty_buffer () =
  (* With buffer δ, a rejected exploratory price cuts at p + δ: the
     retained region must include every θ with xᵀθ ≤ p + δ. *)
  let delta = 0.2 in
  let m =
    mk_mech ~variant:(Mechanism.with_uncertainty ~delta) ~epsilon:0.01 ~dim:2
      ~radius:1. ()
  in
  let x = Vec.basis 2 0 in
  let d = Mechanism.decide m ~x ~reserve:neg_infinity in
  (match d with
  | Mechanism.Post { price; _ } -> check_float "mid" 0. price
  | _ -> Alcotest.fail "post expected");
  Mechanism.observe m ~x d ~accepted:false;
  let b = Ellipsoid.bounds (Mechanism.ellipsoid m) ~x in
  (* The new upper bound must not fall below p + δ = 0.2. *)
  check_bool "buffered cut" true (b.Ellipsoid.upper >= delta -. 1e-9)

let test_mechanism_conservative_with_delta () =
  let delta = 0.1 in
  let m =
    mk_mech ~variant:(Mechanism.with_uncertainty ~delta) ~epsilon:10. ~dim:2
      ~radius:1. ()
  in
  let x = Vec.basis 2 0 in
  match Mechanism.decide m ~x ~reserve:neg_infinity with
  | Mechanism.Post { price; kind = Mechanism.Conservative; _ } ->
      check_float "p̲ − δ" (-1.1) price
  | _ -> Alcotest.fail "expected conservative"

let test_mechanism_ellipsoid_escape () =
  (* The mechanism ping-pongs two shape buffers to avoid allocating a
     fresh n×n matrix per cut; an ellipsoid handed out by [ellipsoid]
     must never be overwritten by later steps. *)
  let m = mk_mech ~variant:Mechanism.pure ~epsilon:1e-9 ~dim:4 ~radius:2. () in
  let rng = Rng.create 31 in
  let step () =
    let x = Vec.normalize (Dist.normal_vec rng ~dim:4) in
    let d = Mechanism.decide m ~x ~reserve:neg_infinity in
    Mechanism.observe m ~x d ~accepted:(Rng.bool rng)
  in
  for _ = 1 to 5 do
    step ()
  done;
  let seen = Mechanism.ellipsoid m in
  let snapshot = Mat.copy seen.Ellipsoid.shape in
  let vol = Ellipsoid.log_volume_factor seen in
  for _ = 1 to 20 do
    step ()
  done;
  check_bool "escaped shape untouched" true
    (Mat.approx_equal ~tol:0. snapshot seen.Ellipsoid.shape);
  check_float "escaped volume untouched" vol (Ellipsoid.log_volume_factor seen);
  check_bool "mechanism moved on" true
    (not
       (Mat.approx_equal ~tol:0. snapshot
          (Mechanism.ellipsoid m).Ellipsoid.shape))

let test_te_upper_bound () =
  let b = Mechanism.te_upper_bound ~radius:2. ~feature_bound:1. ~dim:5 ~epsilon:0.1 in
  check_float_loose "formula" (20. *. 25. *. log (20. *. 2. *. 1. *. 6. /. 0.1)) b

let test_te_upper_bound_refuses_nan () =
  let bound ?(radius = 2.) ?(feature_bound = 1.) ?(epsilon = 0.1) () =
    Mechanism.te_upper_bound ~radius ~feature_bound ~dim:5 ~epsilon
  in
  check_bool "nan epsilon" true
    (raises_invalid (fun () -> bound ~epsilon:nan ()));
  check_bool "nan radius" true (raises_invalid (fun () -> bound ~radius:nan ()));
  check_bool "nan feature bound" true
    (raises_invalid (fun () -> bound ~feature_bound:nan ()))

let test_mechanism_rejects_poisoned_input () =
  let m = mk_mech ~variant:Mechanism.with_reserve ~epsilon:0.1 ~dim:2 ~radius:1. () in
  check_bool "nan feature" true
    (match Mechanism.decide m ~x:[| nan; 0. |] ~reserve:0.1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "infinite feature" true
    (match Mechanism.decide m ~x:[| infinity; 0. |] ~reserve:0.1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "nan reserve" true
    (match Mechanism.decide m ~x:[| 1.; 0. |] ~reserve:nan with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Infinite reserves are legitimate sentinels. *)
  check_bool "+inf reserve skips" true
    (match Mechanism.decide m ~x:[| 1.; 0. |] ~reserve:infinity with
    | Mechanism.Skip -> true
    | _ -> false);
  check_bool "-inf reserve prices" true
    (match Mechanism.decide m ~x:[| 1.; 0. |] ~reserve:neg_infinity with
    | Mechanism.Post _ -> true
    | _ -> false)

(* Failure injection: a buyer who answers at random (lying about her
   valuation) must not corrupt the mechanism numerically — the
   knowledge set can become wrong, but it must stay a finite, positive
   definite ellipsoid and prices must stay finite. *)
let test_mechanism_survives_lying_buyer () =
  let dim = 5 in
  let m = mk_mech ~variant:Mechanism.with_reserve ~epsilon:0.01 ~dim ~radius:2. () in
  let rng = Rng.create 71 in
  for _ = 1 to 2000 do
    let x = Vec.normalize (Dist.normal_vec rng ~dim) in
    let d = Mechanism.decide m ~x ~reserve:(Rng.uniform rng (-1.) 1.) in
    (match d with
    | Mechanism.Post { price; _ } ->
        check_bool "finite price" true (Float.is_finite price)
    | Mechanism.Skip -> ());
    Mechanism.observe m ~x d ~accepted:(Rng.bool rng)
  done;
  let e = Mechanism.ellipsoid m in
  check_bool "shape stays finite" true
    (Array.for_all Float.is_finite (Mat.to_arrays e.Ellipsoid.shape |> Array.to_list |> Array.concat));
  check_bool "shape stays positive definite" true
    (Dm_linalg.Chol.is_positive_definite e.Ellipsoid.shape);
  check_bool "center stays finite" true
    (Array.for_all Float.is_finite e.Ellipsoid.center)

(* Containment: the mechanism must never exclude θ* under noiseless
   feedback — the central invariant of the whole construction. *)
let containment_run ~variant ~use_reserve_prices seed =
  let dim = 4 in
  let radius = 2. in
  let rng = Rng.create seed in
  let theta = Dist.on_sphere rng ~dim ~radius:(radius /. 2.) in
  let m = mk_mech ~variant ~epsilon:0.05 ~dim ~radius () in
  let ok = ref true in
  for _ = 1 to 300 do
    let x = Vec.normalize (Dist.normal_vec rng ~dim) in
    let v = Vec.dot x theta in
    let reserve =
      if use_reserve_prices then v *. Rng.uniform rng 0.3 0.9 else neg_infinity
    in
    let d = Mechanism.decide m ~x ~reserve in
    let accepted =
      match d with Mechanism.Skip -> false | Mechanism.Post { price; _ } -> price <= v
    in
    Mechanism.observe m ~x d ~accepted;
    if not (Ellipsoid.contains ~slack:1e-6 (Mechanism.ellipsoid m) theta) then
      ok := false
  done;
  !ok

let mechanism_props =
  [
    prop "theta* containment (pure)" 20 QCheck.(int_range 1 1000) (fun seed ->
        containment_run ~variant:Mechanism.pure ~use_reserve_prices:false seed);
    prop "theta* containment (with reserve)" 20 QCheck.(int_range 1 1000)
      (fun seed ->
        containment_run ~variant:Mechanism.with_reserve
          ~use_reserve_prices:true seed);
    prop "theta* containment (uncertainty, noiseless)" 10
      QCheck.(int_range 1 1000)
      (fun seed ->
        containment_run
          ~variant:(Mechanism.with_uncertainty ~delta:0.05)
          ~use_reserve_prices:false seed);
    prop "reserve variants never post below the reserve" 50
      QCheck.(int_range 1 1000)
      (fun seed ->
        let rng = Rng.create seed in
        let m =
          mk_mech ~variant:Mechanism.with_reserve ~epsilon:0.05 ~dim:3
            ~radius:1. ()
        in
        let ok = ref true in
        for _ = 1 to 50 do
          let x = Vec.normalize (Dist.normal_vec rng ~dim:3) in
          let reserve = Rng.uniform rng (-0.5) 0.5 in
          (match Mechanism.decide m ~x ~reserve with
          | Mechanism.Skip -> ()
          | Mechanism.Post { price; _ } ->
              if price < reserve -. 1e-12 then ok := false);
          let d = Mechanism.decide m ~x ~reserve in
          Mechanism.observe m ~x d ~accepted:(Rng.bool rng)
        done;
        !ok);
    prop "exploratory rounds respect the Lemma 6/7 bound" 5
      QCheck.(int_range 1 100)
      (fun seed ->
        let dim = 3 and radius = 2. and epsilon = 0.05 in
        let rng = Rng.create seed in
        let theta = Dist.on_sphere rng ~dim ~radius:1. in
        let m = mk_mech ~variant:Mechanism.pure ~epsilon ~dim ~radius () in
        for _ = 1 to 2000 do
          let x = Vec.normalize (Dist.normal_vec rng ~dim) in
          ignore (Mechanism.step m ~x ~reserve:neg_infinity ~market_index:(Vec.dot x theta))
        done;
        float_of_int (Mechanism.exploratory_rounds m)
        <= Mechanism.te_upper_bound ~radius ~feature_bound:1. ~dim ~epsilon);
  ]

(* ------------------------------------------------------------------ *)
(* Broker end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

(* App-1-style market: non-negative unit features (aggregated privacy
   compensations are non-negative), non-negative hidden weights scaled
   to ‖θ*‖ = √(2n), reserve = Σᵢ xᵢ — the paper's Section V-A setup,
   under which the market value exceeds the reserve with high
   probability. *)
let positive_unit rng ~dim =
  Vec.normalize (Vec.map abs_float (Dist.normal_vec rng ~dim))

let linear_market ~seed ~dim ~rounds ~variant () =
  let rng = Rng.create seed in
  let theta =
    Vec.scale (sqrt (2. *. float_of_int dim)) (positive_unit rng ~dim)
  in
  let model = Model.linear ~theta in
  let radius = 2. *. sqrt (float_of_int dim) in
  let epsilon = Dm_prob.Subgaussian.default_threshold ~dim ~horizon:rounds in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant ~epsilon ())
      (Ellipsoid.ball ~dim ~radius)
  in
  let workload_rng = Rng.create (seed + 1) in
  let workload _ =
    let x = positive_unit workload_rng ~dim in
    (x, Vec.sum x)
  in
  Broker.run
    ~policy:(Broker.Ellipsoid_pricing mech)
    ~model
    ~noise:(fun _ -> 0.)
    ~workload ~rounds ()

let test_broker_regret_sublinear () =
  let r = linear_market ~seed:5 ~dim:5 ~rounds:3000 ~variant:Mechanism.with_reserve () in
  (* Regret ratio must collapse well below the risk-averse level. *)
  check_bool "low regret ratio" true (r.Broker.regret_ratio < 0.10);
  (* And the tail must be flat: the last 10% of rounds contribute a
     disproportionately small share of the regret. *)
  let s = r.Broker.series in
  let n = Array.length s.Broker.checkpoints in
  let near_end =
    (* cumulative regret at ~90% of the horizon *)
    let idx = ref 0 in
    Array.iteri
      (fun i c -> if c <= 9 * r.Broker.rounds / 10 then idx := i)
      s.Broker.checkpoints;
    s.Broker.cumulative_regret.(!idx)
  in
  let total = s.Broker.cumulative_regret.(n - 1) in
  check_bool "flat tail" true (total -. near_end < 0.25 *. total +. 1e-9)

let test_broker_reserve_beats_pure_early () =
  (* The cold-start claim: with few rounds the reserve variant's
     regret ratio is lower than the pure variant's. *)
  let with_r = linear_market ~seed:8 ~dim:10 ~rounds:150 ~variant:Mechanism.with_reserve () in
  let pure = linear_market ~seed:8 ~dim:10 ~rounds:150 ~variant:Mechanism.pure () in
  check_bool "cold start mitigated" true
    (with_r.Broker.regret_ratio < pure.Broker.regret_ratio)

let test_broker_risk_averse () =
  let dim = 4 in
  let rng = Rng.create 17 in
  let theta =
    Vec.scale (sqrt (2. *. float_of_int dim)) (positive_unit rng ~dim)
  in
  let model = Model.linear ~theta in
  let workload_rng = Rng.create 18 in
  let workload _ =
    let x = positive_unit workload_rng ~dim in
    (x, Vec.sum x)
  in
  let run policy =
    Broker.run ~policy ~model ~noise:(fun _ -> 0.) ~workload ~rounds:2000 ()
  in
  let baseline = run Broker.Risk_averse in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.with_reserve
         ~epsilon:(Dm_prob.Subgaussian.default_threshold ~dim ~horizon:2000)
         ())
      (Ellipsoid.ball ~dim ~radius:(2. *. sqrt (float_of_int dim)))
  in
  let ours = run (Broker.Ellipsoid_pricing mech) in
  check_bool "baseline sells whenever possible" true
    (baseline.Broker.accepted_rounds >= ours.Broker.accepted_rounds);
  check_bool "our ratio beats the baseline" true
    (ours.Broker.regret_ratio < baseline.Broker.regret_ratio)

let test_broker_round_logs () =
  let dim = 2 in
  let theta = [| 1.; 1. |] in
  let model = Model.linear ~theta in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:0.05 ())
      (Ellipsoid.ball ~dim ~radius:2.)
  in
  let workload _ = (Vec.normalize [| 1.; 1. |], 0.5) in
  let r =
    Broker.run ~record_rounds:true
      ~policy:(Broker.Ellipsoid_pricing mech)
      ~model
      ~noise:(fun _ -> 0.)
      ~workload ~rounds:10 ()
  in
  match r.Broker.logs with
  | None -> Alcotest.fail "logs requested"
  | Some logs ->
      check_int "one log per round" 10 (Array.length logs);
      Array.iteri
        (fun i l ->
          check_int "ordered" i l.Broker.index;
          check_bool "regret non-negative" true (l.Broker.regret >= 0.))
        logs

let test_broker_conservation () =
  (* Noiseless accounting identity: in every round with q ≤ v,
     regret + revenue = v (Eq. 1 plus the revenue rule); rounds with
     q > v contribute nothing to either.  So over a run,
     total_regret + total_revenue = Σ_{rounds with q ≤ v} v. *)
  let dim = 6 in
  let rng = Rng.create 41 in
  let theta =
    Vec.scale (sqrt 12.) (positive_unit rng ~dim)
  in
  let model = Model.linear ~theta in
  let wl_rng = Rng.create 42 in
  let rounds = 800 in
  let stream =
    Array.init rounds (fun _ ->
        let x = positive_unit wl_rng ~dim in
        (* Reserves straddle the market value so both regret branches
           occur. *)
        (x, Vec.dot x theta *. Rng.uniform wl_rng 0.7 1.2))
  in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:0.05 ())
      (Ellipsoid.ball ~dim ~radius:(2. *. sqrt 6.))
  in
  let r =
    Broker.run
      ~policy:(Broker.Ellipsoid_pricing mech)
      ~model
      ~noise:(fun _ -> 0.)
      ~workload:(fun t -> stream.(t))
      ~rounds ()
  in
  let sellable =
    Array.fold_left
      (fun acc (x, q) ->
        let v = Vec.dot x theta in
        if q <= v then acc +. v else acc)
      0. stream
  in
  check_bool "regret + revenue = sellable value" true
    (abs_float (r.Broker.total_regret +. r.Broker.total_revenue -. sellable)
    < 1e-6 *. sellable)

let test_broker_checkpoints () =
  let c = Broker.default_checkpoints ~rounds:100_000 in
  check_bool "starts at 1" true (c.(0) = 1);
  check_bool "ends at rounds" true (c.(Array.length c - 1) = 100_000);
  let sorted = Array.copy c in
  Array.sort compare sorted;
  check_bool "strictly increasing" true (sorted = c);
  check_bool "reasonable count" true (Array.length c <= 220);
  (* Horizons shorter than the ≈200-point target get every round. *)
  check_int "rounds=1 default checkpoints" 1
    (Array.length (Broker.default_checkpoints ~rounds:1));
  check_int "rounds=5 default checkpoints" 5
    (Array.length (Broker.default_checkpoints ~rounds:5))

let test_broker_edge_cases () =
  let model = Model.linear ~theta:[| 1. |] in
  let mech () =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:0.1 ())
      (Ellipsoid.ball ~dim:1 ~radius:2.)
  in
  (* A single round works and produces one checkpoint. *)
  let r1 =
    Broker.run
      ~policy:(Broker.Ellipsoid_pricing (mech ()))
      ~model
      ~noise:(fun _ -> 0.)
      ~workload:(fun _ -> ([| 1. |], 0.5))
      ~rounds:1 ()
  in
  check_int "one checkpoint" 1 (Array.length r1.Broker.series.Broker.checkpoints);
  check_int "round counted" 1
    (r1.Broker.exploratory + r1.Broker.conservative + r1.Broker.skipped);
  (* A reserve permanently above the market value: the baseline never
     sells and never regrets (Eq. 1's first branch). *)
  let r2 =
    Broker.run ~policy:Broker.Risk_averse ~model
      ~noise:(fun _ -> 0.)
      ~workload:(fun _ -> ([| 1. |], 5.))
      ~rounds:50 ()
  in
  check_int "no sales" 0 r2.Broker.accepted_rounds;
  check_float "no regret" 0. r2.Broker.total_regret;
  check_float "no revenue" 0. r2.Broker.total_revenue;
  (* Custom checkpoints are respected verbatim. *)
  let cps = [| 2; 7; 30 |] in
  let r3 =
    Broker.run ~checkpoints:cps
      ~policy:(Broker.Ellipsoid_pricing (mech ()))
      ~model
      ~noise:(fun _ -> 0.)
      ~workload:(fun _ -> ([| 1. |], 0.5))
      ~rounds:30 ()
  in
  check_bool "verbatim checkpoints" true (r3.Broker.series.Broker.checkpoints = cps);
  check_bool "cumulative values increase" true
    (r3.Broker.series.Broker.cumulative_value.(0)
    < r3.Broker.series.Broker.cumulative_value.(2))

let test_broker_checkpoint_validation () =
  let model = Model.linear ~theta:[| 1. |] in
  let run cps =
    Broker.run ~checkpoints:cps ~policy:Broker.Risk_averse ~model
      ~noise:(fun _ -> 0.)
      ~workload:(fun _ -> ([| 1. |], 0.5))
      ~rounds:10 ()
  in
  let expect_invalid name cps =
    check_bool name true
      (match run cps with
      | exception Invalid_argument msg ->
          String.length msg >= 10 && String.sub msg 0 10 = "Broker.run"
      | _ -> false)
  in
  expect_invalid "unsorted" [| 5; 2 |];
  expect_invalid "duplicate" [| 2; 2; 7 |];
  expect_invalid "zero" [| 0; 5 |];
  expect_invalid "beyond horizon" [| 2; 11 |];
  (* The inclusive bounds themselves are fine. *)
  check_int "bounds accepted" 2
    (Array.length (run [| 1; 10 |]).Broker.series.Broker.checkpoints)

let test_broker_log_linear_consistency () =
  (* Under the log-linear model the broker's value-space accounting
     must match exp of the index space. *)
  let theta = [| 0.5; 0.25 |] in
  let model = Model.log_linear ~theta in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:0.05 ())
      (Ellipsoid.ball ~dim:2 ~radius:1.)
  in
  let x = Vec.normalize [| 1.; 2. |] in
  let v = exp (Vec.dot x theta) in
  let workload _ = (x, 0.5 *. v) in
  let r =
    Broker.run ~record_rounds:true
      ~policy:(Broker.Ellipsoid_pricing mech)
      ~model
      ~noise:(fun _ -> 0.)
      ~workload ~rounds:30 ()
  in
  check_bool "market value is exp(index)" true
    (abs_float (r.Broker.market_value_stats.Dm_prob.Stats.mean -. v) < 1e-9);
  (* Eventually the conservative price approaches v from below and
     every deal closes. *)
  match r.Broker.logs with
  | Some logs ->
      let last = logs.(Array.length logs - 1) in
      check_bool "late rounds sell" true last.Broker.accepted;
      check_bool "late regret small" true (last.Broker.regret < 0.2 *. v)
  | None -> Alcotest.fail "logs requested"

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* In-place edits of a binary snapshot image, for the corruption cases
   below. *)
let patch img edit =
  let b = Bytes.of_string img in
  edit b;
  Bytes.to_string b

let set_u8 off v b = Bytes.set_uint8 b off v
let set_u32 off v b = Bytes.set_int32_le b off (Int32.of_int v)
let set_u64 off v b = Bytes.set_int64_le b off v
let set_f64 off v b = Bytes.set_int64_le b off (Int64.bits_of_float v)

(* Byte offsets in an ellipsoid image (["dm-ell/3"]): the 8-byte magic,
   dim (u32), scale (f64), cuts since the volume resync (u32), the
   log-volume cache (f64), then the center and the row-major shape. *)
let ell_dim = 8
let ell_scale = 12
let ell_center = 32
let ell_shape ~dim = ell_center + (8 * dim)

(* Byte offsets in a mechanism image: the 8-byte magic, use_reserve
   (u8), δ (f64), allow_conservative_cuts (u8), sparse_cuts (u8), ε
   (f64), three u64 round counters, then the projection (dm-mech4) or
   robust (dm-mech5) block, then the ellipsoid image.  A dense image
   (dm-mech3) has no block, so its ellipsoid starts at [mech_block]. *)
let mech_use_reserve = 8
let mech_delta = 9
let mech_sparse = 18
let mech_epsilon = 19
let mech_exploratory = 27
let mech_block = 51

let is_error = function Error _ -> true | Ok _ -> false

let restore_refused name img =
  match Mechanism.restore img with
  | Error msg ->
      check_bool (name ^ " message prefixed") true
        (String.length msg >= 19 && String.sub msg 0 19 = "Mechanism.restore: ")
  | Ok _ -> Alcotest.failf "%s: corrupt snapshot accepted" name

let test_ellipsoid_serialization_roundtrip () =
  (* Run some cuts so the state is non-trivial, then round-trip. *)
  let e = ref (Ellipsoid.ball ~dim:4 ~radius:2.) in
  let rng = Rng.create 61 in
  for _ = 1 to 20 do
    let x = Vec.normalize (Dist.normal_vec rng ~dim:4) in
    let b = Ellipsoid.bounds !e ~x in
    e := Ellipsoid.apply !e (Ellipsoid.cut_below !e ~x ~price:b.Ellipsoid.mid)
  done;
  match Ellipsoid.deserialize_binary (Ellipsoid.serialize_binary !e) with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      check_bool "center exact" true
        (Array.for_all2 ( = ) !e.Ellipsoid.center e'.Ellipsoid.center);
      check_bool "shape exact" true
        (Mat.approx_equal ~tol:0. !e.Ellipsoid.shape e'.Ellipsoid.shape)

let test_ellipsoid_deserialize_errors () =
  let img = Ellipsoid.serialize_binary (Ellipsoid.ball ~dim:2 ~radius:1.) in
  let refused name img' =
    check_bool name true (is_error (Ellipsoid.deserialize_binary img'))
  in
  check_bool "valid image accepted" false
    (is_error (Ellipsoid.deserialize_binary img));
  refused "bad magic" (patch img (set_u8 0 (Char.code 'x')));
  refused "empty" "";
  refused "truncated" (String.sub img 0 (String.length img - 1));
  refused "header only" (String.sub img 0 ell_center);
  refused "zero dim" (patch img (set_u32 ell_dim 0));
  refused "oversized dim" (patch img (set_u32 ell_dim ((1 lsl 20) + 1)));
  refused "nan scale" (patch img (set_f64 ell_scale Float.nan));
  refused "zero scale" (patch img (set_f64 ell_scale 0.));
  refused "negative scale" (patch img (set_f64 ell_scale (-1.)));
  refused "infinite scale" (patch img (set_f64 ell_scale Float.infinity))

(* A forged dimension on a short image: the decoder must check the
   length before it allocates the dim + dim² entries the dimension
   claims. *)
let test_forged_dim_allocates_nothing () =
  let dim = 2048 in
  let img =
    patch
      (Ellipsoid.serialize_binary (Ellipsoid.ball ~dim:1 ~radius:1.))
      (set_u32 ell_dim dim)
  in
  (* The header, a full center and one shape entry: 16,424 bytes. *)
  let img = img ^ String.make ((8 * dim) - 8) '\000' in
  check_int "image length" (ell_shape ~dim + 8) (String.length img);
  let before = Gc.allocated_bytes () in
  let result = Ellipsoid.deserialize_binary img in
  let allocated = Gc.allocated_bytes () -. before in
  check_bool "truncated image refused" true (is_error result);
  check_bool
    (Printf.sprintf "allocated %.0f bytes, under 1 MB" allocated)
    true (allocated < 1e6)

let test_mechanism_snapshot_roundtrip () =
  let mech =
    mk_mech
      ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.03)
      ~epsilon:0.2 ~dim:3 ~radius:1.5 ()
  in
  let rng = Rng.create 62 in
  for _ = 1 to 30 do
    let x = Vec.normalize (Dist.normal_vec rng ~dim:3) in
    ignore
      (Mechanism.step mech ~x ~reserve:(Rng.uniform rng 0. 0.5)
         ~market_index:(Rng.uniform rng (-1.) 1.))
  done;
  match Mechanism.restore (Mechanism.snapshot_binary mech) with
  | Error msg -> Alcotest.fail msg
  | Ok mech' ->
      check_int "exploratory counter" (Mechanism.exploratory_rounds mech)
        (Mechanism.exploratory_rounds mech');
      check_int "conservative counter" (Mechanism.conservative_rounds mech)
        (Mechanism.conservative_rounds mech');
      check_int "skip counter" (Mechanism.skipped_rounds mech)
        (Mechanism.skipped_rounds mech');
      let cfg = Mechanism.config_of mech and cfg' = Mechanism.config_of mech' in
      check_bool "config preserved" true (cfg = cfg');
      (* The restored mechanism prices identically. *)
      let x = Vec.normalize [| 1.; 2.; -0.5 |] in
      check_bool "same decision" true
        (Mechanism.decide mech ~x ~reserve:0.1
        = Mechanism.decide mech' ~x ~reserve:0.1)

let dense_snapshot () =
  Mechanism.snapshot_binary
    (mk_mech
       ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.03)
       ~epsilon:0.2 ~dim:2 ~radius:1. ())

let test_mechanism_restore_errors () =
  let snap = dense_snapshot () in
  check_bool "valid image accepted" false (is_error (Mechanism.restore snap));
  restore_refused "garbage" "garbage";
  restore_refused "empty" "";
  restore_refused "unknown magic" (patch snap (set_u8 7 (Char.code '9')));
  restore_refused "truncated" (String.sub snap 0 (String.length snap - 1));
  restore_refused "truncated header" (String.sub snap 0 20);
  restore_refused "flag byte 2" (patch snap (set_u8 mech_use_reserve 2));
  restore_refused "flag byte 255" (patch snap (set_u8 mech_sparse 255));
  restore_refused "counter with its top bit set"
    (patch snap (set_u64 mech_exploratory Int64.min_int));
  restore_refused "bad ellipsoid magic"
    (patch snap (set_u8 mech_block (Char.code 'x')))

let test_non_finite_rejected () =
  (* NaN sails through the symmetry and positive-diagonal checks
     (every NaN comparison is false), so the decoders must reject
     non-finite entries explicitly. *)
  let img = Ellipsoid.serialize_binary (Ellipsoid.ball ~dim:2 ~radius:1.) in
  let refused name edit =
    check_bool name true (is_error (Ellipsoid.deserialize_binary (patch img edit)))
  in
  refused "nan center" (set_f64 ell_center Float.nan);
  refused "infinite center" (set_f64 (ell_center + 8) Float.infinity);
  refused "negative-infinity center" (set_f64 ell_center Float.neg_infinity);
  refused "nan shape diagonal" (set_f64 (ell_shape ~dim:2) Float.nan);
  refused "infinite shape diagonal" (set_f64 (ell_shape ~dim:2) Float.infinity);
  (* A symmetric pair, so only the finiteness check can refuse it. *)
  let pair v b =
    set_f64 (ell_shape ~dim:2 + 8) v b;
    set_f64 (ell_shape ~dim:2 + 16) v b
  in
  refused "nan off-diagonal pair" (pair Float.nan);
  refused "infinite off-diagonal pair" (pair Float.infinity);
  let snap = dense_snapshot () in
  restore_refused "nan delta" (patch snap (set_f64 mech_delta Float.nan));
  restore_refused "infinite delta" (patch snap (set_f64 mech_delta Float.infinity));
  restore_refused "negative delta" (patch snap (set_f64 mech_delta (-0.5)));
  restore_refused "nan epsilon" (patch snap (set_f64 mech_epsilon Float.nan));
  restore_refused "infinite epsilon"
    (patch snap (set_f64 mech_epsilon Float.infinity));
  restore_refused "zero epsilon" (patch snap (set_f64 mech_epsilon 0.));
  restore_refused "nan ellipsoid center"
    (patch snap (set_f64 (mech_block + ell_center) Float.nan));
  check_bool "nan delta at construction" true
    (match Mechanism.with_uncertainty ~delta:nan with
    | exception Invalid_argument _ -> true
    | _ -> false)

let random_ellipsoid seed dim cuts =
  let e = ref (Ellipsoid.ball ~dim ~radius:2.) in
  let rng = Rng.create seed in
  for _ = 1 to cuts do
    let x = Vec.normalize (Dist.normal_vec rng ~dim) in
    let b = Ellipsoid.bounds !e ~x in
    e := Ellipsoid.apply !e (Ellipsoid.cut_below !e ~x ~price:b.Ellipsoid.mid)
  done;
  !e

let serialization_props =
  [
    prop "ellipsoid binary round-trip is bit-for-bit" 50
      QCheck.(triple (0 -- 1000) (1 -- 5) (0 -- 25))
      (fun (seed, dim, cuts) ->
        let e = random_ellipsoid seed dim cuts in
        let img = Ellipsoid.serialize_binary e in
        match Ellipsoid.deserialize_binary img with
        | Error _ -> false
        | Ok e' -> Ellipsoid.serialize_binary e' = img);
    prop "mechanism snapshot/restore is bit-for-bit" 50
      QCheck.(quad (0 -- 1000) (1 -- 4) (0 -- 40) bool)
      (fun (seed, dim, steps, with_delta) ->
        let variant =
          if with_delta then Mechanism.with_reserve_and_uncertainty ~delta:0.03
          else Mechanism.with_reserve
        in
        let mech =
          Mechanism.create
            (Mechanism.config ~variant ~epsilon:0.2 ())
            (Ellipsoid.ball ~dim ~radius:1.5)
        in
        let rng = Rng.create seed in
        for _ = 1 to steps do
          let x = Vec.normalize (Dist.normal_vec rng ~dim) in
          ignore
            (Mechanism.step mech ~x
               ~reserve:(Rng.uniform rng 0. 0.5)
               ~market_index:(Rng.uniform rng (-1.) 1.))
        done;
        (* Snapshot equality covers config, counters, and every
           ellipsoid bit at once. *)
        let img = Mechanism.snapshot_binary mech in
        match Mechanism.restore img with
        | Error _ -> false
        | Ok mech' -> Mechanism.snapshot_binary mech' = img);
  ]

(* ------------------------------------------------------------------ *)
(* Projected mode                                                      *)
(* ------------------------------------------------------------------ *)

(* With P = I and err = 0 the projected mechanism must replay the
   dense one bit-for-bit: each row of I·x reduces to a sum of exact
   zeros around the single 1·x_i term, and a running IEEE sum that is
   +0 passes the next addend through unchanged, so u carries x's exact
   bits and every bound, price, and cut coincides. *)

let decisions_bit_equal a b =
  match (a, b) with
  | Mechanism.Skip, Mechanism.Skip -> true
  | ( Mechanism.Post { price = p; kind = k; lower = l; upper = u },
      Mechanism.Post { price = p'; kind = k'; lower = l'; upper = u' } ) ->
      k = k'
      && Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float p')
      && Int64.equal (Int64.bits_of_float l) (Int64.bits_of_float l')
      && Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float u')
  | _ -> false

let run_identity_projection_vs_dense ~dim ~rounds ~seed =
  let cfg =
    Mechanism.config
      ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.03)
      ~epsilon:0.2 ()
  in
  let dense = Mechanism.create cfg (Ellipsoid.ball ~dim ~radius:1.5) in
  let projected =
    Mechanism.create_projected cfg ~projection:(Mat.identity dim) ~err:0.
      (Ellipsoid.ball ~dim ~radius:1.5)
  in
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to rounds do
    let x = Vec.normalize (Dist.normal_vec rng ~dim) in
    let reserve = Rng.uniform rng 0. 0.5 in
    let market_index = Rng.uniform rng (-1.) 1. in
    let d, acc = Mechanism.step dense ~x ~reserve ~market_index in
    let d', acc' = Mechanism.step projected ~x ~reserve ~market_index in
    if not (decisions_bit_equal d d' && acc = acc') then ok := false
  done;
  !ok
  && Mechanism.exploratory_rounds dense
     = Mechanism.exploratory_rounds projected
  && Mechanism.conservative_rounds dense
     = Mechanism.conservative_rounds projected
  && Mechanism.skipped_rounds dense = Mechanism.skipped_rounds projected

let test_projected_identity_matches_dense () =
  List.iter
    (fun dim ->
      check_bool
        (Printf.sprintf "identity projection bit-identical at dim %d" dim)
        true
        (run_identity_projection_vs_dense ~dim ~rounds:60 ~seed:(70 + dim)))
    [ 1; 2; 8; 128 ]

(* A k = 2 basis inside R^4 with orthonormal rows, exact in floats. *)
let p24 =
  let s = 1. /. sqrt 2. in
  Mat.init 2 4 (fun i j ->
      match (i, j) with
      | 0, 0 -> 1.
      | 1, 2 | 1, 3 -> s
      | _ -> 0.)

let projected_mech_after ~steps ~seed =
  let mech =
    Mechanism.create_projected
      (Mechanism.config
         ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.01)
         ~epsilon:0.2 ())
      ~projection:p24 ~err:0.05
      (Ellipsoid.ball ~dim:2 ~radius:1.5)
  in
  let rng = Rng.create seed in
  for _ = 1 to steps do
    let x = Vec.normalize (Dist.normal_vec rng ~dim:4) in
    ignore
      (Mechanism.step mech ~x ~reserve:(Rng.uniform rng 0. 0.5)
         ~market_index:(Rng.uniform rng (-1.) 1.))
  done;
  mech

let test_projected_snapshot_roundtrip () =
  let mech = projected_mech_after ~steps:25 ~seed:77 in
  let bin = Mechanism.snapshot_binary mech in
  check_bool "v4 binary magic" true
    (String.length bin > 8 && String.sub bin 0 8 = Mechanism.binary_magic_v4);
  let from_bin =
    match Mechanism.restore bin with
    | Error msg -> Alcotest.fail msg
    | Ok m -> m
  in
  check_bool "binary snapshot stable" true
    (Mechanism.snapshot_binary from_bin = bin);
  (match Mechanism.projection from_bin with
  | None -> Alcotest.fail "restored mechanism lost its projection"
  | Some (p, err) ->
      check_bool "projection entries exact" true
        (Mat.approx_equal ~tol:0. p p24);
      check_float "err bound exact" 0.05 err);
  (* Restored mechanisms continue the trajectory bit-for-bit. *)
  let rng = Rng.create 78 and rng' = Rng.create 78 in
  let continue mech rng =
    let x = Vec.normalize (Dist.normal_vec rng ~dim:4) in
    Mechanism.step mech ~x ~reserve:(Rng.uniform rng 0. 0.5)
      ~market_index:(Rng.uniform rng (-1.) 1.)
  in
  for _ = 1 to 10 do
    let d, acc = continue mech rng in
    let d', acc' = continue from_bin rng' in
    check_bool "continuation identical" true
      (decisions_bit_equal d d' && acc = acc')
  done

(* The projection block of a dm-mech4 image: k and n (u32 each), the
   error bound (f64), then P's row-major entries. *)
let proj_rank = mech_block
let proj_err = mech_block + 8
let proj_entries = mech_block + 16

let test_projected_restore_errors () =
  (* k = 2 over n = 4: the ellipsoid image follows 8 entries. *)
  let bin = Mechanism.snapshot_binary (projected_mech_after ~steps:5 ~seed:79) in
  check_bool "valid image accepted" false (is_error (Mechanism.restore bin));
  (* Splice a 3-dim ellipsoid after the rank-2 projection block. *)
  let ell_at = proj_entries + (8 * 2 * 4) in
  let splice dim =
    String.sub bin 0 ell_at
    ^ Ellipsoid.serialize_binary (Ellipsoid.ball ~dim ~radius:1.)
  in
  check_bool "spliced image accepted" false (is_error (Mechanism.restore (splice 2)));
  restore_refused "rank/ellipsoid mismatch" (splice 3);
  restore_refused "zero rank" (patch bin (set_u32 proj_rank 0));
  restore_refused "negative err" (patch bin (set_f64 proj_err (-0.125)));
  restore_refused "infinite err" (patch bin (set_f64 proj_err Float.infinity));
  restore_refused "nan err" (patch bin (set_f64 proj_err Float.nan));
  restore_refused "non-finite entry"
    (patch bin (set_f64 (proj_entries + 24) Float.nan));
  restore_refused "infinite entry"
    (patch bin (set_f64 proj_entries Float.neg_infinity));
  restore_refused "truncated binary" (String.sub bin 0 (String.length bin / 2));
  restore_refused "truncated projection block"
    (String.sub bin 0 (proj_entries + 8))

let projected_props =
  [
    prop "projected snapshot/restore is bit-for-bit" 40
      QCheck.(triple (0 -- 1000) (1 -- 3) (0 -- 30))
      (fun (seed, k, steps) ->
        let n = k + 2 in
        let rng = Rng.create seed in
        (* Restore validates finiteness, not orthonormality, so any
           finite projection must round-trip exactly. *)
        let p = Mat.init k n (fun _ _ -> Dist.normal rng ~mean:0. ~std:1.) in
        let mech =
          Mechanism.create_projected
            (Mechanism.config ~variant:Mechanism.with_reserve ~epsilon:0.2 ())
            ~projection:p
            ~err:(Rng.uniform rng 0. 0.1)
            (Ellipsoid.ball ~dim:k ~radius:1.5)
        in
        for _ = 1 to steps do
          let x = Vec.normalize (Dist.normal_vec rng ~dim:n) in
          ignore
            (Mechanism.step mech ~x
               ~reserve:(Rng.uniform rng 0. 0.5)
               ~market_index:(Rng.uniform rng (-1.) 1.))
        done;
        let bin = Mechanism.snapshot_binary mech in
        match Mechanism.restore bin with
        | Ok b -> Mechanism.snapshot_binary b = bin
        | Error _ -> false);
    prop "identity projection is bit-identical to dense" 20
      QCheck.(pair (0 -- 1000) (1 -- 8))
      (fun (seed, dim) ->
        (* Clamped: the int shrinker can step below the range. *)
        let dim = max dim 1 and seed = abs seed in
        run_identity_projection_vs_dense ~dim ~rounds:30 ~seed);
  ]

(* ------------------------------------------------------------------ *)
(* Cross-tenant batched decide                                         *)
(* ------------------------------------------------------------------ *)

(* A fleet of B tenants served round-batched against a clone fleet
   served one request at a time: every decision must carry identical
   bits round by round, and the final states identical snapshot
   bytes — the contract the batched serving path rests on.  The
   axis-subset projection (the first k rows of I_n) has exactly
   orthonormal rows at every dimension. *)
let axis_projection ~k ~n = Mat.init k n (fun i j -> if i = j then 1. else 0.)

let vec_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let run_batch_vs_sequential ~projected ~dim ~b ~rounds ~seed =
  let cfg =
    Mechanism.config
      ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.02)
      ~epsilon:0.2 ()
  in
  let k = if projected then max 1 ((dim + 1) / 2) else dim in
  let p = axis_projection ~k ~n:dim in
  let make () =
    if projected then
      Mechanism.create_projected cfg ~projection:p ~err:0.
        (Ellipsoid.ball ~dim:k ~radius:1.5)
    else Mechanism.create cfg (Ellipsoid.ball ~dim ~radius:1.5)
  in
  let batched = Array.init b (fun _ -> make ()) in
  let sequential = Array.init b (fun _ -> make ()) in
  let ctx = Mechanism.batch batched.(0) in
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to rounds do
    let xs = Array.init b (fun _ -> Vec.normalize (Dist.normal_vec rng ~dim)) in
    let reserves = Array.init b (fun _ -> Rng.uniform rng 0. 0.3) in
    let markets = Array.init b (fun _ -> Rng.uniform rng (-1.) 1.) in
    let ds = Mechanism.decide_batch ctx batched ~xs ~reserves in
    for i = 0 to b - 1 do
      let d' =
        Mechanism.decide sequential.(i) ~x:xs.(i) ~reserve:reserves.(i)
      in
      if not (decisions_bit_equal ds.(i) d') then ok := false;
      let accepted =
        match ds.(i) with
        | Mechanism.Skip -> false
        | Mechanism.Post { price; _ } -> price <= markets.(i)
      in
      Mechanism.observe batched.(i) ~x:xs.(i) ds.(i) ~accepted;
      Mechanism.observe sequential.(i) ~x:xs.(i) d' ~accepted
    done
  done;
  !ok
  && Array.for_all2
       (fun a s -> Mechanism.snapshot_binary a = Mechanism.snapshot_binary s)
       batched sequential

let test_batch_matches_sequential () =
  List.iter
    (fun projected ->
      List.iter
        (fun dim ->
          List.iter
            (fun b ->
              let rounds = if dim >= 128 then 3 else 8 in
              check_bool
                (Printf.sprintf "%s dim=%d b=%d"
                   (if projected then "projected" else "dense")
                   dim b)
                true
                (run_batch_vs_sequential ~projected ~dim ~b ~rounds
                   ~seed:(dim + (7 * b) + if projected then 1000 else 0)))
            [ 1; 3; 64 ])
        [ 1; 2; 8; 128 ])
    [ true; false ]

let test_batch_decide_validation () =
  let cfg = Mechanism.config ~variant:Mechanism.pure ~epsilon:0.1 () in
  let p = axis_projection ~k:2 ~n:4 in
  let mk () =
    Mechanism.create_projected cfg ~projection:p ~err:0.
      (Ellipsoid.ball ~dim:2 ~radius:1.)
  in
  let m1 = mk () and m2 = mk () in
  let ctx = Mechanism.batch m1 in
  let rng = Rng.create 5 in
  let xs = Array.init 2 (fun _ -> Vec.normalize (Dist.normal_vec rng ~dim:4)) in
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Mechanism.decide_batch: empty batch") (fun () ->
      ignore (Mechanism.decide_batch ctx [||] ~xs:[||] ~reserves:[||]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Mechanism.decide_batch: batch length mismatch")
    (fun () ->
      ignore (Mechanism.decide_batch ctx [| m1; m2 |] ~xs ~reserves:[| 0. |]));
  Alcotest.check_raises "duplicate mechanism"
    (Invalid_argument "Mechanism.decide_batch: duplicate mechanism in batch")
    (fun () ->
      ignore
        (Mechanism.decide_batch ctx [| m1; m1 |] ~xs ~reserves:[| 0.; 0. |]));
  (* A same-shape but physically distinct projection is foreign. *)
  let foreign =
    Mechanism.create_projected cfg
      ~projection:(axis_projection ~k:2 ~n:4)
      ~err:0.
      (Ellipsoid.ball ~dim:2 ~radius:1.)
  in
  Alcotest.check_raises "foreign projection"
    (Invalid_argument
       "Mechanism.decide_batch: mechanism does not share the batch projection")
    (fun () ->
      ignore
        (Mechanism.decide_batch ctx [| m1; foreign |] ~xs
           ~reserves:[| 0.; 0. |]));
  let dense = Mechanism.create cfg (Ellipsoid.ball ~dim:4 ~radius:1.) in
  let dctx = Mechanism.batch dense in
  Alcotest.check_raises "projected under dense context"
    (Invalid_argument
       "Mechanism.decide_batch: dense context serving a projected mechanism")
    (fun () ->
      ignore
        (Mechanism.decide_batch dctx [| m1 |] ~xs:[| xs.(0) |]
           ~reserves:[| 0. |]));
  (* A rejected per-request decide must clear the memo it seeded. *)
  let bad = [| Float.nan; 0.; 0.; 0. |] in
  (try ignore (Mechanism.decide_batch ctx [| m1 |] ~xs:[| bad |] ~reserves:[| 0. |])
   with Invalid_argument _ -> ());
  check_bool "memo cleared after rejected decide" true
    (Mechanism.projected_feature m1 ~x:bad = None)

(* [projected_feature] only answers for physically the vector the memo
   was seeded from, and each call hands out an independent copy. *)
let test_projected_feature_memo () =
  let cfg = Mechanism.config ~variant:Mechanism.pure ~epsilon:0.1 () in
  let p = axis_projection ~k:2 ~n:4 in
  let m =
    Mechanism.create_projected cfg ~projection:p ~err:0.
      (Ellipsoid.ball ~dim:2 ~radius:1.)
  in
  let rng = Rng.create 11 in
  let x = Vec.normalize (Dist.normal_vec rng ~dim:4) in
  check_bool "no memo before decide" true
    (Mechanism.projected_feature m ~x = None);
  ignore (Mechanism.decide m ~x ~reserve:0.);
  (match Mechanism.projected_feature m ~x with
  | None -> Alcotest.fail "memo missing after decide"
  | Some u ->
      check_bool "u = P·x bits" true (vec_bits_equal u (Mat.project p x));
      (* Mutating the handed-out copy must not poison the memo. *)
      u.(0) <- 42.;
      (match Mechanism.projected_feature m ~x with
      | None -> Alcotest.fail "memo lost"
      | Some u' ->
          check_bool "fresh copy each call" true
            (vec_bits_equal u' (Mat.project p x))));
  (* An equal-valued but physically different vector misses. *)
  check_bool "physical equality required" true
    (Mechanism.projected_feature m ~x:(Array.copy x) = None);
  let dense = Mechanism.create cfg (Ellipsoid.ball ~dim:4 ~radius:1.) in
  ignore (Mechanism.decide dense ~x ~reserve:0.);
  check_bool "dense mechanism has no projected feature" true
    (Mechanism.projected_feature dense ~x = None)

(* The arena'd decide/observe path recycles cut buffers, but an
   ellipsoid escaped through [Mechanism.ellipsoid] must keep its exact
   bits across any number of later batched rounds and observes. *)
let test_batch_escape_safety () =
  let dim = 6 and b = 3 in
  let cfg =
    Mechanism.config ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.02)
      ~epsilon:0.2 ()
  in
  let p = axis_projection ~k:3 ~n:dim in
  let fleet =
    Array.init b (fun _ ->
        Mechanism.create_projected cfg ~projection:p ~err:0.
          (Ellipsoid.ball ~dim:3 ~radius:1.5))
  in
  let ctx = Mechanism.batch fleet.(0) in
  let rng = Rng.create 23 in
  let serve_round () =
    let xs = Array.init b (fun _ -> Vec.normalize (Dist.normal_vec rng ~dim)) in
    let reserves = Array.init b (fun _ -> Rng.uniform rng 0. 0.3) in
    let markets = Array.init b (fun _ -> Rng.uniform rng (-1.) 1.) in
    let ds = Mechanism.decide_batch ctx fleet ~xs ~reserves in
    Array.iteri
      (fun i d ->
        let accepted =
          match d with
          | Mechanism.Skip -> false
          | Mechanism.Post { price; _ } -> price <= markets.(i)
        in
        Mechanism.observe fleet.(i) ~x:xs.(i) d ~accepted)
      ds
  in
  for _ = 1 to 4 do
    serve_round ()
  done;
  let escaped = Array.map Mechanism.ellipsoid fleet in
  let frozen =
    Array.map
      (fun e ->
        ( Array.copy e.Ellipsoid.center,
          Mat.copy e.Ellipsoid.shape,
          e.Ellipsoid.scale ))
      escaped
  in
  for _ = 1 to 12 do
    serve_round ()
  done;
  Array.iteri
    (fun i e ->
      let c, s, sc = frozen.(i) in
      check_bool "escaped center bits stable" true
        (vec_bits_equal e.Ellipsoid.center c);
      check_bool "escaped scale stable" true
        (Int64.equal
           (Int64.bits_of_float e.Ellipsoid.scale)
           (Int64.bits_of_float sc));
      let rows = Mat.rows e.Ellipsoid.shape in
      let stable = ref true in
      for r = 0 to rows - 1 do
        if not (vec_bits_equal (Mat.row e.Ellipsoid.shape r) (Mat.row s r))
        then stable := false
      done;
      check_bool "escaped shape bits stable" true !stable)
    escaped

let batch_decide_props =
  [
    prop "batched decisions and states bit-match sequential" 25
      QCheck.(
        quad (0 -- 1000) (1 -- 10) (1 -- 8) bool)
      (fun (seed, dim, b, projected) ->
        let dim = max 1 dim and b = max 1 b and seed = abs seed in
        run_batch_vs_sequential ~projected ~dim ~b ~rounds:6 ~seed);
  ]

(* ------------------------------------------------------------------ *)
(* Scalar-scaled sparse cut path vs the dense reference                *)
(* ------------------------------------------------------------------ *)

(* The tolerance contract (DESIGN.md): across the same cut sequence
   the scaled/sparse path and the dense reference agree exactly on cut
   decisions and accept/reject outcomes, and to ≤ 1e-9 relative on
   prices, log-volume and axis widths.  Bit-exact agreement on the
   floats is impossible in general — the dense path folds each
   Löwner–John factor into the matrix entries while the sparse path
   accumulates them in one scalar, and float multiplication does not
   re-associate — so the suite checks decisions exactly and magnitudes
   relatively.

   The relative agreement is per-sequence and holds on bounded cut
   counts: the two paths' last-ulp differences are amplified
   exponentially by the cut dynamics (the same divergence any float
   reassociation shows on a chaotic map — measured ~1.4×/cut at
   dim 8, far slower at dim 128), so the corpus keeps sequences to
   ~100 cuts at small dims, where the observed gap is ≤ 1e-10 with a
   ≥ 30× margin to the 1e-9 contract. *)
let rel_close a b =
  abs_float (a -. b) <= 1e-9 *. (1. +. Float.max (abs_float a) (abs_float b))

(* A random cut direction sparse enough for the in-place path at
   dim ≥ 8; at dims 1–2 no vector passes the 0.125 density threshold,
   so the same sequence exercises the "sparse path never fires" side
   of the contract (where agreement must be bit-exact). *)
let sparse_dir rng ~dim =
  let nnz = max 1 (dim / 11) in
  let x = Vec.zeros dim in
  for _ = 1 to nnz do
    x.(Rng.int rng dim) <- Dist.normal rng ~mean:0. ~std:1.
  done;
  x

(* Drive the same random cut sequence through a dense-reference
   ellipsoid and a [mutate:true] one; check the contract at every
   step.  Returns an error description, or None if all agree. *)
let equivalence_run ~seed ~dim ~cuts =
  let rng = Rng.create seed in
  let dense = ref (Ellipsoid.ball ~dim ~radius:4.) in
  let scaled = ref (Ellipsoid.ball ~dim ~radius:4.) in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun s -> failure := Some s) fmt in
  let t = ref 0 in
  while !failure = None && !t < cuts do
    incr t;
    let x = sparse_dir rng ~dim in
    if Vec.norm2 x > 1e-6 then begin
      let bd = Ellipsoid.bounds !dense ~x in
      let bs = Ellipsoid.bounds !scaled ~x in
      if not (rel_close bd.Ellipsoid.lower bs.Ellipsoid.lower) then
        fail "cut %d: lower bounds diverge" !t
      else if not (rel_close bd.Ellipsoid.upper bs.Ellipsoid.upper) then
        fail "cut %d: upper bounds diverge" !t
      else begin
        let alpha = -0.2 +. (Rng.float rng *. 0.9) in
        let price =
          bd.Ellipsoid.mid -. (alpha *. bd.Ellipsoid.half_width)
        in
        let rd, rs =
          if !t mod 3 = 0 then
            ( Ellipsoid.cut_above !dense ~x ~price,
              Ellipsoid.cut_above ~mutate:true !scaled ~x ~price )
          else
            ( Ellipsoid.cut_below !dense ~x ~price,
              Ellipsoid.cut_below ~mutate:true !scaled ~x ~price )
        in
        match (rd, rs) with
        | Ellipsoid.Cut ed, Ellipsoid.Cut es ->
            dense := ed;
            scaled := es;
            if
              not
                (rel_close
                   (Ellipsoid.log_volume_factor ed)
                   (Ellipsoid.log_volume_factor es))
            then fail "cut %d: log volumes diverge" !t
            else if Ellipsoid.volume_drift es > 1e-9 then
              fail "cut %d: scaled volume cache drifted" !t
        | Ellipsoid.Too_shallow, Ellipsoid.Too_shallow
        | Ellipsoid.Empty, Ellipsoid.Empty ->
            ()
        | _ -> fail "cut %d: cut decisions diverge" !t
      end
    end
  done;
  (match !failure with
  | Some _ -> ()
  | None ->
      let wd = Ellipsoid.axis_widths !dense in
      let ws = Ellipsoid.axis_widths !scaled in
      for i = 0 to dim - 1 do
        if !failure = None && not (rel_close wd.(i) ws.(i)) then
          fail "axis width %d diverges" i
      done);
  !failure

let test_equivalence_across_dims () =
  List.iter
    (fun (dim, cuts) ->
      match equivalence_run ~seed:(100 + dim) ~dim ~cuts with
      | None -> ()
      | Some msg -> Alcotest.fail (Printf.sprintf "dim %d: %s" dim msg))
    [ (1, 200); (2, 200); (8, 100); (128, 40) ]

let test_inplace_contract () =
  (* The sparse path consumes the input's shape buffer (physical
     equality of the shape fields signals it); the dense path must
     leave the input untouched. *)
  let dim = 16 in
  let e = Ellipsoid.ball ~dim ~radius:4. in
  let rng = Rng.create 41 in
  let x = sparse_dir rng ~dim in
  let price = (Ellipsoid.bounds e ~x).Ellipsoid.mid in
  (match Ellipsoid.cut_below ~mutate:true e ~x ~price with
  | Ellipsoid.Cut e' ->
      check_bool "sparse cut reuses the shape buffer" true
        (e'.Ellipsoid.shape == e.Ellipsoid.shape);
      check_bool "scale moved off 1" true (Ellipsoid.scale e' <> 1.)
  | _ -> Alcotest.fail "sparse cut must succeed");
  let e2 = Ellipsoid.ball ~dim ~radius:4. in
  let before = Mat.copy e2.Ellipsoid.shape in
  (match Ellipsoid.cut_below e2 ~x ~price with
  | Ellipsoid.Cut e' ->
      check_bool "dense cut allocates" true
        (not (e'.Ellipsoid.shape == e2.Ellipsoid.shape));
      check_bool "input untouched" true
        (Mat.approx_equal ~tol:0. before e2.Ellipsoid.shape);
      check_float "dense cut keeps scale 1" 1. (Ellipsoid.scale e')
  | _ -> Alcotest.fail "dense cut must succeed");
  (* A dense direction falls back to the allocating path even under
     [mutate]. *)
  let xd = Vec.normalize (Dist.normal_vec rng ~dim) in
  let e3 = Ellipsoid.ball ~dim ~radius:4. in
  match
    Ellipsoid.cut_below ~mutate:true e3 ~x:xd
      ~price:(Ellipsoid.bounds e3 ~x:xd).Ellipsoid.mid
  with
  | Ellipsoid.Cut e' ->
      check_bool "dense direction allocates" true
        (not (e'.Ellipsoid.shape == e3.Ellipsoid.shape))
  | _ -> Alcotest.fail "dense-direction cut must succeed"

let test_scaled_serialization () =
  (* A pending sparse-path scalar travels with the rest of the record:
     the round-trip is bit-for-bit, the scale included. *)
  let dim = 16 in
  let rng = Rng.create 43 in
  let e = ref (Ellipsoid.ball ~dim ~radius:4.) in
  for _ = 1 to 5 do
    let x = sparse_dir rng ~dim in
    if Vec.norm2 x > 1e-6 then begin
      let price = (Ellipsoid.bounds !e ~x).Ellipsoid.mid in
      e := Ellipsoid.apply !e (Ellipsoid.cut_below ~mutate:true !e ~x ~price)
    end
  done;
  check_bool "scale moved off 1" true (Ellipsoid.scale !e <> 1.);
  let img = Ellipsoid.serialize_binary !e in
  (match Ellipsoid.deserialize_binary img with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      check_bool "round-trip is bit-for-bit" true
        (Ellipsoid.serialize_binary e' = img);
      check_bool "scale preserved" true
        (bits (Ellipsoid.scale e') = bits (Ellipsoid.scale !e)));
  let refused name img' =
    check_bool name true (is_error (Ellipsoid.deserialize_binary img'))
  in
  refused "nan scale" (patch img (set_f64 ell_scale Float.nan));
  refused "non-positive scale" (patch img (set_f64 ell_scale (-1.)));
  refused "truncated" (String.sub img 0 (ell_center + 8))

(* A mechanism on the sparse path vs the forced-dense reference: same
   decisions and counters, prices within the contract. *)
let mechanism_equivalence ~seed ~dim ~rounds =
  let mk sparse_cuts =
    Mechanism.create
      (Mechanism.config ~sparse_cuts ~variant:Mechanism.with_reserve
         ~epsilon:0.5 ())
      (Ellipsoid.ball ~dim ~radius:4.)
  in
  let reference = mk false and fast = mk true in
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to rounds do
    let x = sparse_dir rng ~dim in
    let reserve = Rng.uniform rng 0. 0.3 in
    let market_index = Rng.uniform rng (-2.) 2. in
    let dr = Mechanism.decide reference ~x ~reserve in
    let df = Mechanism.decide fast ~x ~reserve in
    (match (dr, df) with
    | Mechanism.Skip, Mechanism.Skip -> ()
    | ( Mechanism.Post { price = pr; kind = kr; _ },
        Mechanism.Post { price = pf; kind = kf; _ } ) ->
        if kr <> kf || not (rel_close pr pf) then ok := false
    | _ -> ok := false);
    (* Resolve acceptance from the reference price so both mechanisms
       see the same buyer response even if prices differ in the last
       ulp. *)
    let accepted =
      match dr with
      | Mechanism.Skip -> false
      | Mechanism.Post { price; _ } -> price <= market_index
    in
    Mechanism.observe reference ~x dr ~accepted;
    Mechanism.observe fast ~x df ~accepted
  done;
  !ok
  && Mechanism.exploratory_rounds reference = Mechanism.exploratory_rounds fast
  && Mechanism.conservative_rounds reference
     = Mechanism.conservative_rounds fast
  && Mechanism.skipped_rounds reference = Mechanism.skipped_rounds fast

let test_mechanism_sparse_escape_safety () =
  (* Reading the ellipsoid must protect it from the in-place sparse
     path: the escaped snapshot stays bit-identical while the
     mechanism keeps cutting sparse directions. *)
  let dim = 32 in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.pure ~epsilon:0.01 ())
      (Ellipsoid.ball ~dim ~radius:4.)
  in
  let rng = Rng.create 47 in
  let step () =
    let x = sparse_dir rng ~dim in
    if Vec.norm2 x > 1e-6 then
      ignore
        (Mechanism.step mech ~x ~reserve:neg_infinity
           ~market_index:(Rng.uniform rng (-2.) 2.))
  in
  for _ = 1 to 10 do
    step ()
  done;
  let seen = Mechanism.ellipsoid mech in
  let snapshot = Ellipsoid.serialize_binary seen in
  for _ = 1 to 10 do
    step ()
  done;
  check_bool "escaped ellipsoid unchanged under sparse cuts" true
    (Ellipsoid.serialize_binary seen = snapshot);
  check_bool "mechanism kept learning" true
    (not (Mechanism.ellipsoid mech == seen))

let sparse_equivalence_props =
  [
    prop "scaled/sparse cuts match the dense reference" 25
      QCheck.(pair (int_range 1 1000) (int_range 0 2))
      (fun (seed, which) ->
        let dim = [| 2; 8; 128 |].(which) in
        let cuts = if dim >= 64 then 15 else 80 in
        equivalence_run ~seed ~dim ~cuts = None);
    prop "mechanism decisions/counters match the dense reference" 15
      QCheck.(pair (int_range 1 1000) bool)
      (fun (seed, big) ->
        let dim = if big then 64 else 8 in
        mechanism_equivalence ~seed ~dim ~rounds:60);
  ]

(* ------------------------------------------------------------------ *)
(* Streamed sparse cut vs the gathered reference                       *)
(* ------------------------------------------------------------------ *)

(* The sparse in-place cut as it stood before M·x was streamed from the
   support's rows: M·x gathered column by column from every row of M,
   and b̃ and the new center freshly allocated.  Same arithmetic in the
   same order, so the library's streamed cut must reproduce it bit for
   bit. *)
module Reference_cut = struct
  type t = {
    center : Vec.t;
    shape : Mat.t;  (* mutated in place, like the library's *)
    scale : float;
    log_vol : float;
    cuts : int;
  }

  let of_ellipsoid (e : Ellipsoid.t) =
    {
      center = Vec.copy e.Ellipsoid.center;
      shape = Mat.copy e.Ellipsoid.shape;
      scale = e.Ellipsoid.scale;
      log_vol = e.Ellipsoid.log_vol;
      cuts = e.Ellipsoid.cuts_since_sync;
    }

  let matvec_gather m (sx : Vec.Sparse.t) =
    let idx = sx.Vec.Sparse.idx and v = sx.Vec.Sparse.value in
    Array.init (Mat.rows m) (fun i ->
        let acc = ref 0. in
        for k = 0 to Array.length idx - 1 do
          acc := !acc +. (Mat.get m i idx.(k) *. v.(k))
        done;
        !acc)

  let cut_below t ~x ~price =
    let dim = Vec.dim x in
    let sx =
      match Vec.Sparse.of_dense x with
      | Some sx -> sx
      | None -> invalid_arg "Reference_cut: direction too dense"
    in
    let m = matvec_gather t.shape sx in
    let qm = Vec.Sparse.dot_dense sx m in
    let q = t.scale *. qm in
    if q <= 0. then None
    else begin
      let half_width = sqrt q in
      let mid = Vec.Sparse.dot_dense sx t.center in
      let n = float_of_int dim in
      let alpha = (mid -. price) /. half_width in
      if alpha >= 1. || alpha <= -1. /. n then None
      else begin
        let beta = 2. *. (1. +. (n *. alpha)) /. ((n +. 1.) *. (1. +. alpha)) in
        let factor = n *. n *. (1. -. (alpha *. alpha)) /. ((n *. n) -. 1.) in
        let btilde = Vec.scale (1. /. sqrt qm) m in
        let center = Vec.copy t.center in
        Vec.axpy
          (-.(1. +. (n *. alpha)) /. (n +. 1.) *. sqrt t.scale)
          btilde center;
        let scale' =
          Mat.rank_one_rescale_sparse t.shape ~beta:(-.beta)
            ~b:(Vec.Sparse.gather btilde) ~factor ~scale:t.scale
        in
        let cuts = t.cuts + 1 in
        let scale' =
          if scale' < 1e-9 || scale' > 1e9 || cuts mod 1000 = 0 then begin
            Mat.scale_inplace scale' t.shape;
            1.
          end
          else scale'
        in
        Some
          {
            t with
            center;
            scale = scale';
            log_vol = t.log_vol +. (0.5 *. ((n *. log factor) +. log1p (-.beta)));
            cuts;
          }
      end
    end

  let cut_above t ~x ~price =
    cut_below t ~x:(Array.map (fun v -> -1. *. v) x) ~price:(-.price)
end

(* App 3-like directions: [nnz] coordinates from a small pool with a
   skewed preference for its first entries, so M's perturbed block —
   and with it b̃'s support — stays a small part of the dimension, as
   with hashed impressions at n = 1024. *)
let skewed_dir rng ~pool ~nnz ~dim =
  let x = Vec.zeros dim in
  for _ = 1 to nnz do
    let k = Rng.int rng (Rng.int rng (Array.length pool) + 1) in
    x.(pool.(k)) <- (if Rng.bool rng then 1. else Dist.normal rng ~mean:0. ~std:1.)
  done;
  x

let same_as_reference (r : Reference_cut.t) (e : Ellipsoid.t) =
  floats_eq r.Reference_cut.center e.Ellipsoid.center
  && floats_eq r.Reference_cut.shape.Mat.data e.Ellipsoid.shape.Mat.data
  && bits r.Reference_cut.scale = bits e.Ellipsoid.scale
  && bits r.Reference_cut.log_vol = bits e.Ellipsoid.log_vol
  && r.Reference_cut.cuts = e.Ellipsoid.cuts_since_sync

let all_nan v = Array.for_all Float.is_nan v

(* One cut sequence through the reference and the three library routes
   to the sparse cut: no buffers, caller buffers ping-ponged by hand
   (NaN-filled before each cut, so a stale read or an early write
   shows), and [Mechanism.observe].  The first two are compared with
   the reference after every cut; the mechanism's bounds are compared
   after every cut and its whole state (through its binary snapshot,
   whose tail is the ellipsoid's image) every [mech_every] cuts and at
   the end.  Returns the number of cuts taken, or the first
   disagreement. *)
let streamed_cut_run ~seed ~dim ~steps ~mech_every =
  let rng = Rng.create seed in
  let radius = 4. in
  let pool = Array.init (max 4 (dim / 10)) (fun _ -> Rng.int rng dim) in
  let nnz = max 1 (min 10 (dim / 9)) in
  let reference = ref (Reference_cut.of_ellipsoid (Ellipsoid.ball ~dim ~radius)) in
  let plain = ref (Ellipsoid.ball ~dim ~radius) in
  let buffered = ref (Ellipsoid.ball ~dim ~radius) in
  let b_buf = Vec.zeros dim and neg_buf = Vec.zeros dim in
  let spare = ref (Vec.zeros dim) in
  let mech =
    Mechanism.create
      (Mechanism.config ~variant:Mechanism.pure ~epsilon:1e-6 ())
      (Ellipsoid.ball ~dim ~radius)
  in
  let failure = ref None and cuts = ref 0 and widest_b = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failure := Some s) fmt in
  let mech_matches () =
    let snap = Mechanism.snapshot_binary mech in
    let img = Ellipsoid.serialize_binary !plain in
    String.ends_with ~suffix:img snap
  in
  let step = ref 0 in
  while !failure = None && !step < steps do
    incr step;
    let x = skewed_dir rng ~pool ~nnz ~dim in
    let above = Rng.int rng 3 = 0 in
    (* Mostly proper cuts, with some α ≤ −1/n (Too_shallow) and some
       α ≥ 1 (Empty) to exercise the exits that must not write. *)
    let alpha =
      let shallow = -1. /. float_of_int dim in
      match Rng.int rng 10 with
      | 0 -> shallow -. (0.5 *. Rng.float rng)
      | 1 -> 1. +. Rng.float rng
      | _ -> (0.5 *. shallow) +. ((0.6 -. (0.5 *. shallow)) *. Rng.float rng)
    in
    let b = Ellipsoid.bounds !plain ~x in
    let price =
      if above then b.Ellipsoid.mid +. (alpha *. b.Ellipsoid.half_width)
      else b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width)
    in
    let r' =
      if above then Reference_cut.cut_above !reference ~x ~price
      else Reference_cut.cut_below !reference ~x ~price
    in
    let rp =
      if above then Ellipsoid.cut_above ~mutate:true !plain ~x ~price
      else Ellipsoid.cut_below ~mutate:true !plain ~x ~price
    in
    Array.fill b_buf 0 dim Float.nan;
    Array.fill !spare 0 dim Float.nan;
    let rb =
      if above then
        Ellipsoid.cut_above ~b_into:b_buf ~center_into:!spare ~neg_into:neg_buf
          ~mutate:true !buffered ~x ~price
      else
        Ellipsoid.cut_below ~b_into:b_buf ~center_into:!spare ~mutate:true
          !buffered ~x ~price
    in
    let d = Mechanism.decide mech ~x ~reserve:neg_infinity in
    (match d with
    | Mechanism.Post { lower; upper; _ } ->
        if bits lower <> bits b.Ellipsoid.lower || bits upper <> bits b.Ellipsoid.upper
        then fail "step %d: mechanism bounds differ" !step
    | Mechanism.Skip -> fail "step %d: mechanism skipped" !step);
    Mechanism.observe mech ~x
      (Mechanism.Post
         {
           price;
           kind = Mechanism.Exploratory;
           lower = b.Ellipsoid.lower;
           upper = b.Ellipsoid.upper;
         })
      ~accepted:above;
    (match (r', rp, rb) with
    | Some r, Ellipsoid.Cut ep, Ellipsoid.Cut eb ->
        incr cuts;
        if not (ep.Ellipsoid.shape == !plain.Ellipsoid.shape
                && eb.Ellipsoid.shape == !buffered.Ellipsoid.shape)
        then fail "step %d: a cut left the sparse in-place path" !step
        else if not (eb.Ellipsoid.center == !spare) then
          fail "step %d: center_into not used" !step
        else begin
          widest_b :=
            max !widest_b
              (Array.fold_left (fun c v -> if v <> 0. then c + 1 else c) 0 b_buf);
          spare := !buffered.Ellipsoid.center;
          reference := r;
          plain := ep;
          buffered := eb;
          if not (same_as_reference r ep) then
            fail "step %d: unbuffered cut differs from the reference" !step
          else if not (same_as_reference r eb) then
            fail "step %d: buffered cut differs from the reference" !step
        end
    | None, (Ellipsoid.Too_shallow | Ellipsoid.Empty),
      (Ellipsoid.Too_shallow | Ellipsoid.Empty) ->
        if rp <> rb then fail "step %d: exits differ" !step
        else if not (all_nan !spare) then
          fail "step %d: center_into written on a no-cut exit" !step
    | _ -> fail "step %d: cut decisions differ" !step);
    if !failure = None && (!step mod mech_every = 0 || !step = steps) then
      if not (mech_matches ()) then
        fail "step %d: mechanism state differs from the reference" !step
  done;
  match !failure with
  | Some msg -> Error msg
  | None ->
      if 2 * !widest_b >= dim then
        Error (Printf.sprintf "b̃ filled in (%d of %d nonzero)" !widest_b dim)
      else Ok !cuts

let streamed_cut_props =
  [
    prop "streamed sparse cut bit-matches the gathered reference" 2
      QCheck.(int_range 1 1_000_000)
      (fun seed ->
        List.for_all
          (fun (dim, steps, mech_every, min_cuts) ->
            match streamed_cut_run ~seed ~dim ~steps ~mech_every with
            | Ok cuts when cuts >= min_cuts -> true
            | Ok cuts ->
                QCheck.Test.fail_reportf "dim %d: only %d cuts" dim cuts
            | Error msg ->
                QCheck.Test.fail_reportf "dim %d: %s" dim msg)
          (* dims 8 and 128 cross the 1000-cut fold boundary *)
          [ (8, 1_250, 1, 1_000); (128, 1_250, 1, 1_000); (1024, 60, 30, 30) ]);
  ]

(* [Ellipsoid.bounds] as it was before its sparse view also read
   [mid]: the view for the quadratic form only, xᵀc as the dense
   [Vec.dot]. *)
let reference_bounds (e : Ellipsoid.t) ~x =
  let qm =
    match if e.Ellipsoid.dim >= 64 then Vec.Sparse.of_dense x else None with
    | Some sx -> Mat.quad_sparse e.Ellipsoid.shape sx
    | None -> Mat.quad e.Ellipsoid.shape x
  in
  let q = e.Ellipsoid.scale *. qm in
  let half_width = if q <= 0. then 0. else sqrt q in
  let mid = Vec.dot x e.Ellipsoid.center in
  {
    Ellipsoid.lower = mid -. half_width;
    upper = mid +. half_width;
    mid;
    half_width;
  }

let same_bounds (a : Ellipsoid.bounds) (b : Ellipsoid.bounds) =
  bits a.Ellipsoid.lower = bits b.Ellipsoid.lower
  && bits a.Ellipsoid.upper = bits b.Ellipsoid.upper
  && bits a.Ellipsoid.mid = bits b.Ellipsoid.mid
  && bits a.Ellipsoid.half_width = bits b.Ellipsoid.half_width

(* [nnz] draws of either sign at random coordinates, then three −0
   entries (the view skips them as it skips +0). *)
let signed_dir rng ~dim ~nnz =
  let x = Vec.zeros dim in
  for _ = 1 to nnz do
    x.(Rng.int rng dim) <- Dist.normal rng ~mean:0. ~std:2.
  done;
  for _ = 1 to 3 do
    x.(Rng.int rng dim) <- -0.
  done;
  x

(* From a center with +0, −0, negative and positive entries, [cuts]
   sparse in-place cuts (so the shape is scaled), comparing [bounds]
   with the reference before the first cut and after each one, along
   directions with 1 nonzero up to n/8 (the view) and n/4 and n (the
   dense branch).  Returns the final scale, or the first
   disagreement. *)
let bounds_run ~seed ~dim ~cuts =
  let rng = Rng.create seed in
  let center =
    Array.init dim (fun _ ->
        match Rng.int rng 4 with
        | 0 -> 0.
        | 1 -> -0.
        | 2 -> -.Rng.float rng
        | _ -> Rng.float rng)
  in
  let e = ref (Ellipsoid.make ~center ~shape:(Mat.scaled_identity dim 4.)) in
  let pool = Array.init (max 4 (dim / 10)) (fun _ -> Rng.int rng dim) in
  let failure = ref None in
  let check step =
    List.iter
      (fun nnz ->
        let x = signed_dir rng ~dim ~nnz in
        if
          !failure = None
          && not (same_bounds (Ellipsoid.bounds !e ~x) (reference_bounds !e ~x))
        then
          failure :=
            Some (Printf.sprintf "after %d cuts, %d draws: bounds differ" step nnz))
      [ 1; 3; 10; dim / 8; dim / 4; dim ]
  in
  check 0;
  let step = ref 0 in
  while !failure = None && !step < cuts do
    incr step;
    let x = skewed_dir rng ~pool ~nnz:(max 1 (min 10 (dim / 9))) ~dim in
    let b = Ellipsoid.bounds !e ~x in
    let alpha = 0.6 *. Rng.float rng in
    (if Rng.bool rng then
       e :=
         Ellipsoid.apply !e
           (Ellipsoid.cut_below ~mutate:true !e ~x
              ~price:(b.Ellipsoid.mid -. (alpha *. b.Ellipsoid.half_width)))
     else
       e :=
         Ellipsoid.apply !e
           (Ellipsoid.cut_above ~mutate:true !e ~x
              ~price:(b.Ellipsoid.mid +. (alpha *. b.Ellipsoid.half_width))));
    check !step
  done;
  match !failure with Some msg -> Error msg | None -> Ok (Ellipsoid.scale !e)

let bounds_props =
  [
    prop "bounds bit-match the dense-dot formula (dims 64, 128, 1024)" 3
      QCheck.(int_range 1 1_000_000)
      (fun seed ->
        List.for_all
          (fun dim ->
            match bounds_run ~seed ~dim ~cuts:40 with
            | Ok scale when scale <> 1. -> true
            | Ok _ -> QCheck.Test.fail_reportf "dim %d: shape never scaled" dim
            | Error msg -> QCheck.Test.fail_reportf "dim %d: %s" dim msg)
          [ 64; 128; 1024 ]);
  ]

(* The dense cut as it was before it read xᵀMx from its own M·x: a
   copy of [bounds]' quadratic form for the half-width (the gathered
   form at dim ≥ 64 when x is sparse), then a second O(n²) pass for
   M·x. *)
module Bounds_then_matvec = struct
  type t = { center : Vec.t; shape : Mat.t; scale : float; log_vol : float }

  let of_ellipsoid (e : Ellipsoid.t) =
    {
      center = Vec.copy e.Ellipsoid.center;
      shape = Mat.copy e.Ellipsoid.shape;
      scale = e.Ellipsoid.scale;
      log_vol = e.Ellipsoid.log_vol;
    }

  let same t (e : Ellipsoid.t) =
    floats_eq t.center e.Ellipsoid.center
    && floats_eq t.shape.Mat.data e.Ellipsoid.shape.Mat.data
    && bits t.scale = bits e.Ellipsoid.scale
    && bits t.log_vol = bits e.Ellipsoid.log_vol

  let cut_below t ~x ~price =
    let dim = Vec.dim x in
    let qm =
      match if dim >= 64 then Vec.Sparse.of_dense x else None with
      | Some sx -> Mat.quad_sparse t.shape sx
      | None -> Mat.quad t.shape x
    in
    let q = t.scale *. qm in
    let half_width = if q <= 0. then 0. else sqrt q in
    let mid = Vec.dot x t.center in
    let n = float_of_int dim in
    if half_width <= 0. then None
    else
      let alpha = (mid -. price) /. half_width in
      if alpha >= 1. || alpha <= -1. /. n then None
      else begin
        let b = Vec.scale (t.scale /. half_width) (Mat.matvec t.shape x) in
        let center = Vec.copy t.center in
        Vec.axpy (-.(1. +. (n *. alpha)) /. (n +. 1.)) b center;
        let shape, dlog =
          if dim = 1 then
            let f = (1. -. alpha) /. 2. in
            (Mat.rank_one_rescale t.shape ~beta:0. ~b ~factor:(f *. f), log f)
          else
            let beta =
              2. *. (1. +. (n *. alpha)) /. ((n +. 1.) *. (1. +. alpha))
            in
            let factor = n *. n *. (1. -. (alpha *. alpha)) /. ((n *. n) -. 1.) in
            ( Mat.rank_one_rescale t.shape ~beta:(-.(beta /. t.scale)) ~b ~factor,
              0.5 *. ((n *. log factor) +. log1p (-.beta)) )
        in
        Some { t with center; shape; log_vol = t.log_vol +. dlog }
      end

  let cut_above t ~x ~price = cut_below t ~x:(Vec.neg x) ~price:(-.price)
end

(* One dense cut sequence through [Bounds_then_matvec], the
   unbuffered library cut and the buffered one (shape, b and center
   buffers ping-ponged by hand; b and the center NaN-filled before
   each cut).  At
   dims ≥ 8 the start is scaled (scale ≠ 1) by a few sparse in-place
   cuts, and some directions are sparse, so at dim 128 [bounds] takes
   its gathered quadratic form.  Returns the number of cuts taken, or
   the first disagreement. *)
let dense_cut_run ~seed ~dim ~steps =
  let start () =
    let rng = Rng.create (seed + 7) in
    let e = ref (Ellipsoid.ball ~dim ~radius:4.) in
    if dim >= 8 then
      for _ = 1 to 3 do
        let x = sparse_dir rng ~dim in
        let price = (Ellipsoid.bounds !e ~x).Ellipsoid.mid in
        e := Ellipsoid.apply !e (Ellipsoid.cut_below ~mutate:true !e ~x ~price)
      done;
    !e
  in
  let rng = Rng.create seed in
  let plain = ref (start ()) and buffered = ref (start ()) in
  let reference = ref (Bounds_then_matvec.of_ellipsoid (start ())) in
  let spare_shape = ref (Mat.zeros dim dim) and spare_center = ref (Vec.zeros dim) in
  let b_buf = Vec.zeros dim and neg_buf = Vec.zeros dim in
  let failure = ref None and cuts = ref 0 and step = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failure := Some s) fmt in
  if dim >= 8 && Ellipsoid.scale !plain = 1. then fail "start not scaled";
  while !failure = None && !step < steps do
    incr step;
    let x =
      if Rng.int rng 3 = 0 then sparse_dir rng ~dim
      else Dist.normal_vec rng ~dim
    in
    let above = Rng.int rng 3 = 0 in
    let alpha =
      let shallow = -1. /. float_of_int dim in
      match Rng.int rng 10 with
      | 0 -> shallow -. (0.5 *. Rng.float rng)
      | 1 -> 1. +. Rng.float rng
      | _ -> (0.5 *. shallow) +. ((0.6 -. (0.5 *. shallow)) *. Rng.float rng)
    in
    let bd = Ellipsoid.bounds !plain ~x in
    let price =
      if above then bd.Ellipsoid.mid +. (alpha *. bd.Ellipsoid.half_width)
      else bd.Ellipsoid.mid -. (alpha *. bd.Ellipsoid.half_width)
    in
    let r =
      if above then Bounds_then_matvec.cut_above !reference ~x ~price
      else Bounds_then_matvec.cut_below !reference ~x ~price
    in
    let rp =
      if above then Ellipsoid.cut_above !plain ~x ~price
      else Ellipsoid.cut_below !plain ~x ~price
    in
    Array.fill b_buf 0 dim Float.nan;
    Array.fill !spare_center 0 dim Float.nan;
    let into = !spare_shape and center_into = !spare_center in
    let rb =
      if above then
        Ellipsoid.cut_above ~into ~b_into:b_buf ~center_into ~neg_into:neg_buf
          !buffered ~x ~price
      else Ellipsoid.cut_below ~into ~b_into:b_buf ~center_into !buffered ~x ~price
    in
    match (r, rp, rb) with
    | Some r, Ellipsoid.Cut ep, Ellipsoid.Cut eb ->
        incr cuts;
        if not (Bounds_then_matvec.same r ep) then
          fail "step %d: unbuffered cut differs" !step
        else if not (Bounds_then_matvec.same r eb) then
          fail "step %d: buffered cut differs" !step
        else if not (eb.Ellipsoid.shape == into && eb.Ellipsoid.center == center_into)
        then fail "step %d: buffers not used" !step
        else begin
          spare_shape := !buffered.Ellipsoid.shape;
          spare_center := !buffered.Ellipsoid.center;
          plain := ep;
          buffered := eb;
          reference := r
        end
    | None, (Ellipsoid.Too_shallow | Ellipsoid.Empty),
      (Ellipsoid.Too_shallow | Ellipsoid.Empty) ->
        if rp <> rb then fail "step %d: exits differ" !step
        else if not (all_nan center_into) then
          fail "step %d: center_into written on a no-cut exit" !step
    | _ -> fail "step %d: cut decisions differ" !step
  done;
  match !failure with Some msg -> Error msg | None -> Ok !cuts

let dense_cut_props =
  [
    prop "dense cut bit-matches bounds-then-matvec (dims 1, 2, 8, 128)" 10
      QCheck.(int_range 1 1_000_000)
      (fun seed ->
        List.for_all
          (fun (dim, steps) ->
            match dense_cut_run ~seed ~dim ~steps with
            | Ok cuts when cuts >= steps / 2 -> true
            | Ok cuts -> QCheck.Test.fail_reportf "dim %d: only %d cuts" dim cuts
            | Error msg -> QCheck.Test.fail_reportf "dim %d: %s" dim msg)
          [ (1, 60); (2, 100); (8, 100); (128, 40) ]);
  ]

(* A 2×2 shape one ulp off symmetric: M(0,1) = 0.5, M(1,0) = succ 0.5. *)
let ulp_asymmetric_shape () =
  Mat.of_arrays [| [| 1.; 0.5 |]; [| Float.succ 0.5; 1. |] |]

let test_make_exact_symmetry () =
  check_bool "one ulp off raises" true
    (match
       Ellipsoid.make ~center:(Vec.zeros 2) ~shape:(ulp_asymmetric_shape ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* A ±0 pair is the one asymmetry the dense rank-one kernel can leave
     behind, and both M·x routes absorb it exactly. *)
  check_bool "±0 pair accepted" true
    (match
       Ellipsoid.make ~center:(Vec.zeros 2)
         ~shape:(Mat.of_arrays [| [| 1.; -0. |]; [| 0.; 1. |] |])
     with
    | _ -> true
    | exception Invalid_argument _ -> false)

let test_asymmetric_snapshots_refused () =
  (* A binary image of a 2×2 ellipsoid starting at byte [at], with
     M(0,1) and M(1,0) overwritten in place: the shape follows the
     32-byte header and the two center entries. *)
  let patch img ~at a b =
    let by = Bytes.of_string img in
    let entry k = at + 32 + 16 + (8 * k) in
    Bytes.set_int64_le by (entry 1) (Int64.bits_of_float a);
    Bytes.set_int64_le by (entry 2) (Int64.bits_of_float b);
    Bytes.to_string by
  in
  let ball = Ellipsoid.ball ~dim:2 ~radius:1. in
  let img = Ellipsoid.serialize_binary ball in
  check_bool "symmetric binary accepted" false
    (is_error (Ellipsoid.deserialize_binary (patch img ~at:0 0.5 0.5)));
  check_bool "binary refused" true
    (is_error
       (Ellipsoid.deserialize_binary (patch img ~at:0 0.5 (Float.succ 0.5))));
  (* A dense binary mechanism snapshot ends with the ellipsoid image. *)
  let snap =
    Mechanism.snapshot_binary
      (Mechanism.create (Mechanism.config ~variant:Mechanism.pure ~epsilon:0.1 ()) ball)
  in
  let at = String.length snap - String.length img in
  check_bool "symmetric mechanism binary accepted" false
    (is_error (Mechanism.restore (patch snap ~at 0.5 0.5)));
  check_bool "mechanism binary refused" true
    (is_error (Mechanism.restore (patch snap ~at 0.5 (Float.succ 0.5))))

(* ------------------------------------------------------------------ *)
(* Arbitrage                                                           *)
(* ------------------------------------------------------------------ *)

module Arbitrage = Dm_market.Arbitrage

let test_arbitrage_canonical () =
  (* Li et al.: c/v is arbitrage-free, c/v² is not. *)
  let grid = Array.init 12 (fun i -> 0.01 *. (2. ** float_of_int i)) in
  check_bool "inverse variance is AF" true
    (Arbitrage.is_arbitrage_free_on ~grid (Arbitrage.inverse_variance ~c:3.));
  check_bool "inverse variance squared is not" false
    (Arbitrage.is_arbitrage_free_on ~grid
       (Arbitrage.inverse_variance_squared ~c:3.));
  (* The violation is the textbook one: averaging two noisy copies. *)
  let t = Arbitrage.inverse_variance_squared ~c:1. in
  check_bool "explicit violation" true
    (Arbitrage.violates t ~target:1. ~components:[ 2.; 2. ])

let test_arbitrage_capped () =
  let grid = Array.init 12 (fun i -> 0.01 *. (2. ** float_of_int i)) in
  check_bool "capping preserves AF" true
    (Arbitrage.is_arbitrage_free_on ~grid
       (Arbitrage.capped ~cap:5. (Arbitrage.inverse_variance ~c:3.)))

let test_arbitrage_validation () =
  let t = Arbitrage.inverse_variance ~c:1. in
  check_bool "non-positive variance rejected" true
    (match Arbitrage.violates t ~target:0. ~components:[ 1. ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "empty components rejected" true
    (match Arbitrage.violates t ~target:1. ~components:[] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_arbitrage_refuses_nan () =
  let raises name f =
    check_bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "inverse_variance NaN rate" (fun () ->
      ignore (Arbitrage.inverse_variance ~c:nan 1.));
  raises "inverse_variance_squared NaN rate" (fun () ->
      ignore (Arbitrage.inverse_variance_squared ~c:nan 1.));
  raises "capped NaN cap" (fun () ->
      ignore (Arbitrage.capped ~cap:nan (Arbitrage.inverse_variance ~c:1.) 1.));
  let t = Arbitrage.inverse_variance ~c:1. in
  raises "NaN target variance" (fun () ->
      Arbitrage.violates t ~target:nan ~components:[ 1. ]);
  raises "NaN component variance" (fun () ->
      Arbitrage.violates t ~target:1. ~components:[ 1.; nan ])

let arbitrage_props =
  [
    prop "c/v never violated by random bundles" 200
      QCheck.(triple (float_range 0.1 10.) (float_range 0.1 10.) (float_range 0.1 10.))
      (fun (target, v1, v2) ->
        not
          (Arbitrage.violates
             (Arbitrage.inverse_variance ~c:2.)
             ~target ~components:[ v1; v2 ]));
    prop "averaging two equal copies exposes superlinear tariffs" 100
      QCheck.(float_range 0.1 10.)
      (fun v ->
        (* p(v) = v^{-2}: buying two answers at 2v costs half of one at v. *)
        Arbitrage.violates
          (Arbitrage.inverse_variance_squared ~c:1.)
          ~target:v
          ~components:[ 2. *. v; 2. *. v ]);
  ]

(* ------------------------------------------------------------------ *)
(* SGD pricing baseline                                                *)
(* ------------------------------------------------------------------ *)

module Sgd_pricing = Dm_market.Sgd_pricing

let test_sgd_learns_simple_market () =
  let dim = 4 in
  let rng = Rng.create 33 in
  let theta =
    Vec.scale 2. (Vec.normalize (Vec.map abs_float (Dist.normal_vec rng ~dim)))
  in
  let model = Model.linear ~theta in
  let sgd = Sgd_pricing.create ~dim ~radius:2. () in
  let wl_rng = Rng.create 34 in
  let workload _ =
    let x = Vec.normalize (Vec.map abs_float (Dist.normal_vec wl_rng ~dim)) in
    (x, 0.5 *. Vec.dot x theta)
  in
  let r =
    Broker.run
      ~policy:(Broker.Custom (Sgd_pricing.policy sgd))
      ~model
      ~noise:(fun _ -> 0.)
      ~workload ~rounds:4000 ()
  in
  (* The estimate moves toward θ* and the ratio beats posting 0. *)
  check_bool "estimate approaches theta" true
    (Vec.dist2 (Sgd_pricing.estimate sgd) theta < Vec.norm2 theta);
  check_bool "regret ratio below risk-averse floor" true
    (r.Broker.regret_ratio < 0.5);
  check_int "saw every round" 4000 (Sgd_pricing.rounds_seen sgd)

let test_sgd_respects_reserve () =
  let sgd = Sgd_pricing.create ~dim:2 ~radius:1. () in
  let p = Sgd_pricing.policy sgd in
  (match p.Broker.decide ~x:[| 1.; 0. |] ~reserve:0.7 with
  | Some price -> check_bool "floored at reserve" true (price >= 0.7)
  | None -> Alcotest.fail "sgd never skips");
  let free = Sgd_pricing.create ~use_reserve:false ~dim:2 ~radius:1. () in
  let pf = Sgd_pricing.policy free in
  match pf.Broker.decide ~x:[| 1.; 0. |] ~reserve:0.7 with
  | Some price -> check_bool "ignores reserve" true (price < 0.7)
  | None -> Alcotest.fail "sgd never skips"

let test_sgd_validation () =
  check_bool "bad dim" true
    (match Sgd_pricing.create ~dim:0 ~radius:1. () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad radius" true
    (match Sgd_pricing.create ~dim:2 ~radius:0. () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sgd_validation_refuses_nan () =
  check_bool "nan radius" true
    (raises_invalid (fun () -> Sgd_pricing.create ~dim:2 ~radius:nan ()));
  check_bool "nan learning rate" true
    (raises_invalid (fun () ->
         Sgd_pricing.create ~learning_rate:nan ~dim:2 ~radius:1. ()));
  check_bool "nan margin" true
    (raises_invalid (fun () ->
         Sgd_pricing.create ~margin:nan ~dim:2 ~radius:1. ()))

let test_sgd_projection () =
  (* Hammer the learner with accepts along one direction: the estimate
     must stay inside the radius ball. *)
  let sgd = Sgd_pricing.create ~learning_rate:10. ~dim:2 ~radius:1. () in
  let p = Sgd_pricing.policy sgd in
  for _ = 1 to 500 do
    (match p.Broker.decide ~x:[| 1.; 0. |] ~reserve:neg_infinity with
    | Some price ->
        p.Broker.learn ~x:[| 1.; 0. |] ~price:(price +. 10.) ~accepted:true
    | None -> ())
  done;
  check_bool "projected onto ball" true
    (Vec.norm2 (Sgd_pricing.estimate sgd) <= 1. +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Adversary (Lemma 8)                                                 *)
(* ------------------------------------------------------------------ *)

let test_adversary_blowup () =
  let rounds = 2000 and dim = 2 in
  let guarded = Adversary.run ~allow_conservative_cuts:false ~dim ~rounds () in
  let exposed = Adversary.run ~allow_conservative_cuts:true ~dim ~rounds () in
  (* Conservative cuts let the e₂ width explode... *)
  check_bool "width explodes when cuts allowed" true
    (exposed.Adversary.width_e2_at_switch
    > 10. *. guarded.Adversary.width_e2_at_switch);
  (* ...which costs Ω(T) exploratory rounds after the switch... *)
  check_bool "second-half exploration blows up" true
    (exposed.Adversary.exploratory_second_half
    > 4 * guarded.Adversary.exploratory_second_half);
  (* ...and strictly more cumulative regret. *)
  check_bool "regret blows up" true
    (exposed.Adversary.result.Broker.total_regret
    > 2. *. guarded.Adversary.result.Broker.total_regret)

(* Conservative cuts inflate the off-axis widths by (2/√3) each at
   dim 2; with enough headroom between the starting width and float
   max the e₂ width leaves float range mid-run.  The run must detect
   that and raise, not return inf/nan regret rows.  (At radius 1 the
   squared e₁ width underflows to zero first — after ~920 cuts — and
   the widths silently freeze, so the blow-up test above still
   completes; a large radius moves the overflow in front of the
   underflow.) *)
let test_adversary_divergence_detected () =
  let rounds = 2000 and dim = 2 and radius = 1e100 in
  (match
     Adversary.run ~radius ~allow_conservative_cuts:true ~dim ~rounds ()
   with
  | _ -> Alcotest.fail "divergent adversary run returned a result"
  | exception Invalid_argument m ->
      check_bool "names Adversary.run" true
        (String.length m >= 14 && String.sub m 0 14 = "Adversary.run:"));
  let guarded =
    Adversary.run ~radius ~allow_conservative_cuts:false ~dim ~rounds ()
  in
  check_bool "guarded run stays finite at the same radius" true
    (Float.is_finite guarded.Adversary.width_e2_at_switch
    && Float.is_finite guarded.Adversary.result.Broker.total_regret)

(* ------------------------------------------------------------------ *)
(* Robust mechanism: snapshots across a regime switch                  *)
(* ------------------------------------------------------------------ *)

module Adversarial = Dm_synth.Adversarial

(* A stream whose hidden vector jumps at round 60 under heavy-tailed
   noise: by round 70 the robust detector state (window bits, shade,
   possibly a restart) is live, which is exactly what a snapshot must
   carry across a broker restart. *)
let robust_stream seed =
  Adversarial.make ~seed ~dim:3 ~rounds:160
    ~path:(Adversarial.Switches { boundaries = [| 60 |] })
    ~noise:(Adversarial.Student_t { dof = 2.5; scale = 0.05 })
    ~buyer:Adversarial.Truthful ()

let robust_mech () =
  (* ε is deliberately coarse so the conservative phase — where the
     probe cadence, window bits and floor shading all live — arrives
     within a few dozen rounds of the 160-round horizon. *)
  Mechanism.create_robust
    (Mechanism.robust_config ~drift_window:32 ~drift_trigger:8
       ~explore_every:12 ~reinflate_radius:7. ())
    (Mechanism.config
       ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.01)
       ~epsilon:0.8 ())
    (Ellipsoid.ball ~dim:3 ~radius:3.5)

(* Price rounds [from, until) against the buyer's reported decisions,
   returning the decision transcript. *)
let drive mech stream ~from ~until =
  let buf = Buffer.create 256 in
  for i = from to until - 1 do
    let x = Adversarial.feature stream i in
    let d = Mechanism.decide mech ~x ~reserve:(Adversarial.reserve stream i) in
    (match d with
    | Mechanism.Skip -> Buffer.add_string buf "skip\n"
    | Mechanism.Post { price; _ } ->
        Buffer.add_string buf (Printf.sprintf "%h\n" price);
        Mechanism.observe mech ~x d
          ~accepted:(Adversarial.respond stream ~round:i ~price))
  done;
  Buffer.contents buf

let test_robust_snapshot_resume_midswitch () =
  let s = robust_stream 17 in
  let mech = robust_mech () in
  ignore (drive mech s ~from:0 ~until:70);
  check_bool "detector state is live at the checkpoint" true
    (Mechanism.robust_drift_level mech > 0
    || Mechanism.robust_shade mech > 0.
    || Mechanism.robust_restarts mech > 0);
  let bin = Mechanism.snapshot_binary mech in
  let from_bin =
    match Mechanism.restore bin with Ok m -> m | Error e -> Alcotest.fail e
  in
  check_bool "restore reproduces the snapshot" true
    (Mechanism.snapshot_binary from_bin = bin);
  (* Resuming through the rest of the horizon must replay the original
     run bit-for-bit: same prices, same final state. *)
  let tail = drive mech s ~from:70 ~until:160 in
  check_string "restored resume" tail (drive from_bin s ~from:70 ~until:160);
  check_bool "final state identical" true
    (Mechanism.snapshot_binary from_bin = Mechanism.snapshot_binary mech)

(* The robust block of a dm-mech5 image: explore_every, drift_window
   and drift_trigger (u32 each), the reinflate radius (f64),
   since_explore and the contradiction bits (u64 each), the window fill
   and the probe streak (u32 each), the shade (f64) and the restart
   counter (u64). *)
let robust_explore_every = mech_block
let robust_drift_trigger = mech_block + 8
let robust_since_explore = mech_block + 20
let robust_shade_at = mech_block + 44
let robust_restarts_at = mech_block + 52

let test_robust_restore_errors () =
  let bin = Mechanism.snapshot_binary (robust_mech ()) in
  check_bool "valid image accepted" false (is_error (Mechanism.restore bin));
  restore_refused "negative shade"
    (patch bin (set_f64 robust_shade_at (-0.0625)));
  restore_refused "nan shade" (patch bin (set_f64 robust_shade_at Float.nan));
  restore_refused "infinite shade"
    (patch bin (set_f64 robust_shade_at Float.infinity));
  restore_refused "zero probe cadence"
    (patch bin (set_u32 robust_explore_every 0));
  restore_refused "trigger above window"
    (patch bin (set_u32 robust_drift_trigger 63));
  restore_refused "restart counter with its top bit set"
    (patch bin (set_u64 robust_restarts_at Int64.min_int));
  restore_refused "since_explore with its top bit set"
    (patch bin (set_u64 robust_since_explore Int64.min_int));
  restore_refused "truncated binary" (String.sub bin 0 (String.length bin - 5))

let robust_props =
  [
    prop "robust snapshot/restore is bit-for-bit" 30
      QCheck.(pair (0 -- 1000) (0 -- 80))
      (fun (seed, steps) ->
        let s = robust_stream seed in
        let mech = robust_mech () in
        ignore (drive mech s ~from:0 ~until:steps);
        let bin = Mechanism.snapshot_binary mech in
        match Mechanism.restore bin with
        | Ok b -> Mechanism.snapshot_binary b = bin
        | Error _ -> false);
  ]

(* Damaged snapshots never raise: bit flips (half of them aimed at the
   headers in the first 120 bytes), truncation and trailing garbage
   all come back as [Ok] or [Error], from [Mechanism.restore] on a
   dense, projected or robust image and from
   [Ellipsoid.deserialize_binary] on that image's ellipsoid. *)
let decoder_fuzz_props =
  let damage rng s =
    let n = String.length s in
    match Rng.int rng 3 with
    | 0 ->
        let b = Bytes.of_string s in
        for _ = 0 to Rng.int rng 4 do
          let i = Rng.int rng (if Rng.int rng 2 = 0 then min n 120 else n) in
          let bit = 1 lsl Rng.int rng 8 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
        done;
        Bytes.to_string b
    | 1 -> String.sub s 0 (Rng.int rng n)
    | _ -> s ^ String.init (1 + Rng.int rng 32) (fun _ -> Char.chr (Rng.int rng 256))
  in
  let survives name decode img =
    match decode img with
    | Ok _ | Error _ -> true
    | exception ex ->
        QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string ex)
  in
  [
    prop "decoders never raise on flipped, truncated or extended bytes" 1000
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Rng.create seed in
        let steps = Rng.int rng 40 in
        let mech =
          match Rng.int rng 3 with
          | 0 ->
              let dim = 1 + Rng.int rng 4 in
              let m =
                mk_mech
                  ~variant:(Mechanism.with_reserve_and_uncertainty ~delta:0.03)
                  ~epsilon:0.2 ~dim ~radius:1.5 ()
              in
              for _ = 1 to steps do
                let x = Vec.normalize (Dist.normal_vec rng ~dim) in
                ignore
                  (Mechanism.step m ~x ~reserve:(Rng.uniform rng 0. 0.5)
                     ~market_index:(Rng.uniform rng (-1.) 1.))
              done;
              m
          | 1 -> projected_mech_after ~steps ~seed
          | _ ->
              let m = robust_mech () in
              ignore (drive m (robust_stream seed) ~from:0 ~until:(2 * steps));
              m
        in
        let img = Mechanism.snapshot_binary mech in
        let ell = Ellipsoid.serialize_binary (Mechanism.ellipsoid mech) in
        survives "Mechanism.restore" Mechanism.restore (damage rng img)
        && survives "Ellipsoid.deserialize_binary"
             (fun s -> Ellipsoid.deserialize_binary s)
             (damage rng ell));
  ]

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_market"
    [
      ( "ellipsoid",
        [
          Alcotest.test_case "ball" `Quick test_ball;
          Alcotest.test_case "of box" `Quick test_of_box;
          Alcotest.test_case "bounds direction" `Quick test_bounds_direction;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "central cut closed form" `Quick
            test_central_cut_closed_form;
          Alcotest.test_case "shallow cut no-op" `Quick test_cut_shallow_noop;
          Alcotest.test_case "empty cut" `Quick test_cut_empty;
          Alcotest.test_case "cut above = reflection" `Quick
            test_cut_above_is_reflection;
          Alcotest.test_case "1-d bisection" `Quick test_cut_one_dimensional;
          Alcotest.test_case "1-d deep cut" `Quick test_cut_one_dimensional_deep;
          Alcotest.test_case "lemma 2 volume ratio" `Quick test_lemma2_volume_ratio;
          Alcotest.test_case "volume cache resync boundary" `Slow
            test_volume_resync_boundary;
          Alcotest.test_case "cut into caller buffer" `Quick test_cut_into_buffer;
        ]
        @ volume_cache_props @ ellipsoid_props @ dense_cut_props
        @ [
            Alcotest.test_case "ball refuses a NaN radius" `Quick
              test_ball_refuses_nan;
            Alcotest.test_case "make refuses non-finite entries" `Quick
              test_make_refuses_non_finite;
            Alcotest.test_case "of box refuses NaN" `Quick
              test_of_box_refuses_nan;
          ] );
      ( "model",
        [
          Alcotest.test_case "links" `Quick test_links;
          Alcotest.test_case "values" `Quick test_model_values;
          Alcotest.test_case "log-log guard" `Quick test_log_log_guard;
          Alcotest.test_case "kernelized" `Quick test_kernelized_model;
        ]
        @ [
            prop "every link is strictly increasing" 200
              QCheck.(pair (float_range (-4.) 4.) (float_range 0.01 2.))
              (fun (z, step) ->
                List.for_all
                  (fun link ->
                    link.Model.g (z +. step) > link.Model.g z)
                  [ Model.identity_link; Model.exp_link; Model.sigmoid_link ]);
            prop "g_inv . g = id on the working range" 200
              QCheck.(float_range (-4.) 4.)
              (fun z ->
                List.for_all
                  (fun link ->
                    abs_float (link.Model.g_inv (link.Model.g z) -. z) < 1e-6)
                  [ Model.identity_link; Model.exp_link; Model.sigmoid_link ]);
            prop "market value monotone in the index (all links)" 100
              QCheck.(pair (float_range (-2.) 2.) (float_range 0.01 1.))
              (fun (noise, bump) ->
                let theta = [| 1.; 0.5 |] in
                let x = [| 0.4; 0.6 |] in
                List.for_all
                  (fun mk ->
                    let m = mk ~theta in
                    Model.value ~noise:(noise +. bump) m x
                    > Model.value ~noise m x)
                  [ Model.linear; Model.log_linear; Model.logistic ]);
            Alcotest.test_case "log-log refuses NaN" `Quick
              test_log_log_refuses_nan;
          ] );
      ( "regret",
        [
          Alcotest.test_case "cases" `Quick test_regret_cases;
          Alcotest.test_case "fig 1 shape" `Quick test_fig1_shape;
        ]
        @ regret_props );
      ( "feature",
        [
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "uneven partitions" `Quick test_aggregate_uneven;
          Alcotest.test_case "of compensations" `Quick test_of_compensations;
          Alcotest.test_case "aggregate rejects NaN" `Quick
            test_aggregate_rejects_nan;
        ]
        @ feature_props @ phi_props
        @ [ Alcotest.test_case "phi allocation" `Quick test_phi_allocation ] );
      ( "mechanism",
        [
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "skip condition" `Quick test_mechanism_skip;
          Alcotest.test_case "reserve floor" `Quick test_mechanism_reserve_floor;
          Alcotest.test_case "exploratory mid" `Quick test_mechanism_exploratory_mid;
          Alcotest.test_case "conservative never cuts" `Quick
            test_mechanism_conservative_no_cut;
          Alcotest.test_case "exploratory cut shrinks" `Quick
            test_mechanism_exploratory_cut_shrinks;
          Alcotest.test_case "uncertainty buffer" `Quick
            test_mechanism_uncertainty_buffer;
          Alcotest.test_case "conservative with delta" `Quick
            test_mechanism_conservative_with_delta;
          Alcotest.test_case "ellipsoid accessor escape safety" `Quick
            test_mechanism_ellipsoid_escape;
          Alcotest.test_case "te bound formula" `Quick test_te_upper_bound;
          Alcotest.test_case "rejects poisoned input" `Quick
            test_mechanism_rejects_poisoned_input;
          Alcotest.test_case "survives a lying buyer" `Quick
            test_mechanism_survives_lying_buyer;
        ]
        @ mechanism_props
        @ [
            Alcotest.test_case "te bound refuses NaN" `Quick
              test_te_upper_bound_refuses_nan;
          ] );
      ( "broker",
        [
          Alcotest.test_case "sublinear regret" `Quick test_broker_regret_sublinear;
          Alcotest.test_case "reserve mitigates cold start" `Quick
            test_broker_reserve_beats_pure_early;
          Alcotest.test_case "beats risk-averse baseline" `Quick
            test_broker_risk_averse;
          Alcotest.test_case "round logs" `Quick test_broker_round_logs;
          Alcotest.test_case "conservation identity" `Quick
            test_broker_conservation;
          Alcotest.test_case "checkpoints" `Quick test_broker_checkpoints;
          Alcotest.test_case "edge cases" `Quick test_broker_edge_cases;
          Alcotest.test_case "checkpoint validation" `Quick
            test_broker_checkpoint_validation;
          Alcotest.test_case "log-linear consistency" `Quick
            test_broker_log_linear_consistency;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "ellipsoid roundtrip" `Quick
            test_ellipsoid_serialization_roundtrip;
          Alcotest.test_case "ellipsoid error cases" `Quick
            test_ellipsoid_deserialize_errors;
          Alcotest.test_case "mechanism snapshot roundtrip" `Quick
            test_mechanism_snapshot_roundtrip;
          Alcotest.test_case "mechanism restore errors" `Quick
            test_mechanism_restore_errors;
          Alcotest.test_case "non-finite rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "forged dimension allocates nothing" `Quick
            test_forged_dim_allocates_nothing;
        ]
        @ serialization_props @ decoder_fuzz_props );
      ( "projected",
        [
          Alcotest.test_case "identity projection matches dense" `Quick
            test_projected_identity_matches_dense;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_projected_snapshot_roundtrip;
          Alcotest.test_case "restore rejects corrupt projections" `Quick
            test_projected_restore_errors;
        ]
        @ projected_props );
      ( "batched decide",
        [
          Alcotest.test_case "bit-matches sequential across dims/batches"
            `Quick test_batch_matches_sequential;
          Alcotest.test_case "validation" `Quick test_batch_decide_validation;
          Alcotest.test_case "projected_feature memo" `Quick
            test_projected_feature_memo;
          Alcotest.test_case "escaped ellipsoid safe under batched serving"
            `Quick test_batch_escape_safety;
        ]
        @ batch_decide_props );
      ( "sparse cuts",
        [
          Alcotest.test_case "equivalence across dims {1,2,8,128}" `Quick
            test_equivalence_across_dims;
          Alcotest.test_case "in-place mutation contract" `Quick
            test_inplace_contract;
          Alcotest.test_case "scaled snapshot round-trip" `Quick
            test_scaled_serialization;
          Alcotest.test_case "escaped ellipsoid safe under sparse cuts" `Quick
            test_mechanism_sparse_escape_safety;
          Alcotest.test_case "make requires exact symmetry" `Quick
            test_make_exact_symmetry;
          Alcotest.test_case "asymmetric snapshots refused" `Quick
            test_asymmetric_snapshots_refused;
        ]
        @ sparse_equivalence_props @ streamed_cut_props @ bounds_props );
      ( "robust",
        [
          Alcotest.test_case "snapshot resume across a switch" `Quick
            test_robust_snapshot_resume_midswitch;
          Alcotest.test_case "restore validation" `Quick
            test_robust_restore_errors;
        ]
        @ robust_props );
      ( "arbitrage",
        [
          Alcotest.test_case "canonical tariffs" `Quick test_arbitrage_canonical;
          Alcotest.test_case "capping" `Quick test_arbitrage_capped;
          Alcotest.test_case "validation" `Quick test_arbitrage_validation;
        ]
        @ arbitrage_props
        @ [
            Alcotest.test_case "refuses NaN" `Quick test_arbitrage_refuses_nan;
          ] );
      ( "sgd_pricing",
        [
          Alcotest.test_case "learns a simple market" `Quick
            test_sgd_learns_simple_market;
          Alcotest.test_case "respects the reserve" `Quick test_sgd_respects_reserve;
          Alcotest.test_case "validation" `Quick test_sgd_validation;
          Alcotest.test_case "ball projection" `Quick test_sgd_projection;
          Alcotest.test_case "validation refuses NaN" `Quick
            test_sgd_validation_refuses_nan;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "lemma 8 blow-up" `Slow test_adversary_blowup;
          Alcotest.test_case "divergence detected, not inf/nan" `Slow
            test_adversary_divergence_detected;
        ] );
    ]
