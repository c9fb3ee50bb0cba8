(* Unit and property tests for the dm_ml substrate. *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Categorical = Dm_ml.Categorical
module Hashing = Dm_ml.Hashing
module Linreg = Dm_ml.Linreg
module Ftrl = Dm_ml.Ftrl
module Pca = Dm_ml.Pca
module Kernel = Dm_ml.Kernel
module Split = Dm_ml.Split
module Exp_weights = Dm_ml.Exp_weights
module Ftpl = Dm_ml.Ftpl

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-5))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

let float_bits_eq a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bits_equal_vec a b =
  Array.length a = Array.length b && Array.for_all2 float_bits_eq a b

(* ------------------------------------------------------------------ *)
(* Categorical                                                         *)
(* ------------------------------------------------------------------ *)

let test_categorical_codes () =
  let col = [| Some "ny"; Some "la"; None; Some "ny"; Some "sf" |] in
  let enc = Categorical.fit col in
  check_int "cardinality" 3 (Categorical.cardinality enc);
  check_int "first seen" 0 (Categorical.code enc (Some "ny"));
  check_int "second seen" 1 (Categorical.code enc (Some "la"));
  check_int "third seen" 2 (Categorical.code enc (Some "sf"));
  check_int "missing" (-1) (Categorical.code enc None);
  check_int "unseen" (-1) (Categorical.code enc (Some "boston"));
  check_bool "transform" true
    (Categorical.transform enc col = [| 0; 1; -1; 0; 2 |]);
  check_float "code_float" 1. (Categorical.code_float enc (Some "la"))

let test_categorical_one_hot () =
  let enc = Categorical.fit [| Some "a"; Some "b" |] in
  check_bool "one hot a" true
    (Vec.approx_equal (Categorical.one_hot enc (Some "a")) [| 1.; 0. |]);
  check_bool "one hot missing" true
    (Vec.approx_equal (Categorical.one_hot enc None) [| 0.; 0. |])

let test_categorical_categories () =
  let enc = Categorical.fit [| Some "x"; Some "y"; Some "x" |] in
  check_bool "order preserved" true
    (Categorical.categories enc = [| "x"; "y" |])

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

let test_hashing_determinism () =
  check_bool "fnv stable" true
    (Hashing.fnv1a64 "device=abc" = Hashing.fnv1a64 "device=abc");
  check_bool "fnv distinguishes" true
    (Hashing.fnv1a64 "a" <> Hashing.fnv1a64 "b");
  check_int "bucket stable" (Hashing.bucket ~dim:128 "k=v")
    (Hashing.bucket ~dim:128 "k=v")

let test_hashing_encode () =
  let fs = Hashing.encode ~dim:64 [ ("site", "s1"); ("app", "a1") ] in
  check_bool "in range" true
    (List.for_all (fun f -> f.Hashing.index >= 0 && f.Hashing.index < 64) fs);
  check_bool "sorted unique" true
    (let idx = List.map (fun f -> f.Hashing.index) fs in
     idx = List.sort_uniq compare idx);
  (* Duplicate fields accumulate. *)
  let fs2 = Hashing.encode ~dim:64 [ ("site", "s1"); ("site", "s1") ] in
  check_bool "accumulates" true
    (List.exists (fun f -> f.Hashing.value = 2.) fs2)

let test_hashing_dense_dot () =
  let fs = Hashing.encode ~dim:16 [ ("f", "v") ] in
  let dense = Hashing.to_dense ~dim:16 fs in
  check_float "dot matches dense" (Vec.dot dense dense)
    (Hashing.dot_dense fs dense)

let test_hashing_normalize () =
  let fs = Hashing.encode ~dim:32 [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let unit = Hashing.normalize fs in
  let norm =
    sqrt (List.fold_left (fun acc f -> acc +. (f.Hashing.value ** 2.)) 0. unit)
  in
  check_bool "unit L2" true (abs_float (norm -. 1.) < 1e-9);
  check_bool "empty unchanged" true (Hashing.normalize [] = [])

let hashing_props =
  [
    prop "buckets always in range" 200
      QCheck.(pair (int_range 1 2048) string)
      (fun (dim, s) ->
        let b = Hashing.bucket ~dim s in
        b >= 0 && b < dim);
    prop "dense roundtrip preserves values" 100
      QCheck.(small_list (pair (string_of_size (QCheck.Gen.return 3)) (string_of_size (QCheck.Gen.return 3))))
      (fun fields ->
        let fs = Hashing.encode ~dim:256 fields in
        let dense = Hashing.to_dense ~dim:256 fs in
        List.for_all
          (fun f -> dense.(f.Hashing.index) = f.Hashing.value)
          fs);
  ]

(* [Hashing] as it stood before [encode] stopped concatenating strings
   and counting in a table, kept verbatim (its boxing hash loop
   included): the library must reproduce it bit for bit on every
   input. *)
module Reference_hashing = struct
  type feature = Hashing.feature = { index : int; value : float }

  let fnv1a64 s =
    let open Int64 in
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun ch ->
        h := logxor !h (of_int (Char.code ch));
        h := mul !h 0x100000001B3L)
      s;
    !h

  let bucket ~dim key =
    if dim < 1 then invalid_arg "Hashing.bucket: dim must be >= 1";
    let h = fnv1a64 key in
    let positive = Int64.shift_right_logical h 1 in
    Int64.to_int (Int64.rem positive (Int64.of_int dim))

  let encode ~dim fields =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (field, value) ->
        let b = bucket ~dim (field ^ "=" ^ value) in
        let prev = match Hashtbl.find_opt tbl b with Some v -> v | None -> 0. in
        Hashtbl.replace tbl b (prev +. 1.))
      fields;
    Hashtbl.fold (fun index value acc -> { index; value } :: acc) tbl []
    |> List.sort (fun a b -> compare a.index b.index)

  let to_dense ~dim features =
    let v = Dm_linalg.Vec.zeros dim in
    List.iter
      (fun { index; value } ->
        if index < 0 || index >= dim then
          invalid_arg "Hashing.to_dense: index out of range";
        Dm_linalg.Vec.set v index value)
      features;
    v
end

let same_features (a : Hashing.feature list) (b : Hashing.feature list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Hashing.feature) (y : Hashing.feature) ->
         x.Hashing.index = y.Hashing.index
         && float_bits_eq x.Hashing.value y.Hashing.value)
       a b

(* The outcome of [f] compared by value or by the exception raised. *)
let outcome f = match f () with v -> Ok v | exception e -> Error e

(* Field lists over every byte, with ['='] frequent enough that pairs
   like ("a=", "b") and ("a", "=b") share a key; pairs drawn from a
   small pool so duplicates are common; lengths on both sides of the
   insertion-sort limit (32) and well past it; the empty list; and
   moduli from 1 (every pair collides) to 2²⁰. *)
let hashing_case_arb =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (6, map Char.chr (int_range 0 255));
        (2, return '=');
        (2, oneofl [ 'a'; 'b'; '0' ]);
      ]
  in
  let str = string_size ~gen:byte (int_range 0 8) in
  let gen =
    let* dim = oneofl [ 1; 2; 3; 7; 64; 1024; 1 lsl 20 ] in
    let* pool = list_size (int_range 1 6) (pair str str) in
    let* len =
      frequency
        [
          (2, return 0);
          (6, int_range 1 12);
          (2, int_range 30 34);
          (1, int_range 60 300);
        ]
    in
    let* fields =
      list_repeat len (frequency [ (1, pair str str); (1, oneofl pool) ])
    in
    return (dim, fields)
  in
  QCheck.make
    ~print:(fun (dim, fields) ->
      Printf.sprintf "dim %d: [%s]" dim
        (String.concat "; "
           (List.map (fun (f, v) -> Printf.sprintf "(%S, %S)" f v) fields)))
    gen

let hashing_reference_props =
  [
    prop "encode bit-matches the string-and-table reference" 500
      hashing_case_arb
      (fun (dim, fields) ->
        let got = Hashing.encode ~dim fields in
        same_features got (Reference_hashing.encode ~dim fields)
        && bits_equal_vec
             (Hashing.to_dense ~dim got)
             (Reference_hashing.to_dense ~dim got));
    prop "fnv1a64 and bucket match the reference" 300
      QCheck.(pair (int_range 1 (1 lsl 20)) (string_gen (Gen.map Char.chr (Gen.int_range 0 255))))
      (fun (dim, s) ->
        Int64.equal (Hashing.fnv1a64 s) (Reference_hashing.fnv1a64 s)
        && Hashing.bucket ~dim s = Reference_hashing.bucket ~dim s);
  ]

let test_fnv1a64_published_vectors () =
  (* The FNV-1a 64-bit test vectors of the FNV reference code. *)
  List.iter
    (fun (s, h) ->
      check_bool (Printf.sprintf "fnv1a64 %S" s) true
        (Int64.equal (Hashing.fnv1a64 s) h))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

let test_hashing_encode_edges () =
  let all_bytes = String.init 256 Char.chr in
  let cases =
    [
      (0, []);
      (1, []);
      (0, [ ("a", "b") ]);
      (-3, [ ("a", "b") ]);
      (1, [ ("a", "b"); ("c", "d") ]);
      (64, [ ("a=", "b"); ("a", "=b"); ("a", "b") ]);
      (64, [ ("=", "="); ("", "=="); ("==", "") ]);
      (1024, [ (all_bytes, ""); ("", all_bytes); (all_bytes, all_bytes) ]);
      (7, List.init 40 (fun i -> (string_of_int (i mod 5), "v")));
    ]
  in
  List.iter
    (fun (dim, fields) ->
      let name = Printf.sprintf "dim %d, %d pairs" dim (List.length fields) in
      match
        ( outcome (fun () -> Hashing.encode ~dim fields),
          outcome (fun () -> Reference_hashing.encode ~dim fields) )
      with
      | Ok got, Ok want -> check_bool name true (same_features got want)
      | Error e, Error e' -> check_bool (name ^ ": same error") true (e = e')
      | _ -> Alcotest.failf "%s: one side raised" name)
    cases;
  (* "a=" ^ "b" and "a" ^ "=b" are one key: a count of two. *)
  check_bool "'=' inside a field collides" true
    (match Hashing.encode ~dim:64 [ ("a=", "b"); ("a", "=b") ] with
    | [ { Hashing.value = 2.; _ } ] -> true
    | _ -> false)

(* App 3's set-up, streamed, against the parent's: every training
   impression generated up front, encoded through the reference, and
   FTRL trained on the result with [Impression.make]'s parameters. *)
let test_impression_setup_streamed () =
  let module Impression = Dm_apps.Impression in
  let module Avazu = Dm_synth.Avazu in
  let seed = 41 and dim = 1024 and train_rounds = 2000 and rounds = 300 in
  let imp = Impression.make ~train_rounds ~seed ~dim ~rounds () in
  let root = Rng.create seed in
  let train_rng = Rng.split root in
  let price_rng = Rng.split root in
  let encode i = Reference_hashing.encode ~dim (("bias", "1") :: i.Avazu.fields) in
  let examples =
    Array.map
      (fun i -> (encode i, i.Avazu.clicked))
      (Avazu.generate train_rng ~rounds:train_rounds)
  in
  let ftrl =
    Ftrl.create
      ~params:
        {
          Ftrl.alpha = 0.1;
          beta = 1.;
          l1 = 0.8 *. sqrt (float_of_int train_rounds);
          l2 = 1.;
        }
      ~dim ()
  in
  Ftrl.train ftrl examples ~epochs:2;
  check_bool "theta bits" true
    (bits_equal_vec (Ftrl.weights ftrl)
       imp.Impression.sparse_model.Dm_market.Model.theta);
  check_int "nonzeros" (Ftrl.nonzeros ftrl) imp.Impression.theta_nonzeros;
  check_bool "log loss bits" true
    (float_bits_eq (Ftrl.log_loss ftrl examples) imp.Impression.train_log_loss);
  let pricing = Avazu.generate price_rng ~rounds in
  check_bool "pricing stream bits" true
    (Array.for_all2
       (fun i x -> bits_equal_vec (Reference_hashing.to_dense ~dim (encode i)) x)
       pricing imp.Impression.sparse_stream)

(* ------------------------------------------------------------------ *)
(* Linreg                                                              *)
(* ------------------------------------------------------------------ *)

let test_linreg_exact_recovery () =
  (* Noiseless data from y = 2x₀ − 3x₁ + 5 must be recovered exactly. *)
  let rng = Rng.create 100 in
  let rows = 50 in
  let x = Mat.init rows 2 (fun _ _ -> Rng.uniform rng (-5.) 5.) in
  let y =
    Vec.init rows (fun i ->
        (2. *. Mat.get x i 0) -. (3. *. Mat.get x i 1) +. 5.)
  in
  let m = Linreg.fit x y in
  check_float_loose "w0" 2. (Vec.get m.Linreg.weights 0);
  check_float_loose "w1" (-3.) (Vec.get m.Linreg.weights 1);
  check_float_loose "intercept" 5. m.Linreg.intercept;
  check_bool "mse ~ 0" true (Linreg.mse m x y < 1e-10);
  check_bool "r2 = 1" true (Linreg.r2 m x y > 1. -. 1e-9)

let test_linreg_noisy () =
  let rng = Rng.create 101 in
  let rows = 2000 in
  let x = Mat.init rows 3 (fun _ _ -> Dist.normal rng ~mean:0. ~std:1.) in
  let w = [| 1.; -2.; 0.5 |] in
  let y =
    Vec.init rows (fun i ->
        Vec.dot (Mat.row x i) w +. Dist.normal rng ~mean:0. ~std:0.3)
  in
  let m = Linreg.fit x y in
  Array.iteri
    (fun j wj ->
      check_bool
        (Printf.sprintf "w%d close" j)
        true
        (abs_float (Vec.get m.Linreg.weights j -. wj) < 0.05))
    w;
  (* Residual MSE should approach the noise variance 0.09. *)
  check_bool "mse near noise floor" true (abs_float (Linreg.mse m x y -. 0.09) < 0.02)

let test_linreg_no_intercept () =
  let x = Mat.of_arrays [| [| 1. |]; [| 2. |]; [| 3. |] |] in
  let y = [| 2.; 4.; 6. |] in
  let m = Linreg.fit ~intercept:false x y in
  check_float_loose "slope" 2. (Vec.get m.Linreg.weights 0);
  check_float "no intercept" 0. m.Linreg.intercept

let test_linreg_collinear () =
  (* Duplicated column: ridge escalation must still return finite weights. *)
  let x = Mat.of_arrays [| [| 1.; 1. |]; [| 2.; 2. |]; [| 3.; 3. |] |] in
  let y = [| 2.; 4.; 6. |] in
  let m = Linreg.fit x y in
  check_bool "finite" true (Array.for_all Float.is_finite m.Linreg.weights);
  check_bool "still predicts" true (Linreg.mse m x y < 1e-4)

let test_linreg_shape_errors () =
  let x = Mat.of_arrays [| [| 1. |] |] in
  check_bool "target mismatch" true
    (match Linreg.fit x [| 1.; 2. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Ftrl                                                                *)
(* ------------------------------------------------------------------ *)

let sparse_example rng ~dim ~theta =
  (* A random 5-hot example labelled by a ground-truth sparse logistic model. *)
  let active = Array.init 5 (fun _ -> Rng.int rng dim) in
  let features =
    Array.to_list active
    |> List.sort_uniq compare
    |> List.map (fun i -> { Hashing.index = i; value = 1. })
  in
  let z = List.fold_left (fun acc f -> acc +. theta.(f.Hashing.index)) 0. features in
  let p = 1. /. (1. +. exp (-.z)) in
  (features, Rng.float rng < p)

let make_corpus seed ~dim ~rows =
  let rng = Rng.create seed in
  let theta =
    Array.init dim (fun i -> if i < 8 then (if i mod 2 = 0 then 2. else -2.) else 0.)
  in
  (Array.init rows (fun _ -> sparse_example rng ~dim ~theta), theta)

let test_ftrl_learns () =
  let corpus, _ = make_corpus 7 ~dim:64 ~rows:4000 in
  let model = Ftrl.create ~params:{ Ftrl.alpha = 0.1; beta = 1.; l1 = 0.5; l2 = 1. } ~dim:64 () in
  let before = Ftrl.log_loss model corpus in
  Ftrl.train model corpus ~epochs:3;
  let after = Ftrl.log_loss model corpus in
  check_bool "loss decreases" true (after < before);
  (* Must clearly beat the p=0.5 constant predictor (loss log 2). *)
  check_bool "beats random" true (after < log 2. *. 0.95)

let test_ftrl_sparsity_monotone_in_l1 () =
  let corpus, _ = make_corpus 8 ~dim:64 ~rows:2000 in
  let run l1 =
    let m = Ftrl.create ~params:{ Ftrl.alpha = 0.1; beta = 1.; l1; l2 = 1. } ~dim:64 () in
    Ftrl.train m corpus ~epochs:2;
    Ftrl.nonzeros m
  in
  let loose = run 0.01 and tight = run 5. in
  check_bool "higher l1, fewer nonzeros" true (tight <= loose);
  check_bool "some signal survives" true (loose > 0)

let test_ftrl_weight_closed_form () =
  (* Untrained model: z = 0 everywhere, so all weights are clipped to 0. *)
  let m = Ftrl.create ~dim:4 () in
  check_int "all zero" 0 (Ftrl.nonzeros m);
  check_float "predict 0.5 at init" 0.5 (Ftrl.predict m [ { Hashing.index = 0; value = 1. } ])

let test_ftrl_prediction_range () =
  let corpus, _ = make_corpus 9 ~dim:32 ~rows:500 in
  let m = Ftrl.create ~dim:32 () in
  Ftrl.train m corpus ~epochs:1;
  Array.iter
    (fun (x, _) ->
      let p = Ftrl.predict m x in
      check_bool "in (0,1)" true (p > 0. && p < 1.))
    corpus

let test_ftrl_validation () =
  check_bool "bad alpha" true
    (match Ftrl.create ~params:{ Ftrl.alpha = 0.; beta = 1.; l1 = 0.; l2 = 0. } ~dim:4 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad dim" true
    (match Ftrl.create ~dim:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_ftrl_validation_nan () =
  let base = { Ftrl.alpha = 0.1; beta = 1.; l1 = 1.; l2 = 1. } in
  List.iter
    (fun (name, params) ->
      check_bool (name ^ " NaN refused") true
        (match Ftrl.create ~params ~dim:4 () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("alpha", { base with Ftrl.alpha = Float.nan });
      ("beta", { base with Ftrl.beta = Float.nan });
      ("l1", { base with Ftrl.l1 = Float.nan });
      ("l2", { base with Ftrl.l2 = Float.nan });
    ]

(* ------------------------------------------------------------------ *)
(* Logreg (batch)                                                      *)
(* ------------------------------------------------------------------ *)

module Logreg = Dm_ml.Logreg

let logreg_corpus seed ~rows =
  let rng = Rng.create seed in
  let w = [| 2.; -1.5; 0.8 |] and b = -0.4 in
  let x = Mat.init rows 3 (fun _ _ -> Dist.normal rng ~mean:0. ~std:1.) in
  let labels =
    Array.init rows (fun i ->
        let z = Vec.dot (Mat.row x i) w +. b in
        Rng.float rng < 1. /. (1. +. exp (-.z)))
  in
  (x, labels, w, b)

let test_logreg_learns () =
  let x, labels, w, b = logreg_corpus 50 ~rows:4000 in
  let m = Logreg.fit x labels in
  (* Recovered weights point the right way and the loss beats the
     constant predictor. *)
  Array.iteri
    (fun j wj ->
      check_bool
        (Printf.sprintf "sign of w%d" j)
        true
        (wj *. Vec.get m.Logreg.weights j > 0.))
    w;
  check_bool "bias sign" true (b *. m.Logreg.bias > 0.);
  let base_rate =
    Array.fold_left (fun acc l -> if l then acc +. 1. else acc) 0. labels
    /. 4000.
  in
  let base_entropy =
    -.((base_rate *. log base_rate)
      +. ((1. -. base_rate) *. log (1. -. base_rate)))
  in
  check_bool "beats constant" true (Logreg.log_loss m x labels < base_entropy)

let test_logreg_predictions_in_range () =
  let x, labels, _, _ = logreg_corpus 51 ~rows:500 in
  let m = Logreg.fit ~params:{ Logreg.default_params with Logreg.iterations = 30 } x labels in
  for i = 0 to 499 do
    let p = Logreg.predict m (Mat.row x i) in
    check_bool "in (0,1)" true (p > 0. && p < 1.)
  done

let test_logreg_l2_shrinks () =
  let x, labels, _, _ = logreg_corpus 52 ~rows:1000 in
  let norm l2 =
    let m = Logreg.fit ~params:{ Logreg.default_params with Logreg.l2 } x labels in
    Vec.norm2 m.Logreg.weights
  in
  check_bool "heavier l2, smaller weights" true (norm 1. < norm 1e-6)

let test_logreg_validation () =
  check_bool "shape mismatch" true
    (match Logreg.fit (Mat.identity 2) [| true |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad params" true
    (match
       Logreg.fit
         ~params:{ Logreg.learning_rate = 0.; l2 = 0.; iterations = 1 }
         (Mat.identity 2) [| true; false |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_logreg_refuses_nan () =
  let fit ~learning_rate ~l2 () =
    ignore
      (Logreg.fit
         ~params:{ Logreg.learning_rate; l2; iterations = 1 }
         (Mat.identity 2) [| true; false |])
  in
  Alcotest.check_raises "nan learning rate"
    (Invalid_argument "Logreg.fit: learning rate must be > 0, not NaN")
    (fit ~learning_rate:nan ~l2:0.);
  Alcotest.check_raises "nan l2"
    (Invalid_argument "Logreg.fit: negative or NaN l2")
    (fit ~learning_rate:0.5 ~l2:nan)

(* ------------------------------------------------------------------ *)
(* Pca                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pca_axis_aligned () =
  (* Variance concentrated on axis 0: the first component must align. *)
  let rng = Rng.create 20 in
  let x =
    Mat.init 300 3 (fun _ j ->
        let s = if j = 0 then 5. else 0.1 in
        Dist.normal rng ~mean:0. ~std:s)
  in
  let p = Pca.fit ~components:1 x in
  let c0 = Mat.row p.Pca.components 0 in
  check_bool "axis 0 dominates" true (abs_float c0.(0) > 0.99);
  check_bool "explains most variance" true (Pca.explained_ratio p > 0.95)

let test_pca_reconstruction () =
  let rng = Rng.create 21 in
  let x = Mat.init 100 4 (fun _ _ -> Dist.normal rng ~mean:1. ~std:2.) in
  let p = Pca.fit x in
  (* Full-rank PCA reconstructs exactly. *)
  let sample = Mat.row x 17 in
  let recon = Pca.reconstruct p (Pca.transform p sample) in
  check_bool "roundtrip" true (Vec.approx_equal ~tol:1e-6 recon sample)

let test_pca_explained_sorted () =
  let rng = Rng.create 22 in
  let x = Mat.init 200 5 (fun _ j -> Dist.normal rng ~mean:0. ~std:(float_of_int (j + 1))) in
  let p = Pca.fit x in
  let ev = p.Pca.explained_variance in
  for i = 0 to Vec.dim ev - 2 do
    check_bool "descending" true (ev.(i) >= ev.(i + 1) -. 1e-9)
  done

let test_pca_transform_into_and_all () =
  (* [transform ?into], [transform] and [transform_all] promise the
     same bits: one ascending-feature reduction per output element
     (multiplication commutes bitwise, so the batch matmul_tt path is
     exact too). *)
  let rng = Rng.create 24 in
  let x = Mat.init 60 7 (fun _ _ -> Dist.normal rng ~mean:0.5 ~std:2.) in
  let p = Pca.fit ~components:3 x in
  let all = Pca.transform_all p x in
  let into = Vec.zeros 3 in
  let bits_equal a b =
    Array.for_all2
      (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
      a b
  in
  for i = 0 to 59 do
    let row = Mat.row x i in
    let t = Pca.transform p row in
    check_bool "transform_all bit-matches per-sample" true
      (bits_equal (Mat.row all i) t);
    check_bool "into bit-matches allocating" true
      (bits_equal (Pca.transform ~into p row) t);
    check_bool "into receives the result" true (bits_equal into t)
  done;
  check_bool "transform_all shape mismatch" true
    (match Pca.transform_all p (Mat.identity 3) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Subspace                                                            *)
(* ------------------------------------------------------------------ *)

module Subspace = Dm_ml.Subspace
module Pool = Dm_linalg.Pool

let with_default_pool jobs f =
  Pool.with_pool ~jobs (fun p ->
      Pool.set_default (Some p);
      Fun.protect ~finally:(fun () -> Pool.set_default None) f)

(* Planted spectrum: descending per-feature stds give a clean gap, so
   both solvers must find the same leading directions. *)
let spectrum_sample seed ~rows ~cols =
  let rng = Rng.create seed in
  Mat.init rows cols (fun _ j ->
      Dist.normal rng ~mean:0. ~std:(2. ** float_of_int (-j)))

let test_subspace_matches_pca () =
  let x = spectrum_sample 40 ~rows:300 ~cols:10 in
  let k = 4 in
  let sub = Subspace.fit ~rng:(Rng.create 41) ~components:k x in
  let pca = Pca.fit ~components:k x in
  check_bool "mean agrees" true
    (Vec.approx_equal ~tol:1e-12 sub.Subspace.mean pca.Pca.mean);
  for i = 0 to k - 1 do
    let ev_s = sub.Subspace.explained_variance.(i) in
    let ev_p = pca.Pca.explained_variance.(i) in
    check_bool
      (Printf.sprintf "eigenvalue %d within 1e-3 relative" i)
      true
      (abs_float (ev_s -. ev_p) <= 1e-3 *. ev_p);
    let cos =
      Vec.dot (Mat.row sub.Subspace.components i) (Mat.row pca.Pca.components i)
    in
    check_bool (Printf.sprintf "direction %d aligned" i) true
      (abs_float cos > 0.999)
  done;
  check_bool "total variance agrees" true
    (abs_float (sub.Subspace.total_variance -. pca.Pca.total_variance)
    <= 1e-9 *. pca.Pca.total_variance);
  check_bool "explained ratio agrees" true
    (abs_float (Subspace.explained_ratio sub -. Pca.explained_ratio pca) < 1e-3)

let test_subspace_orthonormal_rows () =
  let x = spectrum_sample 42 ~rows:80 ~cols:12 in
  let sub = Subspace.fit ~rng:(Rng.create 43) ~components:5 x in
  let c = sub.Subspace.components in
  for i = 0 to 4 do
    for j = 0 to 4 do
      let g = Vec.dot (Mat.row c i) (Mat.row c j) in
      let expect = if i = j then 1. else 0. in
      check_bool (Printf.sprintf "gram %d %d" i j) true
        (abs_float (g -. expect) < 1e-9)
    done
  done

let test_subspace_full_rank_residual () =
  (* k = d: the basis spans everything, so reconstruction is exact up
     to roundoff and the transform matches Pca's bitwise contract
     shape (project on orthonormal rows). *)
  let x = spectrum_sample 44 ~rows:50 ~cols:6 in
  let sub = Subspace.fit ~rng:(Rng.create 45) ~components:6 x in
  for i = 0 to 9 do
    check_bool "residual ~ 0 at full rank" true
      (Subspace.residual_norm sub (Mat.row x i) < 1e-9)
  done;
  let into = Vec.zeros 6 in
  let row = Mat.row x 3 in
  check_bool "into bit-matches allocating" true
    (bits_equal_vec (Subspace.transform ~into sub row) (Subspace.transform sub row))

let test_subspace_pool_determinism () =
  (* The fit runs entirely on the bit-identical-at-any-jobs kernels,
     so the learned basis must not depend on the worker count. *)
  let x = spectrum_sample 46 ~rows:120 ~cols:40 in
  let fit () = Subspace.fit ~rng:(Rng.create 47) ~components:8 x in
  let serial = fit () in
  List.iter
    (fun jobs ->
      with_default_pool jobs (fun () ->
          let pooled = fit () in
          check_bool
            (Printf.sprintf "components bit-identical at jobs=%d" jobs)
            true
            (bits_equal_vec serial.Subspace.components.Mat.data
               pooled.Subspace.components.Mat.data);
          check_bool
            (Printf.sprintf "eigenvalues bit-identical at jobs=%d" jobs)
            true
            (bits_equal_vec serial.Subspace.explained_variance
               pooled.Subspace.explained_variance)))
    [ 1; 2; 4 ]

let test_subspace_validation () =
  check_bool "needs two rows" true
    (match
       Subspace.fit ~rng:(Rng.create 1) ~components:1 (Mat.identity 1)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let subspace_props =
  [
    prop "fit invariants on random data" 25
      QCheck.(triple (int_range 2 20) (int_range 1 10) (int_range 0 1000))
      (fun (rows, k, seed) ->
        (* Clamp: qcheck's int shrinker steps outside the generator's
           range, and an [Invalid_argument] mid-shrink would mask the
           real counterexample. *)
        let rows = max rows 2 and k = max k 1 and seed = abs seed in
        let cols = 1 + (seed mod 9) in
        let x = spectrum_sample seed ~rows ~cols in
        let sub = Subspace.fit ~rng:(Rng.create (seed + 1)) ~components:k x in
        let kept = Mat.rows sub.Subspace.components in
        let orthonormal =
          let ok = ref true in
          for i = 0 to kept - 1 do
            for j = 0 to kept - 1 do
              let g =
                Vec.dot
                  (Mat.row sub.Subspace.components i)
                  (Mat.row sub.Subspace.components j)
              in
              let expect = if i = j then 1. else 0. in
              if abs_float (g -. expect) > 1e-8 then ok := false
            done
          done;
          !ok
        in
        let descending =
          let ok = ref true in
          for i = 0 to kept - 2 do
            if
              sub.Subspace.explained_variance.(i)
              < sub.Subspace.explained_variance.(i + 1) -. 1e-9
            then ok := false
          done;
          !ok
        in
        kept = min k cols && orthonormal && descending
        && Subspace.explained_ratio sub >= 0.
        && Subspace.explained_ratio sub <= 1.);
  ]

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)
(* ------------------------------------------------------------------ *)

let test_kernel_values () =
  let x = [| 1.; 0. |] and y = [| 0.; 1. |] in
  check_float "linear" 0. (Kernel.eval Kernel.Linear x y);
  check_float "poly" 1. (Kernel.eval (Kernel.Polynomial { degree = 2; offset = 1. }) x y);
  check_float "rbf at distance sqrt2" (exp (-2.)) (Kernel.eval (Kernel.Rbf { gamma = 1. }) x y);
  check_float "rbf self" 1. (Kernel.eval (Kernel.Rbf { gamma = 1. }) x x)

let test_kernel_psd () =
  let rng = Rng.create 23 in
  let points = Array.init 8 (fun _ -> Dist.normal_vec rng ~dim:3) in
  check_bool "linear psd" true (Kernel.is_psd_sample Kernel.Linear points);
  check_bool "rbf psd" true (Kernel.is_psd_sample (Kernel.Rbf { gamma = 0.5 }) points);
  check_bool "poly psd" true
    (Kernel.is_psd_sample (Kernel.Polynomial { degree = 2; offset = 1. }) points)

let test_landmark_map () =
  let landmarks = [| [| 0.; 0. |]; [| 1.; 1. |] |] in
  let m = Kernel.landmark_map (Kernel.Rbf { gamma = 1. }) ~landmarks in
  check_int "dim" 2 (Kernel.landmark_dim m);
  let phi = Kernel.apply m [| 0.; 0. |] in
  check_float "self landmark" 1. phi.(0);
  check_float "other landmark" (exp (-2.)) phi.(1)

let test_kernel_refuses_nan () =
  let x = [| 1.; 0. |] and y = [| 0.; 1. |] in
  Alcotest.check_raises "nan offset"
    (Invalid_argument "Kernel.eval: negative or NaN offset") (fun () ->
      ignore (Kernel.eval (Kernel.Polynomial { degree = 2; offset = nan }) x y));
  Alcotest.check_raises "nan gamma"
    (Invalid_argument "Kernel.eval: gamma must be > 0, not NaN") (fun () ->
      ignore (Kernel.eval (Kernel.Rbf { gamma = nan }) x y))

let kernel_props =
  [
    prop "rbf symmetric and bounded" 100
      QCheck.(pair (array_of_size (QCheck.Gen.return 3) (float_range (-3.) 3.))
                (array_of_size (QCheck.Gen.return 3) (float_range (-3.) 3.)))
      (fun (x, y) ->
        let k = Kernel.Rbf { gamma = 0.7 } in
        let kxy = Kernel.eval k x y in
        abs_float (kxy -. Kernel.eval k y x) < 1e-12 && kxy > 0. && kxy <= 1.);
    prop "gram matrices are symmetric" 50
      QCheck.(int_range 2 6)
      (fun n ->
        let rng = Rng.create n in
        let pts = Array.init n (fun _ -> Dist.normal_vec rng ~dim:2) in
        Mat.is_symmetric (Kernel.gram (Kernel.Rbf { gamma = 1. }) pts));
  ]

(* ------------------------------------------------------------------ *)
(* Split / Categorical                                                 *)
(* ------------------------------------------------------------------ *)

let test_split_random () =
  let rng = Rng.create 30 in
  let data = Array.init 100 (fun i -> i) in
  let { Split.train; test } = Split.random rng ~test_fraction:0.2 data in
  check_int "test size" 20 (Array.length test);
  check_int "train size" 80 (Array.length train);
  let all = Array.append train test in
  Array.sort compare all;
  check_bool "partition" true (all = Array.init 100 (fun i -> i))

let test_split_suffix () =
  let data = [| 1; 2; 3; 4; 5 |] in
  let { Split.train; test } = Split.suffix ~test_fraction:0.4 data in
  check_bool "train prefix" true (train = [| 1; 2; 3 |]);
  check_bool "test suffix" true (test = [| 4; 5 |])

let test_split_refuses_nan () =
  let data = Array.init 10 (fun i -> i) in
  let refused = Invalid_argument "Split: test_fraction outside [0,1] or NaN" in
  Alcotest.check_raises "random" refused (fun () ->
      ignore (Split.random (Rng.create 1) ~test_fraction:nan data));
  Alcotest.check_raises "suffix" refused (fun () ->
      ignore (Split.suffix ~test_fraction:nan data))

let split_props =
  [
    prop "random split always partitions" 100
      QCheck.(pair (int_range 1 1000) (float_range 0. 1.))
      (fun (seed, frac) ->
        let data = Array.init 37 (fun i -> i) in
        let { Split.train; test } =
          Split.random (Rng.create seed) ~test_fraction:frac data
        in
        let all = Array.append train test in
        Array.sort compare all;
        all = Array.init 37 (fun i -> i));
    prop "suffix split preserves order" 100
      QCheck.(float_range 0. 1.)
      (fun frac ->
        let data = Array.init 23 (fun i -> i) in
        let { Split.train; test } = Split.suffix ~test_fraction:frac data in
        Array.append train test = data);
  ]

let categorical_props =
  [
    prop "codes are dense and in range" 100
      QCheck.(small_list (string_of_size (QCheck.Gen.int_range 1 3)))
      (fun values ->
        let col = Array.of_list (List.map Option.some values) in
        let enc = Categorical.fit col in
        let k = Categorical.cardinality enc in
        Array.for_all
          (fun c -> c >= 0 && c < k)
          (Categorical.transform enc col));
    prop "refitting on transformed output is stable" 50
      QCheck.(small_list (string_of_size (QCheck.Gen.int_range 1 3)))
      (fun values ->
        let col = Array.of_list (List.map Option.some values) in
        let enc = Categorical.fit col in
        (* Same column, same codes, twice. *)
        Categorical.transform enc col = Categorical.transform enc col);
  ]

(* ------------------------------------------------------------------ *)
(* Exponential weights / FTPL                                          *)
(* ------------------------------------------------------------------ *)

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* A stationary stream with one clearly best arm: arm 0 pays 0.9 every
   round, the others a seed-dependent value in [0, 0.6].  The best
   fixed arm collects 0.9·T; blind uniform play collects well under
   0.6·T, so the regret bound below genuinely discriminates. *)
let stationary_payoffs ~arms seed =
  let rng = Rng.create seed in
  Array.init arms (fun j -> if j = 0 then 0.9 else 0.6 *. Rng.float rng)

(* O(√(T·log K)) regret sanity at the theory rate, as one inequality:
   total collected ≥ best fixed arm − 3·h·√(T·log K). *)
let regret_tolerance ~arms ~horizon =
  3. *. sqrt (float_of_int horizon *. log (float_of_int arms))

let ew_props =
  [
    prop "full-information regret is O(sqrt T log K)" 10
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let arms = 5 and horizon = 400 in
        let payoffs = stationary_payoffs ~arms seed in
        let rate = Exp_weights.default_rate ~arms ~horizon in
        let t = Exp_weights.create ~arms ~payoff_bound:1. ~rate () in
        let rng = Rng.create (seed + 1) in
        let collected = ref 0. in
        for _ = 1 to horizon do
          collected := !collected +. payoffs.(Exp_weights.choose t rng);
          Exp_weights.update t ~payoffs
        done;
        let best = 0.9 *. float_of_int horizon in
        !collected >= best -. regret_tolerance ~arms ~horizon);
    prop "choose replays bit-for-bit from a seed" 20
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let arms = 4 and horizon = 50 in
        let payoffs = stationary_payoffs ~arms seed in
        let trajectory () =
          let rate = Exp_weights.default_rate ~arms ~horizon in
          let t = Exp_weights.create ~arms ~payoff_bound:1. ~rate () in
          let rng = Rng.create seed in
          List.init horizon (fun _ ->
              let a = Exp_weights.choose t rng in
              Exp_weights.update t ~payoffs;
              a)
        in
        trajectory () = trajectory ());
  ]

let test_ew_distribution () =
  let t = Exp_weights.create ~arms:4 ~payoff_bound:1. ~rate:0.5 () in
  let p = Exp_weights.probabilities t in
  check_float_loose "uniform at init" 0.25 p.(0);
  check_float_loose "sums to one" 1. (Array.fold_left ( +. ) 0. p);
  for _ = 1 to 200 do
    Exp_weights.update t ~payoffs:[| 1.; 0.; 0.2; 0. |]
  done;
  check_int "best arm" 0 (Exp_weights.best_arm t);
  check_bool "mass concentrates on the leader" true
    ((Exp_weights.probabilities t).(0) > 0.9);
  let mixed = Exp_weights.create ~mix:0.2 ~arms:4 ~payoff_bound:1. ~rate:5. () in
  for _ = 1 to 200 do
    Exp_weights.update mixed ~payoffs:[| 1.; 0.; 0.; 0. |]
  done;
  check_bool "mix floors every arm at mix/K" true
    (Array.for_all
       (fun p -> p >= 0.2 /. 4. -. 1e-12)
       (Exp_weights.probabilities mixed))

let test_ew_bandit_identifies_best () =
  (* EXP3 on a deterministic gap: after enough importance-weighted
     rounds, the estimated cumulative payoffs rank the true best arm
     first.  Seeded, so no flakiness. *)
  let arms = 4 and horizon = 3_000 in
  let payoffs = stationary_payoffs ~arms 17 in
  let rate = Exp_weights.default_rate ~arms ~horizon in
  let t = Exp_weights.create ~mix:0.1 ~arms ~payoff_bound:1. ~rate () in
  let rng = Rng.create 23 in
  for _ = 1 to horizon do
    let a = Exp_weights.choose t rng in
    Exp_weights.update_bandit t ~arm:a ~payoff:payoffs.(a)
  done;
  check_int "bandit best arm" 0 (Exp_weights.best_arm t)

let test_ew_validation () =
  check_bool "arms >= 1" true (raises (fun () ->
      Exp_weights.create ~arms:0 ~payoff_bound:1. ~rate:0.1 ()));
  check_bool "positive payoff bound" true (raises (fun () ->
      Exp_weights.create ~arms:2 ~payoff_bound:0. ~rate:0.1 ()));
  check_bool "positive rate" true (raises (fun () ->
      Exp_weights.create ~arms:2 ~payoff_bound:1. ~rate:0. ()));
  check_bool "mix in [0,1]" true (raises (fun () ->
      Exp_weights.create ~mix:1.5 ~arms:2 ~payoff_bound:1. ~rate:0.1 ()));
  let t = Exp_weights.create ~arms:2 ~payoff_bound:1. ~rate:0.1 () in
  check_bool "payoff above bound" true (raises (fun () ->
      Exp_weights.update t ~payoffs:[| 2.; 0. |]));
  check_bool "payoff length" true (raises (fun () ->
      Exp_weights.update t ~payoffs:[| 0.5 |]));
  check_bool "bandit arm range" true (raises (fun () ->
      Exp_weights.update_bandit t ~arm:2 ~payoff:0.5))

(* Frozen-perturbation FTPL on [stationary_payoffs] (arm 0 best at
   p₀ = 0.9, the rest below 0.6).  The frozen perturbations hⱼ are
   exponential with mean 1/η.  The leader's lead over arm 0 after s
   rounds, g(s) = maxⱼ (hⱼ + s·pⱼ) − (h₀ + s·p₀), is convex and
   non-increasing, and round t ≥ 2's regret p₀ − p_{aₜ} is at most
   g(t − 2) − g(t − 1).  So the regret over any horizon is at most
   g(0) = maxⱼ (hⱼ − h₀)⁺ plus round 1's gap (below the payoff bound
   1, and zero when g(0) = 0).  Each hⱼ − h₀ is Laplace with scale
   1/η, so P(g(0) > s) ≤ (K − 1)/2·e^(−η·s): at a false-failure rate
   δ per seed the tolerance is (1/η)·ln((K − 1)/(2δ)) + 1.  At K = 5,
   δ = 1e-9 that is 21.4/η + 1.  The horizon must be long enough for
   the test to tell FTPL from a blind learner: at T = 400 the
   tolerance (339) exceeds what a uniform draw loses on some payoff
   vectors; at T = 10⁴ it is 1,689, while a uniform draw expects to
   lose at least 0.8·(0.9 − 0.6)·T = 2,400. *)
let ftpl_tolerance ~arms ~rate ~delta =
  (log (float_of_int (arms - 1) /. (2. *. delta)) /. rate) +. 1.

let ftpl_props =
  [
    prop "full-information regret is O(sqrt T log K)" 10
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let arms = 5 and horizon = 10_000 in
        let payoffs = stationary_payoffs ~arms seed in
        let rate = Exp_weights.default_rate ~arms ~horizon in
        let t =
          Ftpl.create ~arms ~payoff_bound:1. ~rate ~rng:(Rng.create seed) ()
        in
        let collected = ref 0. in
        for _ = 1 to horizon do
          collected := !collected +. payoffs.(Ftpl.choose t);
          Ftpl.update t ~payoffs
        done;
        let best = 0.9 *. float_of_int horizon in
        !collected >= best -. ftpl_tolerance ~arms ~rate ~delta:1e-9);
    prop "frozen perturbation makes choose pure" 20
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let t =
          Ftpl.create ~arms:6 ~payoff_bound:1. ~rate:0.3
            ~rng:(Rng.create seed) ()
        in
        let a = Ftpl.choose t in
        a = Ftpl.choose t && a = Ftpl.choose t);
    prop "bandit trajectory replays bit-for-bit" 10
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let arms = 4 and horizon = 60 in
        let payoffs = stationary_payoffs ~arms seed in
        let trajectory () =
          let t =
            Ftpl.create ~resamples:8 ~arms ~payoff_bound:1. ~rate:0.3
              ~rng:(Rng.create seed) ()
          in
          List.init horizon (fun _ ->
              let a = Ftpl.choose_fresh t in
              Ftpl.update_bandit t ~arm:a ~payoff:payoffs.(a);
              a)
        in
        trajectory () = trajectory ());
  ]

let test_ftpl_tracks_leader () =
  let t =
    Ftpl.create ~arms:3 ~payoff_bound:1. ~rate:0.5 ~rng:(Rng.create 4) ()
  in
  (* A large enough lead drowns any perturbation of mean h/rate = 2. *)
  for _ = 1 to 200 do
    Ftpl.update t ~payoffs:[| 0.; 1.; 0.3 |]
  done;
  check_int "leader" 1 (Ftpl.choose t);
  check_int "best arm" 1 (Ftpl.best_arm t);
  let totals = Ftpl.cumulative t in
  check_float "untouched arm" 0. totals.(0);
  check_float "leading arm" 200. totals.(1);
  check_float_loose "trailing arm" 60. totals.(2)

let test_ftpl_validation () =
  check_bool "arms >= 1" true (raises (fun () ->
      Ftpl.create ~arms:0 ~payoff_bound:1. ~rate:0.1 ~rng:(Rng.create 1) ()));
  check_bool "positive rate" true (raises (fun () ->
      Ftpl.create ~arms:2 ~payoff_bound:1. ~rate:(-1.) ~rng:(Rng.create 1) ()));
  check_bool "resamples >= 1" true (raises (fun () ->
      Ftpl.create ~resamples:0 ~arms:2 ~payoff_bound:1. ~rate:0.1
        ~rng:(Rng.create 1) ()));
  let t = Ftpl.create ~arms:2 ~payoff_bound:1. ~rate:0.1 ~rng:(Rng.create 1) () in
  check_bool "payoff above bound" true (raises (fun () ->
      Ftpl.update t ~payoffs:[| 2.; 0. |]));
  check_bool "bandit arm range" true (raises (fun () ->
      Ftpl.update_bandit t ~arm:(-1) ~payoff:0.5))

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_ml"
    [
      ( "categorical",
        [
          Alcotest.test_case "codes" `Quick test_categorical_codes;
          Alcotest.test_case "one hot" `Quick test_categorical_one_hot;
          Alcotest.test_case "categories order" `Quick test_categorical_categories;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "determinism" `Quick test_hashing_determinism;
          Alcotest.test_case "encode" `Quick test_hashing_encode;
          Alcotest.test_case "dense dot" `Quick test_hashing_dense_dot;
          Alcotest.test_case "normalize" `Quick test_hashing_normalize;
        ]
        @ hashing_props @ hashing_reference_props
        @ [
            Alcotest.test_case "fnv1a64 published vectors" `Quick
              test_fnv1a64_published_vectors;
            Alcotest.test_case "encode edge cases match the reference" `Quick
              test_hashing_encode_edges;
            Alcotest.test_case "streamed impression set-up matches the reference"
              `Quick test_impression_setup_streamed;
          ] );
      ( "linreg",
        [
          Alcotest.test_case "exact recovery" `Quick test_linreg_exact_recovery;
          Alcotest.test_case "noisy recovery" `Quick test_linreg_noisy;
          Alcotest.test_case "no intercept" `Quick test_linreg_no_intercept;
          Alcotest.test_case "collinear design" `Quick test_linreg_collinear;
          Alcotest.test_case "shape errors" `Quick test_linreg_shape_errors;
        ] );
      ( "ftrl",
        [
          Alcotest.test_case "learns" `Quick test_ftrl_learns;
          Alcotest.test_case "l1 sparsity" `Quick test_ftrl_sparsity_monotone_in_l1;
          Alcotest.test_case "closed form at init" `Quick test_ftrl_weight_closed_form;
          Alcotest.test_case "prediction range" `Quick test_ftrl_prediction_range;
          Alcotest.test_case "validation" `Quick test_ftrl_validation;
          Alcotest.test_case "validation refuses NaN" `Quick
            test_ftrl_validation_nan;
        ] );
      ( "logreg",
        [
          Alcotest.test_case "learns" `Quick test_logreg_learns;
          Alcotest.test_case "prediction range" `Quick
            test_logreg_predictions_in_range;
          Alcotest.test_case "l2 shrinks weights" `Quick test_logreg_l2_shrinks;
          Alcotest.test_case "validation" `Quick test_logreg_validation;
          Alcotest.test_case "refuses NaN" `Quick test_logreg_refuses_nan;
        ] );
      ( "pca",
        [
          Alcotest.test_case "axis aligned" `Quick test_pca_axis_aligned;
          Alcotest.test_case "reconstruction" `Quick test_pca_reconstruction;
          Alcotest.test_case "explained variance sorted" `Quick test_pca_explained_sorted;
          Alcotest.test_case "transform into + batch bit-compat" `Quick
            test_pca_transform_into_and_all;
        ] );
      ( "subspace",
        [
          Alcotest.test_case "matches pca" `Quick test_subspace_matches_pca;
          Alcotest.test_case "orthonormal rows" `Quick
            test_subspace_orthonormal_rows;
          Alcotest.test_case "full-rank residual" `Quick
            test_subspace_full_rank_residual;
          Alcotest.test_case "pool determinism" `Quick
            test_subspace_pool_determinism;
          Alcotest.test_case "validation" `Quick test_subspace_validation;
        ]
        @ subspace_props );
      ( "kernel",
        [
          Alcotest.test_case "values" `Quick test_kernel_values;
          Alcotest.test_case "psd" `Quick test_kernel_psd;
          Alcotest.test_case "landmark map" `Quick test_landmark_map;
          Alcotest.test_case "refuses NaN" `Quick test_kernel_refuses_nan;
        ]
        @ kernel_props );
      ( "split+metrics",
        [
          Alcotest.test_case "random split" `Quick test_split_random;
          Alcotest.test_case "suffix split" `Quick test_split_suffix;
          Alcotest.test_case "test fraction refuses NaN" `Quick
            test_split_refuses_nan;
        ]
        @ split_props @ categorical_props );
      ( "exp_weights",
        [
          Alcotest.test_case "distribution" `Quick test_ew_distribution;
          Alcotest.test_case "bandit identifies best arm" `Slow
            test_ew_bandit_identifies_best;
          Alcotest.test_case "validation" `Quick test_ew_validation;
        ]
        @ ew_props );
      ( "ftpl",
        [
          Alcotest.test_case "tracks the leader" `Quick test_ftpl_tracks_leader;
          Alcotest.test_case "validation" `Quick test_ftpl_validation;
        ]
        @ ftpl_props );
    ]
