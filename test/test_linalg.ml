(* Unit and property tests for the dm_linalg substrate. *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Chol = Dm_linalg.Chol
module Eigen = Dm_linalg.Eigen

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let small_float = QCheck.float_range (-10.) 10.

let vec_gen n = QCheck.(array_of_size (Gen.return n) small_float)

let sized_vec_gen =
  QCheck.(
    let gen =
      Gen.(
        int_range 1 12 >>= fun n ->
        array_size (return n) (float_range (-10.) 10.))
    in
    make ~print:Print.(array float) gen)

(* A random symmetric positive definite matrix M·Mᵀ + ridge·I. *)
let spd_gen =
  QCheck.(
    let gen =
      Gen.(
        int_range 1 8 >>= fun n ->
        map
          (fun data ->
            let m = Mat.init n n (fun i j -> data.((i * n) + j)) in
            let a = Mat.matmul m (Mat.transpose m) in
            for i = 0 to n - 1 do
              Mat.set a i i (Mat.get a i i +. 0.5)
            done;
            a)
          (array_size (return (n * n)) (float_range (-2.) 2.)))
    in
    make
      ~print:(fun m -> Format.asprintf "%a" Mat.pp m)
      gen)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basics () =
  check_int "dim" 3 (Vec.dim (Vec.of_list [ 1.; 2.; 3. ]));
  check_float "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  check_float "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  check_float "norm1" 7. (Vec.norm1 [| 3.; -4. |]);
  check_float "norm_inf" 4. (Vec.norm_inf [| 3.; -4. |]);
  check_float "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
  check_float "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
  check_float "dist2" 5. (Vec.dist2 [| 0.; 0. |] [| 3.; 4. |]);
  check_float "max" 3. (Vec.max_elt [| 1.; 3.; 2. |]);
  check_float "min" 1. (Vec.min_elt [| 1.; 3.; 2. |]);
  check_int "argmax" 1 (Vec.argmax [| 1.; 3.; 2. |]);
  check_int "argmin" 0 (Vec.argmin [| 1.; 3.; 2. |])

let test_vec_basis () =
  let e1 = Vec.basis 3 1 in
  check_float "component" 1. (Vec.get e1 1);
  check_float "others" 0. (Vec.get e1 0);
  check_float "unit norm" 1. (Vec.norm2 e1);
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 3 3))

let test_vec_ops () =
  let u = [| 1.; 2. |] and v = [| 3.; 5. |] in
  check_bool "add" true (Vec.approx_equal (Vec.add u v) [| 4.; 7. |]);
  check_bool "sub" true (Vec.approx_equal (Vec.sub v u) [| 2.; 3. |]);
  check_bool "scale" true (Vec.approx_equal (Vec.scale 2. u) [| 2.; 4. |]);
  check_bool "neg" true (Vec.approx_equal (Vec.neg u) [| -1.; -2. |]);
  let y = Vec.copy v in
  Vec.axpy 2. u y;
  check_bool "axpy" true (Vec.approx_equal y [| 5.; 9. |])

let test_vec_normalize () =
  let v = Vec.normalize [| 3.; 4. |] in
  check_float "unit" 1. (Vec.norm2 v);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize [| 0.; 0. |]))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_slice_sort () =
  let v = [| 5.; 1.; 4.; 2. |] in
  check_bool "sorted" true (Vec.approx_equal (Vec.sorted v) [| 1.; 2.; 4.; 5. |]);
  check_bool "slice" true
    (Vec.approx_equal (Vec.slice v ~pos:1 ~len:2) [| 1.; 4. |]);
  check_bool "concat" true
    (Vec.approx_equal (Vec.concat [| 1. |] [| 2. |]) [| 1.; 2. |]);
  (* sorted must not mutate its input *)
  check_float "input intact" 5. v.(0)

let vec_props =
  [
    prop "dot is symmetric" 200 sized_vec_gen (fun v ->
        let u = Vec.map (fun x -> x +. 1.) v in
        abs_float (Vec.dot u v -. Vec.dot v u) < 1e-9);
    prop "cauchy-schwarz" 200 sized_vec_gen (fun v ->
        let u = Vec.map (fun x -> (2. *. x) -. 1.) v in
        abs_float (Vec.dot u v) <= (Vec.norm2 u *. Vec.norm2 v) +. 1e-6);
    prop "triangle inequality" 200 sized_vec_gen (fun v ->
        let u = Vec.map (fun x -> x *. 0.5) v in
        Vec.norm2 (Vec.add u v) <= Vec.norm2 u +. Vec.norm2 v +. 1e-6);
    prop "norm ordering: inf <= 2 <= 1" 200 sized_vec_gen (fun v ->
        Vec.norm_inf v <= Vec.norm2 v +. 1e-9
        && Vec.norm2 v <= Vec.norm1 v +. 1e-9);
    prop "normalize yields unit norm" 200 sized_vec_gen (fun v ->
        QCheck.assume (Vec.norm2 v > 1e-6);
        abs_float (Vec.norm2 (Vec.normalize v) -. 1.) < 1e-9);
    prop "scale distributes over dot" 200 sized_vec_gen (fun v ->
        let a = 3.5 in
        abs_float (Vec.dot (Vec.scale a v) v -. (a *. Vec.dot v v)) < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_identity () =
  let i3 = Mat.identity 3 in
  let x = [| 1.; 2.; 3. |] in
  check_bool "I·x = x" true (Vec.approx_equal (Mat.matvec i3 x) x);
  check_float "trace" 3. (Mat.trace i3);
  check_bool "scaled identity" true
    (Mat.approx_equal (Mat.scaled_identity 2 4.) (Mat.scale 4. (Mat.identity 2)))

let test_mat_matvec () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_bool "matvec" true
    (Vec.approx_equal (Mat.matvec a [| 1.; 1. |]) [| 3.; 7. |]);
  check_bool "matvec_t" true
    (Vec.approx_equal (Mat.matvec_t a [| 1.; 1. |]) [| 4.; 6. |]);
  check_bool "matvec_t = (transpose)·v" true
    (Vec.approx_equal
       (Mat.matvec (Mat.transpose a) [| 1.; 1. |])
       (Mat.matvec_t a [| 1.; 1. |]))

let test_mat_matmul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let ab = Mat.matmul a b in
  check_bool "swap columns" true
    (Mat.approx_equal ab (Mat.of_arrays [| [| 2.; 1. |]; [| 4.; 3. |] |]))

let test_mat_quad () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = [| 1.; 2. |] in
  (* xᵀAx = 2 + 2 + 2 + 12 = 18 *)
  check_float "quad" 18. (Mat.quad a x);
  check_float "quad = dot x (A x)" (Vec.dot x (Mat.matvec a x)) (Mat.quad a x)

let test_mat_rank_one () =
  let a = Mat.identity 2 in
  Mat.rank_one_update a 2. [| 1.; 1. |];
  check_bool "rank one" true
    (Mat.approx_equal a (Mat.of_arrays [| [| 3.; 2. |]; [| 2.; 3. |] |]))

let test_mat_outer () =
  let o = Mat.outer [| 1.; 2. |] [| 3.; 4. |] in
  check_bool "outer" true
    (Mat.approx_equal o (Mat.of_arrays [| [| 3.; 4. |]; [| 6.; 8. |] |]))

let test_mat_symmetrize () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 4.; 1. |] |] in
  check_bool "asymmetric" false (Mat.is_symmetric a);
  Mat.symmetrize_inplace a;
  check_bool "symmetrized" true (Mat.is_symmetric a);
  check_float "averaged" 3. (Mat.get a 0 1)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_mat_row_col_diag () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_bool "row" true (Vec.approx_equal (Mat.row a 1) [| 3.; 4. |]);
  check_bool "col" true (Vec.approx_equal (Mat.col a 1) [| 2.; 4. |]);
  check_bool "diag" true (Vec.approx_equal (Mat.diag a) [| 1.; 4. |]);
  check_bool "diag_of_vec" true
    (Mat.approx_equal
       (Mat.diag_of_vec [| 1.; 4. |])
       (Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 4. |] |]))

let mat_props =
  [
    prop "quad agrees with matvec+dot" 100 spd_gen (fun a ->
        let n = Mat.rows a in
        let x = Array.init n (fun i -> float_of_int (i + 1) /. 3.) in
        abs_float (Mat.quad a x -. Vec.dot x (Mat.matvec a x)) < 1e-6);
    prop "spd gen is symmetric positive definite" 100 spd_gen (fun a ->
        Mat.is_symmetric ~tol:1e-9 a && Chol.is_positive_definite a);
    prop "transpose involutive" 100 spd_gen (fun a ->
        Mat.approx_equal (Mat.transpose (Mat.transpose a)) a);
    prop "trace invariant under transpose" 100 spd_gen (fun a ->
        abs_float (Mat.trace a -. Mat.trace (Mat.transpose a)) < 1e-9);
    prop "rank_one_update matches outer add" 100 spd_gen (fun a ->
        let n = Mat.rows a in
        let b = Array.init n (fun i -> 0.3 *. float_of_int (i - 1)) in
        let via_update = Mat.copy a in
        Mat.rank_one_update via_update (-0.7) b;
        let via_outer = Mat.add a (Mat.scale (-0.7) (Mat.outer b b)) in
        Mat.approx_equal ~tol:1e-9 via_update via_outer);
  ]

(* ------------------------------------------------------------------ *)
(* Chol                                                                *)
(* ------------------------------------------------------------------ *)

let test_chol_known () =
  (* A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt 2]]. *)
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let l = Chol.factorize a in
  check_float "l00" 2. (Mat.get l 0 0);
  check_float "l10" 1. (Mat.get l 1 0);
  check_float "l11" (sqrt 2.) (Mat.get l 1 1);
  check_float "l01 zero" 0. (Mat.get l 0 1)

let test_chol_solve () =
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let x = [| 1.; -2. |] in
  let b = Mat.matvec a x in
  check_bool "roundtrip" true (Vec.approx_equal ~tol:1e-9 (Chol.solve a b) x)

let test_chol_not_pd () =
  let indefinite = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  check_bool "indefinite" false (Chol.is_positive_definite indefinite);
  (* Singular but PSD: the ridge retry path must still produce a finite
     solution of the regularized system. *)
  let singular = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  check_bool "singular detected" false (Chol.is_positive_definite singular);
  let x = Chol.solve_regularized singular [| 1.; 1. |] in
  check_bool "regularized solves singular PSD" true
    (Array.for_all Float.is_finite x)

let test_chol_nan_pivot () =
  (* A NaN pivot answers false to [acc <= 0.] but must still raise. *)
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; nan |] |] in
  Alcotest.check_raises "NaN pivot" (Chol.Not_positive_definite 1) (fun () ->
      ignore (Chol.factorize a));
  check_bool "not positive definite" false (Chol.is_positive_definite a)

let test_chol_log_det () =
  let a = Mat.scaled_identity 3 2. in
  check_float "log det of 2I₃" (3. *. log 2.) (Chol.log_det a)

let chol_props =
  [
    prop "solve inverts matvec" 100 spd_gen (fun a ->
        let n = Mat.rows a in
        let x = Array.init n (fun i -> float_of_int (i + 1)) in
        let b = Mat.matvec a x in
        Vec.approx_equal ~tol:1e-5 (Chol.solve a b) x);
    prop "L·Lᵀ reconstructs A" 100 spd_gen (fun a ->
        let l = Chol.factorize a in
        Mat.approx_equal ~tol:1e-7 (Mat.matmul l (Mat.transpose l)) a);
    prop "log_det matches eigenvalue sum" 60 spd_gen (fun a ->
        let ev = Eigen.eigenvalues a in
        let sum = Array.fold_left (fun acc l -> acc +. log l) 0. ev in
        abs_float (Chol.log_det a -. sum) < 1e-5);
  ]

(* ------------------------------------------------------------------ *)
(* Lu                                                                  *)
(* ------------------------------------------------------------------ *)

module Lu = Dm_linalg.Lu

let general_gen =
  QCheck.(
    let gen =
      Gen.(
        int_range 1 8 >>= fun n ->
        map
          (fun data ->
            let m = Mat.init n n (fun i j -> data.((i * n) + j)) in
            (* Diagonal boost keeps random matrices comfortably
               non-singular. *)
            for i = 0 to n - 1 do
              Mat.set m i i (Mat.get m i i +. 3.)
            done;
            m)
          (array_size (return (n * n)) (float_range (-1.) 1.)))
    in
    make ~print:(fun m -> Format.asprintf "%a" Mat.pp m) gen)

let test_lu_known () =
  (* A 2x2 with known inverse and determinant. *)
  let a = Mat.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  check_float "determinant" 10. (Lu.determinant a);
  let inv = Lu.inverse a in
  check_bool "inverse" true
    (Mat.approx_equal ~tol:1e-9 inv
       (Mat.of_arrays [| [| 0.6; -0.7 |]; [| -0.2; 0.4 |] |]))

let test_lu_pivoting () =
  (* Zero leading pivot forces a row swap. *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float "permutation determinant" (-1.) (Lu.determinant a);
  check_bool "solve through pivot" true
    (Vec.approx_equal (Lu.solve_matrix a [| 3.; 5. |]) [| 5.; 3. |])

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  check_float "singular determinant" 0. (Lu.determinant a);
  check_bool "factorize raises" true
    (match Lu.factorize a with
    | _ -> false
    | exception Lu.Singular _ -> true)

let lu_props =
  [
    prop "solve inverts matvec (general)" 100 general_gen (fun a ->
        let n = Mat.rows a in
        let x = Array.init n (fun i -> float_of_int (i - 2)) in
        let b = Mat.matvec a x in
        Vec.approx_equal ~tol:1e-6 (Lu.solve_matrix a b) x);
    prop "A·A⁻¹ = I" 100 general_gen (fun a ->
        let n = Mat.rows a in
        Mat.approx_equal ~tol:1e-7 (Mat.matmul a (Lu.inverse a)) (Mat.identity n));
    prop "LU and Cholesky determinants agree on SPD" 60 spd_gen (fun a ->
        let via_chol = exp (Chol.log_det a) in
        abs_float (Lu.determinant a -. via_chol) < 1e-6 *. (1. +. via_chol));
    prop "determinant is multiplicative" 60 general_gen (fun a ->
        let b = Mat.transpose a in
        let dab = Lu.determinant (Mat.matmul a b) in
        let da = Lu.determinant a and db = Lu.determinant b in
        abs_float (dab -. (da *. db)) < 1e-5 *. (1. +. abs_float dab));
  ]

(* ------------------------------------------------------------------ *)
(* Eigen                                                               *)
(* ------------------------------------------------------------------ *)

let test_eigen_diag () =
  let a = Mat.diag_of_vec [| 3.; 1.; 2. |] in
  let ev = Eigen.eigenvalues a in
  check_bool "sorted eigenvalues" true
    (Vec.approx_equal ev [| 3.; 2.; 1. |])

let test_eigen_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let ev = Eigen.eigenvalues a in
  check_float_loose "largest" 3. ev.(0);
  check_float_loose "smallest" 1. ev.(1);
  check_float_loose "smallest fn" 1. (Eigen.smallest_eigenvalue a);
  check_float_loose "largest fn" 3. (Eigen.largest_eigenvalue a);
  check_float_loose "condition" 3. (Eigen.condition_number a)

let test_eigen_not_symmetric () =
  let a = Mat.of_arrays [| [| 1.; 5. |]; [| 0.; 1. |] |] in
  check_bool "raises" true
    (match Eigen.decompose a with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_eigen_log_volume () =
  (* log √(det (2I₃)) = 1.5 log 2 *)
  check_float_loose "log volume of 2I₃" (1.5 *. log 2.)
    (Eigen.log_volume_factor (Mat.scaled_identity 3 2.))

let eigen_props =
  [
    prop "V·diag(λ)·Vᵀ reconstructs A" 60 spd_gen (fun a ->
        let { Eigen.eigenvalues = ev; eigenvectors = v } = Eigen.decompose a in
        let recon = Mat.matmul (Mat.matmul v (Mat.diag_of_vec ev)) (Mat.transpose v) in
        Mat.approx_equal ~tol:1e-6 recon a);
    prop "eigenvectors are orthonormal" 60 spd_gen (fun a ->
        let { Eigen.eigenvectors = v; _ } = Eigen.decompose a in
        let g = Mat.matmul (Mat.transpose v) v in
        Mat.approx_equal ~tol:1e-7 g (Mat.identity (Mat.rows a)));
    prop "eigenvalue sum equals trace" 60 spd_gen (fun a ->
        let ev = Eigen.eigenvalues a in
        abs_float (Vec.sum ev -. Mat.trace a) < 1e-6);
    prop "spd eigenvalues are positive" 60 spd_gen (fun a ->
        Array.for_all (fun l -> l > 0.) (Eigen.eigenvalues a));
    prop "rayleigh quotient bounded by extreme eigenvalues" 60 spd_gen
      (fun a ->
        let n = Mat.rows a in
        let x = Array.init n (fun i -> cos (float_of_int i)) in
        QCheck.assume (Vec.norm2 x > 1e-6);
        let r = Mat.quad a x /. Vec.dot x x in
        let ev = Eigen.eigenvalues a in
        r <= ev.(0) +. 1e-6 && r >= ev.(n - 1) -. 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Pool + tiled kernels                                                *)
(* ------------------------------------------------------------------ *)

module Pool = Dm_linalg.Pool

(* Bit-for-bit equality: the kernels promise results identical to the
   serial reference at any worker count, not merely close. *)
let bits_equal_vec a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let bits_equal_mat a b =
  Mat.dims a = Mat.dims b && bits_equal_vec a.Mat.data b.Mat.data

let with_default_pool jobs f =
  Pool.with_pool ~jobs (fun p ->
      Pool.set_default (Some p);
      Fun.protect ~finally:(fun () -> Pool.set_default None) f)

(* Naive references: the exact element-wise reduction orders the
   kernels contract to reproduce (ascending j / ascending k, with the
   same exact-zero skips). *)
let naive_matvec m x =
  Array.init (Mat.rows m) (fun i ->
      let acc = ref 0. in
      for j = 0 to Mat.cols m - 1 do
        acc := !acc +. (Mat.get m i j *. x.(j))
      done;
      !acc)

let naive_matmul a b =
  let c = Mat.zeros (Mat.rows a) (Mat.cols b) in
  for i = 0 to Mat.rows a - 1 do
    for k = 0 to Mat.cols a - 1 do
      let aik = Mat.get a i k in
      if aik <> 0. then
        for j = 0 to Mat.cols b - 1 do
          Mat.set c i j (Mat.get c i j +. (aik *. Mat.get b k j))
        done
    done
  done;
  c

let naive_quad m x =
  let acc = ref 0. in
  for i = 0 to Mat.rows m - 1 do
    if x.(i) <> 0. then begin
      let rowacc = ref 0. in
      for j = 0 to Mat.cols m - 1 do
        rowacc := !rowacc +. (Mat.get m i j *. x.(j))
      done;
      acc := !acc +. (x.(i) *. !rowacc)
    end
  done;
  !acc

let naive_rank_one a beta b =
  let m = Mat.copy a in
  for i = 0 to Mat.rows m - 1 do
    let bi = beta *. b.(i) in
    if bi <> 0. then
      for j = 0 to Mat.cols m - 1 do
        Mat.set m i j (Mat.get m i j +. (bi *. b.(j)))
      done
  done;
  m

let naive_rescale a ~beta ~b ~factor =
  Mat.init (Mat.rows a) (Mat.cols a) (fun i j ->
      if b.(i) <> 0. then
        factor *. (Mat.get a i j +. (beta *. (b.(i) *. b.(j))))
      else factor *. Mat.get a i j)

(* Deterministic fill with exact zeros sprinkled in, so the sparse
   fast paths and the zero-skip branches are all exercised. *)
let fill_mat n seed =
  Mat.init n n (fun i j ->
      if (i + (3 * j) + seed) mod 4 = 0 then 0.
      else sin (float_of_int (((i * 31) + (j * 17) + seed) mod 101)))

let fill_vec ~sparse n seed =
  Array.init n (fun i ->
      if sparse && (i + seed) mod 8 <> 0 then 0.
      else cos (float_of_int (((i * 13) + seed) mod 97)))

(* Zeros at every i ≡ 1 (mod 3), so the rows [quad] takes as a block of
   four with xᵢ ≠ 0 are not consecutive ({0, 2, 3, 5}, {6, 8, 9, 11},
   …): some rows inside a block's span are skipped and others are not.
   Dense enough (2/3) that [matvec] keeps its dense branch. *)
let fill_vec_gappy n seed =
  Array.init n (fun i ->
      if i mod 3 = 1 then 0. else cos (float_of_int (((i * 13) + seed) mod 97)))

let check_kernels_at n =
  let a = fill_mat n 1 in
  let b = fill_mat n 2 in
  let xs =
    [ fill_vec ~sparse:false n 3; fill_vec ~sparse:true n 4; fill_vec_gappy n 8 ]
  in
  let v = fill_vec ~sparse:false n 5 in
  (* Serial references, computed with no pool installed. *)
  let mv_ref = List.map (naive_matvec a) xs in
  let mm_ref = naive_matmul a b in
  let q_ref = List.map (naive_quad a) xs in
  let r1_ref = naive_rank_one a (-0.37) v in
  let rs_ref = naive_rescale a ~beta:(-0.37) ~b:v ~factor:1.013 in
  let check jobs () =
    let tag s = Printf.sprintf "%s n=%d jobs=%d" s n jobs in
    List.iter2
      (fun x r -> check_bool (tag "matvec") true (bits_equal_vec (Mat.matvec a x) r))
      xs mv_ref;
    check_bool (tag "matmul") true (bits_equal_mat (Mat.matmul a b) mm_ref);
    List.iter2
      (fun x r ->
        check_bool (tag "quad") true
          (Int64.equal (Int64.bits_of_float (Mat.quad a x)) (Int64.bits_of_float r)))
      xs q_ref;
    let upd = Mat.copy a in
    Mat.rank_one_update upd (-0.37) v;
    check_bool (tag "rank_one_update") true (bits_equal_mat upd r1_ref);
    let into = Mat.zeros n n in
    check_bool (tag "rank_one_rescale") true
      (bits_equal_mat
         (Mat.rank_one_rescale ~into a ~beta:(-0.37) ~b:v ~factor:1.013)
         rs_ref);
    check_bool (tag "rank_one_rescale alloc") true
      (bits_equal_mat
         (Mat.rank_one_rescale a ~beta:(-0.37) ~b:v ~factor:1.013)
         rs_ref)
  in
  check 1 ();
  List.iter (fun jobs -> with_default_pool jobs (check jobs)) [ 1; 2; 4 ]

(* Every row count from 1 to 9: zero to two four-row blocks, each
   followed by zero to three leftover rows. *)
let test_kernels_small () =
  List.iter check_kernels_at [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 40 ]

(* Straddle the n >= 512 pooling threshold: 511 stays serial (and is
   not a multiple of the 64-row chunk), 512 fans out over the pool. *)
let test_kernels_threshold () = List.iter check_kernels_at [ 511; 512 ]

let test_rescale_symmetry () =
  (* The fused kernel's beta·(bᵢ·bⱼ) association keeps exact symmetry:
     no symmetrize pass needed after a cut. *)
  let a = Mat.matmul (fill_mat 33 6) (Mat.transpose (fill_mat 33 6)) in
  let b = fill_vec ~sparse:false 33 7 in
  let c = Mat.rank_one_rescale a ~beta:(-0.81) ~b ~factor:1.07 in
  let ok = ref true in
  for i = 0 to 32 do
    for j = 0 to 32 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Mat.get c i j))
             (Int64.bits_of_float (Mat.get c j i)))
      then ok := false
    done
  done;
  check_bool "bit-exact symmetry" true !ok

let test_rescale_validation () =
  let a = Mat.identity 3 in
  Alcotest.check_raises "into dimension mismatch"
    (Invalid_argument "Mat.rank_one_rescale: into dimension mismatch")
    (fun () ->
      ignore
        (Mat.rank_one_rescale ~into:(Mat.zeros 2 2) a ~beta:1. ~b:[| 1.; 0.; 0. |]
           ~factor:1.));
  Alcotest.check_raises "into aliases input"
    (Invalid_argument "Mat.rank_one_rescale: into aliases the input")
    (fun () ->
      ignore (Mat.rank_one_rescale ~into:a a ~beta:1. ~b:[| 1.; 0.; 0. |] ~factor:1.))

let test_pool_basics () =
  Pool.with_pool ~jobs:4 (fun p ->
      check_int "size" 4 (Pool.size p);
      (* parallel_for covers [0, n) exactly once whatever the chunking. *)
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for p ~chunk:7 n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      check_bool "each index once" true (Array.for_all (fun c -> c = 1) hits);
      (* Lowest-chunk exception wins and the pool stays usable. *)
      check_bool "lowest failing chunk" true
        (match
           Pool.parallel_for p ~chunk:1 16 (fun lo _ ->
               if lo >= 3 then failwith (string_of_int lo))
         with
        | () -> false
        | exception Failure s -> s = "3");
      let again = Array.make 64 0 in
      Pool.parallel_for p ~chunk:4 64 (fun lo hi ->
          for i = lo to hi - 1 do
            again.(i) <- 1
          done);
      check_bool "usable after error" true (Array.for_all (fun c -> c = 1) again);
      (* Nested parallel_for runs inline rather than deadlocking. *)
      let nested_ok = ref true in
      Pool.parallel_for p ~chunk:1 4 (fun _ _ ->
          let local = Array.make 8 0 in
          Pool.parallel_for p ~chunk:2 8 (fun lo hi ->
              for i = lo to hi - 1 do
                local.(i) <- 1
              done);
          if not (Array.for_all (fun c -> c = 1) local) then nested_ok := false);
      check_bool "nested runs inline" true !nested_ok);
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be positive") (fun () ->
      ignore (Pool.create ~jobs:0))

let pool_props =
  [
    prop "kernels bit-match naive reference under a pool" 30
      QCheck.(pair (int_range 1 24) (int_range 0 1000))
      (fun (n, seed) ->
        let a = fill_mat n seed in
        let x = fill_vec ~sparse:(seed mod 2 = 0) n (seed + 1) in
        let mv = naive_matvec a x in
        let q = naive_quad a x in
        let rs = naive_rescale a ~beta:(-0.37) ~b:x ~factor:1.013 in
        with_default_pool 2 (fun () ->
            bits_equal_vec (Mat.matvec a x) mv
            && Int64.equal
                 (Int64.bits_of_float (Mat.quad a x))
                 (Int64.bits_of_float q)
            && bits_equal_mat
                 (Mat.rank_one_rescale a ~beta:(-0.37) ~b:x ~factor:1.013)
                 rs));
  ]

(* ------------------------------------------------------------------ *)
(* Projection kernel family (matvec_t / project / project_t /          *)
(* matmul_tt)                                                          *)
(* ------------------------------------------------------------------ *)

(* The kernels contract to a fixed ascending reduction order per
   output element, so one no-skip naive reference covers every path:
   skipping exactly-zero terms cannot change a finite IEEE sum's bits
   (the running sum is never −0). *)
let fill_rect k n seed =
  Mat.init k n (fun i j ->
      if (i + (3 * j) + seed) mod 4 = 0 then 0.
      else sin (float_of_int (((i * 31) + (j * 17) + seed) mod 101)))

let naive_project p x =
  Array.init (Mat.rows p) (fun i ->
      let acc = ref 0. in
      for j = 0 to Mat.cols p - 1 do
        acc := !acc +. (Mat.get p i j *. x.(j))
      done;
      !acc)

let naive_project_t p y =
  Array.init (Mat.cols p) (fun j ->
      let acc = ref 0. in
      for i = 0 to Mat.rows p - 1 do
        acc := !acc +. (Mat.get p i j *. y.(i))
      done;
      !acc)

let naive_matmul_tt a b =
  Mat.init (Mat.rows a) (Mat.rows b) (fun i j ->
      let acc = ref 0. in
      for l = 0 to Mat.cols a - 1 do
        acc := !acc +. (Mat.get a i l *. Mat.get b j l)
      done;
      !acc)

let check_projection_at (k, n) =
  let p = fill_rect k n 1 in
  let b = fill_rect (max 1 ((k / 2) + 1)) n 2 in
  let xs =
    [ fill_vec ~sparse:false n 3; fill_vec ~sparse:true n 4; fill_vec_gappy n 8 ]
  in
  let y = fill_vec ~sparse:false k 5 in
  let sq = fill_rect n n 6 in
  let proj_ref = List.map (naive_project p) xs in
  let projt_ref = naive_project_t p y in
  let mvt_ref = List.map (naive_project_t sq) xs in
  let tt_ref = naive_matmul_tt p b in
  let check jobs () =
    let tag s = Printf.sprintf "%s k=%d n=%d jobs=%d" s k n jobs in
    List.iter2
      (fun x r ->
        check_bool (tag "project") true (bits_equal_vec (Mat.project p x) r);
        let into = Vec.zeros k in
        check_bool (tag "project ~into") true
          (bits_equal_vec (Mat.project ~into p x) r))
      xs proj_ref;
    check_bool (tag "project_t") true
      (bits_equal_vec (Mat.project_t p y) projt_ref);
    let into = Vec.zeros n in
    check_bool (tag "project_t ~into") true
      (bits_equal_vec (Mat.project_t ~into p y) projt_ref);
    List.iter2
      (fun x r ->
        check_bool (tag "matvec_t") true (bits_equal_vec (Mat.matvec_t sq x) r))
      xs mvt_ref;
    check_bool (tag "matvec_t = project_t (square)") true
      (bits_equal_vec
         (Mat.matvec_t sq (List.hd xs))
         (Mat.project_t sq (List.hd xs)));
    check_bool (tag "matmul_tt") true (bits_equal_mat (Mat.matmul_tt p b) tt_ref)
  in
  check 0 ();
  List.iter (fun jobs -> with_default_pool jobs (check jobs)) [ 1; 2; 4 ]

let test_projection_small () =
  List.iter check_projection_at [ (1, 1); (2, 5); (3, 7); (8, 8); (5, 40) ];
  (* Every row count from 1 to 9 through the four-row blocks of
     [project] and [matmul_tt]. *)
  List.iter (fun k -> check_projection_at (k, 13)) [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* Straddle the pooling gates: cols 511/512 (matvec_t, project_t and
   the either-dimension project gate) and rows 512 (project and the
   matmul_tt row fan-out). *)
let test_projection_threshold () =
  List.iter check_projection_at [ (3, 511); (3, 512); (512, 3); (96, 520) ];
  (* Pooled row chunks of four that end in a partial block: 9 rows in
     chunks of 4, 4, 1 and 37 rows in nine chunks of 4 and one of 1. *)
  List.iter check_projection_at [ (9, 512); (37, 520) ]

let test_projection_validation () =
  let p = fill_rect 2 3 1 in
  Alcotest.check_raises "project dimension mismatch"
    (Invalid_argument "Mat.project: dimension mismatch") (fun () ->
      ignore (Mat.project p [| 1.; 2. |]));
  Alcotest.check_raises "project into mismatch"
    (Invalid_argument "Mat.project: into dimension mismatch") (fun () ->
      ignore (Mat.project ~into:(Vec.zeros 3) p [| 1.; 2.; 3. |]));
  Alcotest.check_raises "project_t dimension mismatch"
    (Invalid_argument "Mat.project_t: dimension mismatch") (fun () ->
      ignore (Mat.project_t p [| 1.; 2.; 3. |]));
  Alcotest.check_raises "project_t into mismatch"
    (Invalid_argument "Mat.project_t: into dimension mismatch") (fun () ->
      ignore (Mat.project_t ~into:(Vec.zeros 2) p [| 1.; 2. |]));
  Alcotest.check_raises "matvec_t into mismatch"
    (Invalid_argument "Mat.matvec_t: into dimension mismatch") (fun () ->
      ignore (Mat.matvec_t ~into:(Vec.zeros 2) p [| 1.; 2. |]));
  let sq = fill_mat 3 1 in
  let x = [| 1.; 2.; 3. |] in
  Alcotest.check_raises "matvec_t into aliases the input"
    (Invalid_argument "Mat.matvec_t: into aliases the input") (fun () ->
      ignore (Mat.matvec_t ~into:x sq x));
  Alcotest.check_raises "matmul_tt dimension mismatch"
    (Invalid_argument "Mat.matmul_tt: dimension mismatch") (fun () ->
      ignore (Mat.matmul_tt p (fill_rect 2 4 2)));
  (* Aliasing is only expressible on square shapes; it must be caught,
     not silently overwritten mid-reduction. *)
  let s = fill_rect 3 3 4 in
  let x = [| 1.; 2.; 3. |] in
  Alcotest.check_raises "project into aliases input"
    (Invalid_argument "Mat.project: into aliases the input") (fun () ->
      ignore (Mat.project ~into:x s x));
  Alcotest.check_raises "project_t into aliases input"
    (Invalid_argument "Mat.project_t: into aliases the input") (fun () ->
      ignore (Mat.project_t ~into:x s x))

let projection_props =
  [
    prop "projection kernels bit-match naive reference under a pool" 60
      QCheck.(triple (int_range 1 12) (int_range 1 48) (int_range 0 1000))
      (fun (k, n, seed) ->
        let p = fill_rect k n seed in
        let b = fill_rect (max 1 (k - 1)) n (seed + 1) in
        let x = fill_vec ~sparse:(seed mod 2 = 0) n (seed + 2) in
        let y = fill_vec ~sparse:(seed mod 3 = 0) k (seed + 3) in
        let pr = naive_project p x in
        let ptr = naive_project_t p y in
        let ttr = naive_matmul_tt p b in
        with_default_pool 2 (fun () ->
            bits_equal_vec (Mat.project p x) pr
            && bits_equal_vec (Mat.project_t p y) ptr
            && bits_equal_mat (Mat.matmul_tt p b) ttr));
    prop "matmul_tt agrees with matmul against the transpose" 60
      QCheck.(triple (int_range 1 10) (int_range 1 24) (int_range 0 1000))
      (fun (k, n, seed) ->
        let a = fill_rect k n seed in
        let b = fill_rect (max 1 (k / 2)) n (seed + 5) in
        Mat.approx_equal ~tol:1e-9 (Mat.matmul_tt a b)
          (Mat.matmul a (Mat.transpose b)));
    prop "matvec_t bit-matches matvec of the transpose's reduction" 60
      QCheck.(pair (int_range 1 32) (int_range 0 1000))
      (fun (n, seed) ->
        let a = fill_rect n n seed in
        let x = fill_vec ~sparse:(seed mod 2 = 0) n (seed + 1) in
        bits_equal_vec (Mat.matvec_t a x) (naive_project_t a x));
  ]

(* ------------------------------------------------------------------ *)
(* Vec.Sparse views + sparse-aware kernels                             *)
(* ------------------------------------------------------------------ *)

let test_sparse_view () =
  let x = Array.make 16 0. in
  x.(1) <- 3.;
  x.(4) <- -2.;
  (match Vec.Sparse.of_dense x with
  | None -> Alcotest.fail "2/16 density must pass the 0.125 threshold"
  | Some s ->
      check_int "dim" 16 (Vec.Sparse.dim s);
      check_int "nnz" 2 (Vec.Sparse.nnz s);
      check_float "density" 0.125 (Vec.Sparse.density s);
      check_bool "ascending idx" true (s.Vec.Sparse.idx = [| 1; 4 |]);
      check_bool "values" true (s.Vec.Sparse.value = [| 3.; -2. |]);
      check_bool "round-trip" true (bits_equal_vec (Vec.Sparse.to_dense s) x));
  (* A dense vector is rejected by the threshold but not by [gather]. *)
  check_bool "dense rejected" true (Vec.Sparse.of_dense (Vec.ones 4) = None);
  check_int "gather ignores threshold" 4 (Vec.Sparse.nnz (Vec.Sparse.gather (Vec.ones 4)));
  (* −0. entries are exact zeros and must not be gathered. *)
  check_int "negative zero skipped" 1
    (Vec.Sparse.nnz (Vec.Sparse.gather [| -0.; 5.; 0. |]));
  Alcotest.check_raises "non-positive max_density"
    (Invalid_argument "Vec.Sparse.of_dense: max_density must be positive")
    (fun () -> ignore (Vec.Sparse.of_dense ~max_density:0. (Vec.ones 4)))

(* Bit-exactly symmetric, plus some ±0 pairs (M(i,j) = −0 against
   M(j,i) = +0): the only asymmetry an ellipsoid shape may carry, since
   the dense rank-one kernel's skipped rows can leave one behind. *)
let sym_mat n seed =
  let a = fill_mat n seed in
  let s = Mat.add a (Mat.transpose a) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (i + j + seed) mod 5 = 0 then begin
        Mat.set s i j (-0.);
        Mat.set s j i 0.
      end
    done
  done;
  s

(* The sparse kernels promise bit-identity with their dense
   counterparts on the gathered vector, at any dimension and worker
   count (the dense side may pool, the sparse side is serial).  The
   sparse cut's M·x is [matvec_t] on the symmetric shape: it must
   match [matvec] bit for bit and overwrite every entry of [into]. *)
let check_sparse_kernels_at n =
  let a = fill_mat n 1 in
  let s = sym_mat n 1 in
  let x = fill_vec ~sparse:true n 4 in
  let sx = Vec.Sparse.gather x in
  let check jobs () =
    let tag s = Printf.sprintf "%s n=%d jobs=%d" s n jobs in
    check_bool (tag "matvec_t ~into on a symmetric matrix") true
      (bits_equal_vec
         (Mat.matvec_t ~into:(Array.make n Float.nan) s x)
         (Mat.matvec s x));
    check_bool (tag "quad_sparse") true
      (Int64.equal
         (Int64.bits_of_float (Mat.quad_sparse a sx))
         (Int64.bits_of_float (Mat.quad a x)));
    check_bool (tag "dot_dense") true
      (Int64.equal
         (Int64.bits_of_float (Vec.Sparse.dot_dense sx (Mat.row a 0)))
         (Int64.bits_of_float (Vec.dot x (Mat.row a 0))))
  in
  check 0 ();
  List.iter (fun jobs -> with_default_pool jobs (check jobs)) [ 1; 2; 4 ]

let test_sparse_kernels_small () = List.iter check_sparse_kernels_at [ 1; 2; 7; 40 ]

let test_sparse_kernels_threshold () =
  List.iter check_sparse_kernels_at [ 511; 512 ]

let test_sparse_rescale () =
  (* In-place sparse rank-one vs the allocating dense rescale at
     factor 1 (1.0·x is IEEE-exact, so the dense result is the pure
     rank-one update): identical bits on the matrix, and the returned
     scalar is exactly factor·scale. *)
  let n = 40 in
  let a = Mat.matmul (fill_mat n 2) (Mat.transpose (fill_mat n 2)) in
  let b = fill_vec ~sparse:true n 9 in
  let sb = Vec.Sparse.gather b in
  let mutated = Mat.copy a in
  let scale' =
    Mat.rank_one_rescale_sparse mutated ~beta:(-0.43) ~b:sb ~factor:1.07
      ~scale:0.83
  in
  let reference = Mat.rank_one_rescale a ~beta:(-0.43) ~b ~factor:1. in
  check_bool "support-block update bit-matches dense rank-one" true
    (bits_equal_mat mutated reference);
  check_bool "scalar is factor*scale" true
    (Int64.equal (Int64.bits_of_float scale')
       (Int64.bits_of_float (1.07 *. 0.83)));
  (* Bit-exact symmetry survives the in-place sparse update. *)
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Mat.get mutated i j))
             (Int64.bits_of_float (Mat.get mutated j i)))
      then ok := false
    done
  done;
  check_bool "bit-exact symmetry" true !ok

let sparse_props =
  [
    prop "of_dense round-trips and stores no zeros" 200
      QCheck.(pair (int_range 1 64) (int_range 0 1000))
      (fun (n, seed) ->
        let x = fill_vec ~sparse:(seed mod 3 <> 0) n seed in
        match Vec.Sparse.of_dense x with
        | None ->
            (* Rejected: the density really is above the threshold. *)
            let s = Vec.Sparse.gather x in
            Vec.Sparse.density s > Vec.Sparse.default_max_density
        | Some s ->
            Vec.Sparse.density s <= Vec.Sparse.default_max_density
            && Array.for_all (fun v -> v <> 0.) s.Vec.Sparse.value
            && bits_equal_vec (Vec.Sparse.to_dense s) x);
    prop "sparse kernels bit-match dense (with pool)" 60
      QCheck.(pair (int_range 1 32) (int_range 0 1000))
      (fun (n, seed) ->
        let a = fill_mat n seed in
        let s = sym_mat n seed in
        let x = fill_vec ~sparse:true n (seed + 3) in
        let sx = Vec.Sparse.gather x in
        let y = fill_vec ~sparse:false n (seed + 5) in
        with_default_pool 2 (fun () ->
            bits_equal_vec
              (Mat.matvec_t ~into:(Array.make n Float.nan) s x)
              (Mat.matvec s x)
            && Int64.equal
                 (Int64.bits_of_float (Mat.quad_sparse a sx))
                 (Int64.bits_of_float (Mat.quad a x))
            && Int64.equal
                 (Int64.bits_of_float (Vec.Sparse.dot_dense sx y))
                 (Int64.bits_of_float (Vec.dot x y))));
    prop "sparse rescale bit-matches dense rank-one" 60
      QCheck.(pair (int_range 1 32) (int_range 0 1000))
      (fun (n, seed) ->
        let a = fill_mat n seed in
        let b = fill_vec ~sparse:true n (seed + 7) in
        let sb = Vec.Sparse.gather b in
        let mutated = Mat.copy a in
        let scale' =
          Mat.rank_one_rescale_sparse mutated ~beta:(-0.37) ~b:sb ~factor:1.013
            ~scale:2.5
        in
        bits_equal_mat mutated (Mat.rank_one_rescale a ~beta:(-0.37) ~b ~factor:1.)
        && Int64.equal (Int64.bits_of_float scale')
             (Int64.bits_of_float (1.013 *. 2.5)));
  ]

(* ------------------------------------------------------------------ *)
(* Batch gather/scatter + blocked batch projection                     *)
(* ------------------------------------------------------------------ *)

let test_pack_unpack () =
  let vs = Array.init 3 (fun i -> fill_vec ~sparse:(i = 1) 7 (i + 1)) in
  let panel = Mat.pack_rows vs in
  check_int "rows" 3 (Mat.rows panel);
  check_int "cols" 7 (Mat.cols panel);
  Array.iteri
    (fun i v ->
      check_bool "packed row bits" true (bits_equal_vec (Mat.row panel i) v))
    vs;
  (* [~into] reuse hands back the same panel with the same contents. *)
  let panel' = Mat.pack_rows ~into:panel vs in
  check_bool "into returns the panel" true (panel' == panel);
  let buf = Vec.zeros 7 in
  Array.iteri
    (fun i v ->
      Mat.unpack_row panel i ~into:buf;
      check_bool "unpacked row bits" true (bits_equal_vec buf v))
    vs;
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Mat.pack_rows: no rows") (fun () ->
      ignore (Mat.pack_rows [||]));
  Alcotest.check_raises "ragged batch"
    (Invalid_argument "Mat.pack_rows: ragged rows") (fun () ->
      ignore (Mat.pack_rows [| Vec.zeros 3; Vec.zeros 4 |]));
  Alcotest.check_raises "pack into mismatch"
    (Invalid_argument "Mat.pack_rows: into dimension mismatch") (fun () ->
      ignore (Mat.pack_rows ~into:(Mat.zeros 2 7) vs));
  Alcotest.check_raises "unpack row out of range"
    (Invalid_argument "Mat.unpack_row: row out of range") (fun () ->
      Mat.unpack_row panel 3 ~into:buf);
  Alcotest.check_raises "unpack into mismatch"
    (Invalid_argument "Mat.unpack_row: into dimension mismatch") (fun () ->
      Mat.unpack_row panel 0 ~into:(Vec.zeros 6))

(* Every row of the blocked batch projection must carry the exact bits
   of the corresponding single-vector [project] — the contract the
   batched decide path's bit-identity rests on. *)
let check_batch_at (k, n, b) =
  let p = fill_rect k n 1 in
  let pt = Mat.transpose p in
  let vs = Array.init b (fun i -> fill_vec ~sparse:(i mod 2 = 0) n (i + 3)) in
  let xs = Mat.pack_rows vs in
  let reference = Array.map (naive_project p) vs in
  let check jobs () =
    let tag s = Printf.sprintf "%s k=%d n=%d b=%d jobs=%d" s k n b jobs in
    let u = Mat.project_batch ~pt xs in
    check_int (tag "rows") b (Mat.rows u);
    check_int (tag "cols") k (Mat.cols u);
    Array.iteri
      (fun i r ->
        check_bool (tag "row = naive") true (bits_equal_vec (Mat.row u i) r);
        check_bool (tag "row = project") true
          (bits_equal_vec (Mat.row u i) (Mat.project p vs.(i))))
      reference;
    let into = Mat.zeros b k in
    let u' = Mat.project_batch ~into ~pt xs in
    check_bool (tag "into returned") true (u' == into);
    check_bool (tag "into bits") true (bits_equal_mat u' u)
  in
  check 0 ();
  List.iter (fun jobs -> with_default_pool jobs (check jobs)) [ 1; 2; 4 ]

let test_batch_small () =
  List.iter check_batch_at [ (1, 1, 1); (2, 5, 3); (8, 8, 8); (5, 40, 17) ]

(* Straddle the pool gate (either dimension of the panel at 512) and
   leave shared-dimension remainders on both sides of the 8-wide
   register blocking. *)
let test_batch_threshold () =
  List.iter check_batch_at
    [ (3, 511, 4); (3, 512, 4); (16, 520, 2); (2, 40, 512) ]

let test_batch_validation () =
  let p = fill_rect 2 3 1 in
  let pt = Mat.transpose p in
  let xs = Mat.pack_rows [| fill_vec ~sparse:false 3 1 |] in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Mat.project_batch: dimension mismatch") (fun () ->
      ignore (Mat.project_batch ~pt:(Mat.transpose (fill_rect 2 4 1)) xs));
  Alcotest.check_raises "into mismatch"
    (Invalid_argument "Mat.project_batch: into dimension mismatch") (fun () ->
      ignore (Mat.project_batch ~into:(Mat.zeros 1 3) ~pt xs));
  (* Aliasing is only expressible on square shapes; both operands must
     be caught before the blocked pass scribbles over them. *)
  let sq = fill_rect 3 3 4 in
  let spt = Mat.transpose sq in
  let sxs = Mat.pack_rows (Array.init 3 (fun i -> fill_vec ~sparse:false 3 i)) in
  Alcotest.check_raises "into aliases the panel"
    (Invalid_argument "Mat.project_batch: into aliases an input") (fun () ->
      ignore (Mat.project_batch ~into:sxs ~pt:spt sxs));
  Alcotest.check_raises "into aliases the projection"
    (Invalid_argument "Mat.project_batch: into aliases an input") (fun () ->
      ignore (Mat.project_batch ~into:spt ~pt:spt sxs))

let batch_props =
  [
    prop "project_batch rows bit-match project under a pool" 60
      QCheck.(
        quad (int_range 1 8) (int_range 1 40) (int_range 1 24)
          (int_range 0 1000))
      (fun (k, n, b, seed) ->
        let p = fill_rect k n seed in
        let pt = Mat.transpose p in
        let vs =
          Array.init b (fun i ->
              fill_vec ~sparse:((i + seed) mod 2 = 0) n (seed + i))
        in
        let reference = Array.map (naive_project p) vs in
        with_default_pool 2 (fun () ->
            let u = Mat.project_batch ~pt (Mat.pack_rows vs) in
            let ok = ref true in
            Array.iteri
              (fun i r ->
                if not (bits_equal_vec (Mat.row u i) r) then ok := false)
              reference;
            !ok));
  ]

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  ignore vec_gen;
  Alcotest.run "dm_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "basis" `Quick test_vec_basis;
          Alcotest.test_case "arithmetic" `Quick test_vec_ops;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "slice/sort/concat" `Quick test_vec_slice_sort;
        ]
        @ vec_props );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_identity;
          Alcotest.test_case "matvec" `Quick test_mat_matvec;
          Alcotest.test_case "matmul" `Quick test_mat_matmul;
          Alcotest.test_case "quadratic form" `Quick test_mat_quad;
          Alcotest.test_case "rank-one update" `Quick test_mat_rank_one;
          Alcotest.test_case "outer product" `Quick test_mat_outer;
          Alcotest.test_case "symmetrize" `Quick test_mat_symmetrize;
          Alcotest.test_case "ragged input" `Quick test_mat_ragged;
          Alcotest.test_case "row/col/diag" `Quick test_mat_row_col_diag;
        ]
        @ mat_props );
      ( "chol",
        [
          Alcotest.test_case "known factor" `Quick test_chol_known;
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "indefinite input" `Quick test_chol_not_pd;
          Alcotest.test_case "log det" `Quick test_chol_log_det;
        ]
        @ chol_props
        @ [ Alcotest.test_case "NaN pivot" `Quick test_chol_nan_pivot ] );
      ( "lu",
        [
          Alcotest.test_case "known inverse" `Quick test_lu_known;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "singular input" `Quick test_lu_singular;
        ]
        @ lu_props );
      ( "eigen",
        [
          Alcotest.test_case "diagonal matrix" `Quick test_eigen_diag;
          Alcotest.test_case "known 2x2" `Quick test_eigen_known_2x2;
          Alcotest.test_case "asymmetric input" `Quick test_eigen_not_symmetric;
          Alcotest.test_case "log volume" `Quick test_eigen_log_volume;
        ]
        @ eigen_props );
      ( "pool",
        [
          Alcotest.test_case "pool basics" `Quick test_pool_basics;
          Alcotest.test_case "kernels vs naive (small dims)" `Quick
            test_kernels_small;
          Alcotest.test_case "kernels vs naive (511/512 threshold)" `Slow
            test_kernels_threshold;
          Alcotest.test_case "fused rescale bit-exact symmetry" `Quick
            test_rescale_symmetry;
          Alcotest.test_case "fused rescale validation" `Quick
            test_rescale_validation;
        ]
        @ pool_props );
      ( "projection",
        [
          Alcotest.test_case "kernels vs naive (small dims)" `Quick
            test_projection_small;
          Alcotest.test_case "kernels vs naive (511/512 threshold)" `Slow
            test_projection_threshold;
          Alcotest.test_case "validation" `Quick test_projection_validation;
        ]
        @ projection_props );
      ( "batch",
        [
          Alcotest.test_case "pack/unpack round-trip" `Quick test_pack_unpack;
          Alcotest.test_case "project_batch vs project (small dims)" `Quick
            test_batch_small;
          Alcotest.test_case "project_batch vs project (511/512 threshold)"
            `Slow test_batch_threshold;
          Alcotest.test_case "validation" `Quick test_batch_validation;
        ]
        @ batch_props );
      ( "sparse",
        [
          Alcotest.test_case "sparse view basics" `Quick test_sparse_view;
          Alcotest.test_case "sparse kernels vs dense (small dims)" `Quick
            test_sparse_kernels_small;
          Alcotest.test_case "sparse kernels vs dense (511/512 threshold)"
            `Slow test_sparse_kernels_threshold;
          Alcotest.test_case "in-place sparse rescale" `Quick
            test_sparse_rescale;
        ]
        @ sparse_props );
    ]
