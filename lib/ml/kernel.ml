module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Eigen = Dm_linalg.Eigen

type t =
  | Linear
  | Polynomial of { degree : int; offset : float }
  | Rbf of { gamma : float }

let eval k x y =
  if Vec.dim x <> Vec.dim y then invalid_arg "Kernel.eval: dimension mismatch";
  match k with
  | Linear -> Vec.dot x y
  | Polynomial { degree; offset } ->
      if degree < 1 then invalid_arg "Kernel.eval: degree must be >= 1";
      if not (offset >= 0.) then
        invalid_arg "Kernel.eval: negative or NaN offset";
      (Vec.dot x y +. offset) ** float_of_int degree
  | Rbf { gamma } ->
      if not (gamma > 0.) then
        invalid_arg "Kernel.eval: gamma must be > 0, not NaN";
      let d = Vec.dist2 x y in
      exp (-.gamma *. d *. d)

let gram k points =
  let n = Array.length points in
  let g = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let v = eval k points.(i) points.(j) in
      Mat.set g i j v;
      Mat.set g j i v
    done
  done;
  g

let is_psd_sample k points =
  match Array.length points with
  | 0 -> true
  | _ ->
      let g = gram k points in
      Eigen.smallest_eigenvalue g >= -1e-8

type landmark_map = { kernel : t; landmarks : Vec.t array }

let landmark_map kernel ~landmarks =
  if Array.length landmarks = 0 then
    invalid_arg "Kernel.landmark_map: need at least one landmark";
  { kernel; landmarks }

let landmark_dim m = Array.length m.landmarks

let apply m x =
  Vec.init (Array.length m.landmarks) (fun i -> eval m.kernel x m.landmarks.(i))
