module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat

type params = { learning_rate : float; l2 : float; iterations : int }

let default_params = { learning_rate = 0.5; l2 = 1e-4; iterations = 200 }

type model = { weights : Vec.t; bias : float }

let sigmoid z =
  if z >= 0. then 1. /. (1. +. exp (-.z))
  else
    let e = exp z in
    e /. (1. +. e)

let fit ?(params = default_params) x labels =
  let rows, cols = Mat.dims x in
  if rows = 0 then invalid_arg "Logreg.fit: no rows";
  if rows <> Array.length labels then invalid_arg "Logreg.fit: shape mismatch";
  if not (params.learning_rate > 0.) then
    invalid_arg "Logreg.fit: learning rate must be > 0, not NaN";
  if not (params.l2 >= 0.) then invalid_arg "Logreg.fit: negative or NaN l2";
  if params.iterations < 1 then invalid_arg "Logreg.fit: need iterations";
  let w = Vec.zeros cols in
  let b = ref 0. in
  let grad_w = Vec.zeros cols in
  let inv_rows = 1. /. float_of_int rows in
  for _ = 1 to params.iterations do
    Array.fill grad_w 0 cols 0.;
    let grad_b = ref 0. in
    for i = 0 to rows - 1 do
      let xi = Mat.row x i in
      let err = sigmoid (Vec.dot w xi +. !b) -. (if labels.(i) then 1. else 0.) in
      Vec.axpy (err *. inv_rows) xi grad_w;
      grad_b := !grad_b +. (err *. inv_rows)
    done;
    (* L2 on the weights only. *)
    Vec.axpy params.l2 w grad_w;
    Vec.axpy (-.params.learning_rate) grad_w w;
    b := !b -. (params.learning_rate *. !grad_b)
  done;
  { weights = w; bias = !b }

let predict m x = sigmoid (Vec.dot m.weights x +. m.bias)

let log_loss m x labels =
  let rows = Mat.rows x in
  if rows = 0 || rows <> Array.length labels then
    invalid_arg "Logreg.log_loss: shape mismatch";
  let eps = 1e-12 in
  let acc = ref 0. in
  for i = 0 to rows - 1 do
    let p = Float.min (1. -. eps) (Float.max eps (predict m (Mat.row x i))) in
    acc := !acc -. if labels.(i) then log p else log (1. -. p)
  done;
  !acc /. float_of_int rows

let nonzeros ?(tol = 1e-9) m =
  Array.fold_left (fun acc w -> if abs_float w > tol then acc + 1 else acc) 0
    m.weights
