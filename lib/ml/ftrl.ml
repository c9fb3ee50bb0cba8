type params = { alpha : float; beta : float; l1 : float; l2 : float }

let default_params = { alpha = 0.1; beta = 1.; l1 = 1.; l2 = 1. }

type t = {
  params : params;
  z : float array;  (* shifted gradient sums *)
  n : float array;  (* squared gradient sums *)
  dim : int;
}

let create ?(params = default_params) ~dim () =
  if dim < 1 then invalid_arg "Ftrl.create: dim must be >= 1";
  if not (params.alpha > 0.) then
    invalid_arg "Ftrl.create: alpha must be > 0, not NaN";
  if not (params.beta >= 0. && params.l1 >= 0. && params.l2 >= 0.) then
    invalid_arg "Ftrl.create: negative or NaN regularization";
  { params; z = Array.make dim 0.; n = Array.make dim 0.; dim }

let dim t = t.dim

(* The FTRL-Proximal closed-form weight for one coordinate. *)
let weight t i =
  let { alpha; beta; l1; l2 } = t.params in
  let zi = t.z.(i) in
  if abs_float zi <= l1 then 0.
  else
    let sign = if zi >= 0. then 1. else -1. in
    -.(zi -. (sign *. l1))
    /. (((beta +. sqrt t.n.(i)) /. alpha) +. l2)

let weights t = Array.init t.dim (weight t)

let nonzeros t =
  let count = ref 0 in
  for i = 0 to t.dim - 1 do
    if weight t i <> 0. then incr count
  done;
  !count

let sigmoid z =
  if z >= 0. then 1. /. (1. +. exp (-.z))
  else
    let e = exp z in
    e /. (1. +. e)

let raw_score t (features : Hashing.feature list) =
  List.fold_left
    (fun acc { Hashing.index; value } -> acc +. (weight t index *. value))
    0. features

let predict t features = sigmoid (raw_score t features)

let learn t features clicked =
  let p = predict t features in
  let y = if clicked then 1. else 0. in
  let g0 = p -. y in
  let { alpha; _ } = t.params in
  List.iter
    (fun { Hashing.index = i; value } ->
      let g = g0 *. value in
      let sigma = (sqrt (t.n.(i) +. (g *. g)) -. sqrt t.n.(i)) /. alpha in
      t.z.(i) <- t.z.(i) +. g -. (sigma *. weight t i);
      t.n.(i) <- t.n.(i) +. (g *. g))
    features;
  p

let train t examples ~epochs =
  if epochs < 0 then invalid_arg "Ftrl.train: negative epochs";
  for _ = 1 to epochs do
    Array.iter (fun (x, y) -> ignore (learn t x y)) examples
  done

let log_loss t examples =
  let m = Array.length examples in
  if m = 0 then invalid_arg "Ftrl.log_loss: empty set";
  let eps = 1e-12 in
  let acc = ref 0. in
  Array.iter
    (fun (x, clicked) ->
      let p = Float.min (1. -. eps) (Float.max eps (predict t x)) in
      acc := !acc -. if clicked then log p else log (1. -. p))
    examples;
  !acc /. float_of_int m
