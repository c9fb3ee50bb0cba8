module Vec = Dm_linalg.Vec

type link = { name : string; g : float -> float; g_inv : float -> float }

let identity_link = { name = "identity"; g = Fun.id; g_inv = Fun.id }

let exp_link =
  {
    name = "exp";
    g = exp;
    g_inv = (fun y -> if y <= 0. then neg_infinity else log y);
  }

let sigmoid g_z =
  if g_z >= 0. then 1. /. (1. +. exp (-.g_z))
  else
    let e = exp g_z in
    e /. (1. +. e)

let sigmoid_link =
  {
    name = "sigmoid";
    g = sigmoid;
    g_inv =
      (fun y ->
        if y <= 0. then neg_infinity
        else if y >= 1. then infinity
        else log (y /. (1. -. y)));
  }

type t = {
  name : string;
  link : link;
  phi : Vec.t -> Vec.t;
  theta : Vec.t;
}

let check_theta name theta =
  if Vec.dim theta = 0 then invalid_arg (name ^ ": empty weight vector")

let linear ~theta =
  check_theta "Model.linear" theta;
  { name = "linear"; link = identity_link; phi = Fun.id; theta }

let log_linear ~theta =
  check_theta "Model.log_linear" theta;
  { name = "log-linear"; link = exp_link; phi = Fun.id; theta }

let log_log ~theta =
  check_theta "Model.log_log" theta;
  let phi x =
    Vec.map
      (fun xi ->
        if not (xi > 0.) then
          invalid_arg "Model.log_log: non-positive or NaN feature"
        else log xi)
      x
  in
  { name = "log-log"; link = exp_link; phi; theta }

let logistic ~theta =
  check_theta "Model.logistic" theta;
  { name = "logistic"; link = sigmoid_link; phi = Fun.id; theta }

let kernelized ~map ~theta =
  check_theta "Model.kernelized" theta;
  if Vec.dim theta <> Dm_ml.Kernel.landmark_dim map then
    invalid_arg "Model.kernelized: one weight per landmark required";
  {
    name = "kernelized";
    link = identity_link;
    phi = Dm_ml.Kernel.apply map;
    theta;
  }

let custom ~name ~link ~phi ~theta =
  check_theta ("Model.custom(" ^ name ^ ")") theta;
  { name; link; phi; theta }

let index_dim t = Vec.dim t.theta

let feature_map t x = t.phi x

let index t x =
  let fx = t.phi x in
  if Vec.dim fx <> Vec.dim t.theta then
    invalid_arg "Model.index: feature map dimension mismatch";
  Vec.dot fx t.theta

let value ?(noise = 0.) t x = t.link.g (index t x +. noise)

let price_of_index t z = t.link.g z

let index_of_price t p = t.link.g_inv p
