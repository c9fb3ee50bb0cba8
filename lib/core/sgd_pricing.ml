module Vec = Dm_linalg.Vec

type t = {
  theta : Vec.t;
  radius : float;
  learning_rate : float;
  margin : float;
  use_reserve : bool;
  mutable t : int;
}

let create ?(learning_rate = 5.) ?(margin = 0.3) ?(use_reserve = true) ~dim
    ~radius () =
  if dim < 1 then invalid_arg "Sgd_pricing.create: dim must be >= 1";
  if not (radius > 0.) then invalid_arg "Sgd_pricing.create: radius must be > 0";
  if not (learning_rate > 0.) then
    invalid_arg "Sgd_pricing.create: learning rate must be > 0";
  if not (margin >= 0.) then invalid_arg "Sgd_pricing.create: negative margin";
  { theta = Vec.zeros dim; radius; learning_rate; margin; use_reserve; t = 0 }

let estimate s = Vec.copy s.theta

let rounds_seen s = s.t

let project s =
  let norm = Vec.norm2 s.theta in
  if norm > s.radius then begin
    let f = s.radius /. norm in
    for i = 0 to Vec.dim s.theta - 1 do
      s.theta.(i) <- f *. s.theta.(i)
    done
  end

let decide s ~x ~reserve =
  s.t <- s.t + 1;
  let tf = float_of_int s.t in
  let estimate = Vec.dot x s.theta in
  (* Price below the estimate by a shrinking margin: early rounds
     under-price to keep acceptance (and learning signal) frequent. *)
  let discount = s.margin *. (tf ** (-1. /. 3.)) *. s.radius in
  let price = estimate -. discount in
  let price = if s.use_reserve then Float.max reserve price else price in
  Some price

let learn s ~x ~price ~accepted =
  (* Subgradient of the hinge surrogate: move only when the estimate
     disagrees with the observed comparison. *)
  let estimate = Vec.dot x s.theta in
  let direction =
    if accepted && estimate < price then 1.
    else if (not accepted) && estimate > price then -1.
    else 0.
  in
  if direction <> 0. then begin
    let eta = s.learning_rate /. sqrt (float_of_int (max 1 s.t)) in
    Vec.axpy (direction *. eta) x s.theta;
    project s
  end

let policy s =
  {
    Broker.policy_name = "sgd (Amin et al. style)";
    decide = (fun ~x ~reserve -> decide s ~x ~reserve);
    learn = (fun ~x ~price ~accepted -> learn s ~x ~price ~accepted);
    uses_reserve = s.use_reserve;
  }
