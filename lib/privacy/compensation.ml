module Vec = Dm_linalg.Vec

type t =
  | Linear of { rate : float }
  | Tanh of { cap : float; steepness : float }

let linear ~rate =
  if not (rate >= 0.) then
    invalid_arg "Compensation.linear: negative or NaN rate";
  Linear { rate }

let tanh_contract ~cap ~steepness =
  if not (cap >= 0.) then
    invalid_arg "Compensation.tanh_contract: negative or NaN cap";
  if not (steepness >= 0.) then
    invalid_arg "Compensation.tanh_contract: negative or NaN steepness";
  Tanh { cap; steepness }

(* Inlined into [per_owner]'s loop, where the result is stored unboxed. *)
let[@inline] amount c eps =
  if not (eps >= 0.) then
    invalid_arg "Compensation.amount: negative or NaN leakage";
  match c with
  | Linear { rate } -> rate *. eps
  | Tanh { cap; steepness } -> cap *. tanh (steepness *. eps)

let cap = function
  | Linear { rate } -> if rate = 0. then 0. else infinity
  | Tanh { cap; _ } -> cap

let per_owner ~contracts ~leakages =
  let m = Vec.dim leakages in
  if Array.length contracts <> m then
    invalid_arg "Compensation.per_owner: length mismatch";
  let out = Array.create_float m in
  for i = 0 to m - 1 do
    Array.unsafe_set out i
      (amount (Array.unsafe_get contracts i) (Array.unsafe_get leakages i))
  done;
  out

let total ~contracts ~leakages = Vec.sum (per_owner ~contracts ~leakages)
