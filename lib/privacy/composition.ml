type level = { eps : float; del : float }

let check_level { eps; del } =
  if not (eps >= 0. && del >= 0.) then
    invalid_arg "Composition: negative or NaN level"

let pure eps =
  let l = { eps; del = 0. } in
  check_level l;
  l

let approx ~eps ~del =
  let l = { eps; del } in
  check_level l;
  l

let basic levels =
  List.iter check_level levels;
  List.fold_left
    (fun acc l -> { eps = acc.eps +. l.eps; del = acc.del +. l.del })
    { eps = 0.; del = 0. }
    levels

let advanced ~k ~slack l =
  check_level l;
  if k < 1 then invalid_arg "Composition.advanced: k must be >= 1";
  if not (slack > 0. && slack < 1.) then
    invalid_arg "Composition.advanced: slack must be in (0, 1), not NaN";
  let kf = float_of_int k in
  {
    eps =
      (sqrt (2. *. kf *. log (1. /. slack)) *. l.eps)
      +. (kf *. l.eps *. (exp l.eps -. 1.));
    del = (kf *. l.del) +. slack;
  }

let best_of ~k ~slack l =
  let b = basic (List.init k (fun _ -> l)) in
  let a = advanced ~k ~slack l in
  if a.eps < b.eps then a else b

let gaussian_scale ~sensitivity l =
  if not (sensitivity > 0.) then
    invalid_arg "Composition.gaussian_scale: sensitivity must be > 0, not NaN";
  if not (l.eps > 0. && l.eps <= 1.) then
    invalid_arg "Composition.gaussian_scale: eps must be in (0, 1], not NaN";
  if not (l.del > 0. && l.del < 1.) then
    invalid_arg "Composition.gaussian_scale: delta must be in (0, 1), not NaN";
  sensitivity *. sqrt (2. *. log (1.25 /. l.del)) /. l.eps

type accountant = { budget : level; spends : level array }

let accountant ~owners ~budget =
  if owners < 1 then invalid_arg "Composition.accountant: need owners";
  check_level budget;
  { budget; spends = Array.make owners { eps = 0.; del = 0. } }

let check_owner a owner =
  if owner < 0 || owner >= Array.length a.spends then
    invalid_arg "Composition: owner out of range"

let within budget spend_ =
  spend_.eps <= budget.eps +. 1e-12 && spend_.del <= budget.del +. 1e-12

let spend a ~owner l =
  check_owner a owner;
  check_level l;
  let now = basic [ a.spends.(owner); l ] in
  a.spends.(owner) <- now;
  within a.budget now

let spent a ~owner =
  check_owner a owner;
  a.spends.(owner)

let remaining a ~owner =
  check_owner a owner;
  let s = a.spends.(owner) in
  {
    eps = Float.max 0. (a.budget.eps -. s.eps);
    del = Float.max 0. (a.budget.del -. s.del);
  }

let exhausted a =
  let out = ref [] in
  for i = Array.length a.spends - 1 downto 0 do
    if not (within a.budget a.spends.(i)) then out := i :: !out
  done;
  !out
