type online = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations (Welford) *)
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let online_create () =
  { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; sum = 0. }

let online_add o x =
  o.count <- o.count + 1;
  let delta = x -. o.mean in
  o.mean <- o.mean +. (delta /. float_of_int o.count);
  o.m2 <- o.m2 +. (delta *. (x -. o.mean));
  if x < o.min then o.min <- x;
  if x > o.max then o.max <- x;
  o.sum <- o.sum +. x

let online_count o = o.count

let online_mean o = if o.count = 0 then nan else o.mean

let online_variance o =
  if o.count < 2 then 0. else o.m2 /. float_of_int (o.count - 1)

let online_std o = sqrt (online_variance o)

let online_min o = if o.count = 0 then nan else o.min

let online_max o = if o.count = 0 then nan else o.max

let online_sum o = o.sum

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty input";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let std xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.std: empty input";
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty input";
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Stats.quantile: p outside [0,1] or NaN";
  let sorted = Dm_linalg.Vec.sorted xs in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = quantile xs 0.5

type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  sum : float;
}

let summarize (o : online) =
  {
    count = o.count;
    mean = online_mean o;
    std = online_std o;
    min = online_min o;
    max = online_max o;
    sum = o.sum;
  }

let pp_summary ppf s =
  if s.count = 0 then Format.fprintf ppf "n=0 (empty)"
  else
    Format.fprintf ppf "n=%d mean=%.4f std=%.4f min=%.4f max=%.4f sum=%.4f"
      s.count s.mean s.std s.min s.max s.sum
