type tariff = float -> float

let inverse_variance ~c =
  if not (c >= 0.) then
    invalid_arg "Arbitrage.inverse_variance: negative or NaN rate";
  fun v -> c /. v

let inverse_variance_squared ~c =
  if not (c >= 0.) then
    invalid_arg "Arbitrage.inverse_variance_squared: negative or NaN rate";
  fun v -> c /. (v *. v)

let capped ~cap t =
  if not (cap >= 0.) then invalid_arg "Arbitrage.capped: negative or NaN cap";
  fun v -> Float.min cap (t v)

let check_variance v =
  if not (v > 0.) then invalid_arg "Arbitrage: variances must be positive"

let violates t ~target ~components =
  check_variance target;
  if components = [] then invalid_arg "Arbitrage.violates: no components";
  List.iter check_variance components;
  let precision = List.fold_left (fun acc v -> acc +. (1. /. v)) 0. components in
  let cost = List.fold_left (fun acc v -> acc +. t v) 0. components in
  precision >= (1. /. target) -. 1e-12 && cost < t target -. 1e-9

let default_grid =
  Array.init 25 (fun i -> 10. ** ((float_of_int i /. 4.) -. 3.))

let find_violation ?(grid = default_grid) ?(pairs_only = false) t =
  let n = Array.length grid in
  let found = ref None in
  (try
     for a = 0 to n - 1 do
       for b = a to n - 1 do
         for target = 0 to n - 1 do
           let components = [ grid.(a); grid.(b) ] in
           if violates t ~target:grid.(target) ~components then begin
             found := Some (grid.(target), components);
             raise Exit
           end
         done;
         if not pairs_only then
           for c = b to n - 1 do
             for target = 0 to n - 1 do
               let components = [ grid.(a); grid.(b); grid.(c) ] in
               if violates t ~target:grid.(target) ~components then begin
                 found := Some (grid.(target), components);
                 raise Exit
               end
             done
           done
       done
     done
   with Exit -> ());
  !found

let is_arbitrage_free_on ~grid t = find_violation ~grid t = None
