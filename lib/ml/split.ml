type 'a split = { train : 'a array; test : 'a array }

let check_fraction f =
  if not (f >= 0. && f <= 1.) then
    invalid_arg "Split: test_fraction outside [0,1] or NaN"

let cut data n_test =
  let n = Array.length data in
  let n_train = n - n_test in
  { train = Array.sub data 0 n_train; test = Array.sub data n_train n_test }

let random rng ~test_fraction data =
  check_fraction test_fraction;
  let shuffled = Array.copy data in
  Dm_prob.Rng.shuffle rng shuffled;
  let n_test =
    int_of_float (Float.round (test_fraction *. float_of_int (Array.length data)))
  in
  cut shuffled n_test

let suffix ~test_fraction data =
  check_fraction test_fraction;
  let n_test =
    int_of_float (Float.round (test_fraction *. float_of_int (Array.length data)))
  in
  cut data n_test
