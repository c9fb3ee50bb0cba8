exception Not_positive_definite of int

let factorize a =
  let n, c = Mat.dims a in
  if n <> c then invalid_arg "Chol.factorize: not square";
  let l = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if not (!acc > 0.) then raise (Not_positive_definite i);
        Mat.set l i i (sqrt !acc)
      end
      else Mat.set l i j (!acc /. Mat.get l j j)
    done
  done;
  l

let solve_lower l b =
  let n = Mat.rows l in
  if Array.length b <> n then invalid_arg "Chol.solve_lower: dimension mismatch";
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (Mat.get l i k *. y.(k))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  y

let solve_upper_t l y =
  let n = Mat.rows l in
  if Array.length y <> n then
    invalid_arg "Chol.solve_upper_t: dimension mismatch";
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l k i *. x.(k))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

let solve a b =
  let l = factorize a in
  solve_upper_t l (solve_lower l b)

let solve_regularized ?(ridge = 1e-10) a b =
  let n = Mat.rows a in
  let rec attempt r tries =
    let reg = Mat.copy a in
    for i = 0 to n - 1 do
      Mat.set reg i i (Mat.get reg i i +. r)
    done;
    match solve reg b with
    | x -> x
    | exception Not_positive_definite _ when tries > 0 ->
        attempt (r *. 100.) (tries - 1)
  in
  attempt ridge 4

let is_positive_definite a =
  match factorize a with
  | _ -> true
  | exception Not_positive_definite _ -> false
  | exception Invalid_argument _ -> false

let log_det a =
  let l = factorize a in
  let n = Mat.rows l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.get l i i)
  done;
  2. *. !acc
