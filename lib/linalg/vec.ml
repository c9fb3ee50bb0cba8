type t = float array

let create n x =
  if n < 0 then invalid_arg "Vec.create: negative dimension";
  Array.make n x

let zeros n = create n 0.

let ones n = create n 1.

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = zeros n in
  v.(i) <- 1.;
  v

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let to_list = Array.to_list

let get (v : t) i = v.(i)

let set (v : t) i x = v.(i) <- x

let map = Array.map

let check_dims name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length u) (Array.length v))

let map2 f u v =
  check_dims "map2" u v;
  Array.init (Array.length u) (fun i -> f u.(i) v.(i))

let iteri = Array.iteri

let fold = Array.fold_left

let dot u v =
  check_dims "dot" u v;
  let acc = ref 0. in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let add u v = map2 ( +. ) u v

let sub u v = map2 ( -. ) u v

let scale a v = Array.map (fun x -> a *. x) v

let scale_inplace a (v : t) =
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set v i (a *. Array.unsafe_get v i)
  done

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let neg v = scale (-1.) v

let sum v = Array.fold_left ( +. ) 0. v

let mean v =
  if Array.length v = 0 then invalid_arg "Vec.mean: empty vector";
  sum v /. float_of_int (Array.length v)

let norm2 v = sqrt (dot v v)

let norm1 v = Array.fold_left (fun acc x -> acc +. abs_float x) 0. v

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0. v

let normalize v =
  let n = norm2 v in
  if n <= 0. then invalid_arg "Vec.normalize: zero vector";
  scale (1. /. n) v

let dist2 u v = norm2 (sub u v)

let extremum name better v =
  if Array.length v = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  let best = ref v.(0) in
  for i = 1 to Array.length v - 1 do
    if better v.(i) !best then best := v.(i)
  done;
  !best

let max_elt v = extremum "max_elt" ( > ) v

let min_elt v = extremum "min_elt" ( < ) v

let arg_extremum name better v =
  if Array.length v = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if better v.(i) v.(!best) then best := i
  done;
  !best

let argmax v = arg_extremum "argmax" ( > ) v

let argmin v = arg_extremum "argmin" ( < ) v

let approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v
  &&
  let ok = ref true in
  for i = 0 to Array.length u - 1 do
    if abs_float (u.(i) -. v.(i)) > tol then ok := false
  done;
  !ok

let concat = Array.append

let slice v ~pos ~len = Array.sub v pos len

(* [sorted] insertion-sorts runs of this length, then merges them
   bottom-up, so it is O(n log n) in the worst case. *)
let sort_run = 32

let imin (a : int) b = if a < b then a else b

let insertion_sort (a : t) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && x < Array.unsafe_get a !j do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Merges the sorted [src.[lo, mid)] and [src.[mid, hi)] into
   [dst.[lo, hi)], taking from the left on ties. *)
let merge (src : t) (dst : t) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if
      !i < mid
      && (!j >= hi
         || not (Array.unsafe_get src !j < Array.unsafe_get src !i))
    then begin
      Array.unsafe_set dst k (Array.unsafe_get src !i);
      incr i
    end
    else begin
      Array.unsafe_set dst k (Array.unsafe_get src !j);
      incr j
    end
  done

(* Polymorphic [Array.sort Float.compare] boxes both operands of every
   comparison; this sort compares with the unboxed [<].  NaNs, which
   [<] cannot order, go first as [Float.compare] puts them. *)
let sorted (v : t) =
  let n = Array.length v in
  let nans = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get v i in
    if Float.is_nan x then incr nans
  done;
  let lo = !nans in
  let passes = ref 0 and width = ref sort_run in
  while !width < n - lo do
    incr passes;
    width := 2 * !width
  done;
  (* The merge passes ping-pong between [out] and [buf]; their parity
     picks where the runs start, so the last pass lands in [out]. *)
  let out = Array.create_float n in
  let buf = if !passes = 0 then out else Array.create_float n in
  let src = ref (if !passes land 1 = 0 then out else buf) in
  let dst = ref (if !passes land 1 = 0 then buf else out) in
  let nan_pos = ref 0 and pos = ref lo in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get v i in
    if Float.is_nan x then begin
      Array.unsafe_set out !nan_pos x;
      incr nan_pos
    end
    else begin
      Array.unsafe_set !src !pos x;
      incr pos
    end
  done;
  let start = ref lo in
  while !start < n do
    let stop = imin n (!start + sort_run) in
    insertion_sort !src !start stop;
    start := stop
  done;
  width := sort_run;
  for _ = 1 to !passes do
    let s = !src and d = !dst in
    start := lo;
    while !start < n do
      let mid = imin n (!start + !width) in
      let stop = imin n (!start + (2 * !width)) in
      merge s d !start mid stop;
      start := stop
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  out

let pp ppf v =
  Format.fprintf ppf "[@[<hov>";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" x)
    v;
  Format.fprintf ppf "@]]"

module Sparse = struct
  type dense = t

  type t = { dim : int; idx : int array; value : float array }

  let count_nonzeros (x : dense) =
    let nnz = ref 0 in
    for i = 0 to Array.length x - 1 do
      if Array.unsafe_get x i <> 0. then incr nnz
    done;
    !nnz

  let gather_support (x : dense) nnz =
    let idx = Array.make nnz 0 in
    let value = Array.make nnz 0. in
    let k = ref 0 in
    for i = 0 to Array.length x - 1 do
      let xi = Array.unsafe_get x i in
      if xi <> 0. then begin
        Array.unsafe_set idx !k i;
        Array.unsafe_set value !k xi;
        incr k
      end
    done;
    { dim = Array.length x; idx; value }

  let gather x = gather_support x (count_nonzeros x)

  let default_max_density = 0.125

  let of_dense ?(max_density = default_max_density) x =
    if not (max_density > 0.) then
      invalid_arg "Vec.Sparse.of_dense: max_density must be positive";
    let nnz = count_nonzeros x in
    if float_of_int nnz > max_density *. float_of_int (Array.length x) then None
    else Some (gather_support x nnz)

  let dim s = s.dim

  let nnz s = Array.length s.idx

  let density s =
    if s.dim = 0 then 0.
    else float_of_int (Array.length s.idx) /. float_of_int s.dim

  let to_dense s =
    let x = Array.make s.dim 0. in
    for k = 0 to Array.length s.idx - 1 do
      x.(s.idx.(k)) <- s.value.(k)
    done;
    x

  let dot_dense s (y : dense) =
    if s.dim <> Array.length y then
      invalid_arg "Vec.Sparse.dot_dense: dimension mismatch";
    (* Ascending-index accumulation with the exactly-zero terms of the
       dense dot skipped: the skipped terms are ±0 and the running sum
       is never −0, so this matches [Vec.dot] bit-for-bit on finite
       data. *)
    let acc = ref 0. in
    for k = 0 to Array.length s.idx - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get s.value k
           *. Array.unsafe_get y (Array.unsafe_get s.idx k))
    done;
    !acc
end
