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

(* [sorted] sorts the nonzero, non-NaN values by the 63-bit pattern of
   their magnitude, which orders magnitudes as [<] does (subnormals and
   infinities included), so it sorts plain [int] keys: 63 bits, as on
   every 64-bit platform.  Key ranges of at most this length are
   insertion-sorted. *)
let small_run = 32

(* The magnitude's 63 bits: [Int64.to_int] drops the sign bit. *)
let[@inline] magnitude_key x = Int64.to_int (Int64.bits_of_float x)

let[@inline] positive_of_key k =
  Int64.float_of_bits (Int64.logand (Int64.of_int k) Int64.max_int)

(* Keys are unsigned 63-bit integers; flipping bit 62, [int]'s sign
   bit, lets the signed [<] compare them. *)
let insertion_sort_keys (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let k = Array.unsafe_get a i in
    let u = k lxor min_int in
    let j = ref (i - 1) in
    while !j >= lo && u < Array.unsafe_get a !j lxor min_int do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) k
  done

(* Stable LSD passes over the four 8-bit digits of the keys
   [a.[lo, hi)] at bits [shift, shift + 32), ping-ponging between [a]
   and [b] and skipping any digit that every key shares.  One pass
   fills all four histograms of [hist] (4 × 256 counters).  Returns the
   array that holds the sorted range. *)
let radix_passes hist (a : int array) (b : int array) lo hi shift =
  Array.fill hist 0 1024 0;
  for i = lo to hi - 1 do
    let k = Array.unsafe_get a i lsr shift in
    let c0 = k land 0xFF
    and c1 = 256 + ((k lsr 8) land 0xFF)
    and c2 = 512 + ((k lsr 16) land 0xFF)
    and c3 = 768 + ((k lsr 24) land 0xFF) in
    Array.unsafe_set hist c0 (Array.unsafe_get hist c0 + 1);
    Array.unsafe_set hist c1 (Array.unsafe_get hist c1 + 1);
    Array.unsafe_set hist c2 (Array.unsafe_get hist c2 + 1);
    Array.unsafe_set hist c3 (Array.unsafe_get hist c3 + 1)
  done;
  let first = Array.unsafe_get a lo lsr shift in
  let src = ref a and dst = ref b in
  for d = 0 to 3 do
    let base = 256 * d in
    let digit = (first lsr (8 * d)) land 0xFF in
    if Array.unsafe_get hist (base + digit) < hi - lo then begin
      let start = ref lo in
      for j = base to base + 255 do
        let count = Array.unsafe_get hist j in
        Array.unsafe_set hist j !start;
        start := !start + count
      done;
      let s = !src and t = !dst and bit = shift + (8 * d) in
      for i = lo to hi - 1 do
        let k = Array.unsafe_get s i in
        let j = base + ((k lsr bit) land 0xFF) in
        let p = Array.unsafe_get hist j in
        Array.unsafe_set t p k;
        Array.unsafe_set hist j (p + 1)
      done;
      src := t;
      dst := s
    end
  done;
  !src

(* Sorts the keys [a.[lo, hi)] with [b] as scratch and returns the
   array that holds them: radix on bits 31–62, then each run of keys
   that agree there is sorted on bits 0–30, by insertion when short and
   by radix otherwise, so no input costs more than linear time. *)
let sort_keys hist (a : int array) (b : int array) lo hi =
  if hi - lo <= small_run then begin
    insertion_sort_keys a lo hi;
    a
  end
  else begin
    let s = radix_passes hist a b lo hi 31 in
    let t = if s == a then b else a in
    let i = ref lo in
    while !i < hi do
      let high = Array.unsafe_get s !i lsr 31 in
      let j = ref (!i + 1) in
      while !j < hi && Array.unsafe_get s !j lsr 31 = high do
        incr j
      done;
      let len = !j - !i in
      if len > small_run then begin
        let r = radix_passes hist s t !i !j 0 in
        if r != s then Array.blit r !i s !i len
      end
      else if len > 1 then insertion_sort_keys s !i !j;
      i := !j
    done;
    s
  end

(* Polymorphic [Array.sort Float.compare] boxes both operands of every
   comparison.  The output is fixed by the input: NaNs and zeros keep
   their input order (the [<] of the stable merge sort this replaced
   cannot tell them apart), and equal nonzero values have equal bits. *)
let sorted (v : t) =
  let n = Array.length v in
  let nans = ref 0 and negs = ref 0 and zeros = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get v i in
    if x < 0. then incr negs
    else if x = 0. then incr zeros
    else if Float.is_nan x then incr nans
  done;
  let nans = !nans and negs = !negs and zeros = !zeros in
  let nonzero = n - nans - zeros in
  (* [out] is NaNs, negatives, zeros, positives; [keys] holds the
     negatives' magnitudes, then the positives. *)
  let out = Array.create_float n in
  let keys = Array.make nonzero 0 in
  let nan_at = ref 0 and zero_at = ref (nans + negs) in
  let neg_at = ref 0 and pos_at = ref negs in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get v i in
    if x < 0. then begin
      Array.unsafe_set keys !neg_at (magnitude_key x);
      incr neg_at
    end
    else if x > 0. then begin
      Array.unsafe_set keys !pos_at (magnitude_key x);
      incr pos_at
    end
    else if x = 0. then begin
      Array.unsafe_set out !zero_at x;
      incr zero_at
    end
    else begin
      Array.unsafe_set out !nan_at x;
      incr nan_at
    end
  done;
  let radix = negs > small_run || nonzero - negs > small_run in
  let hist = if radix then Array.make 1024 0 else [||] in
  let buf = if radix then Array.make nonzero 0 else [||] in
  (* The largest magnitude is the most negative value, so the
     negatives go out in reverse. *)
  let s = sort_keys hist keys buf 0 negs in
  for i = 0 to negs - 1 do
    Array.unsafe_set out
      (nans + negs - 1 - i)
      (-.positive_of_key (Array.unsafe_get s i))
  done;
  let s = sort_keys hist keys buf negs nonzero in
  let shift = nans + zeros in
  for i = negs to nonzero - 1 do
    Array.unsafe_set out (shift + i) (positive_of_key (Array.unsafe_get s i))
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
