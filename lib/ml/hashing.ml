type feature = { index : int; value : float }

let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

(* One FNV-1a step per byte of [s], continuing from [h].  Inlined into
   each caller, so the state stays an unboxed local in a plain loop. *)
let[@inline] fnv_bytes h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv1a64 s = fnv_bytes fnv_offset s

let[@inline] bucket_of_hash ~dim h =
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int dim))

let check_dim dim =
  if dim < 1 then invalid_arg "Hashing.bucket: dim must be >= 1"

let bucket ~dim key =
  check_dim dim;
  bucket_of_hash ~dim (fnv_bytes fnv_offset key)

(* The bucket of ["field=value"] without building the string. *)
let pair_bucket ~dim field value =
  let h = fnv_bytes fnv_offset field in
  let h = Int64.mul (Int64.logxor h (Int64.of_int (Char.code '='))) fnv_prime in
  bucket_of_hash ~dim (fnv_bytes h value)

(* Up to this many ids an insertion sort beats [Array.sort]'s heap
   sort; past it the heap sort keeps a long field list O(m log m). *)
let insertion_max = 32

let sort_ids (ids : int array) =
  let m = Array.length ids in
  if m > insertion_max then Array.sort Int.compare ids
  else
    for i = 1 to m - 1 do
      let v = Array.unsafe_get ids i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get ids !j > v do
        Array.unsafe_set ids (!j + 1) (Array.unsafe_get ids !j);
        decr j
      done;
      Array.unsafe_set ids (!j + 1) v
    done

let rec fill_ids ~dim ids i = function
  | [] -> ()
  | (field, value) :: rest ->
      Array.unsafe_set ids i (pair_bucket ~dim field value);
      fill_ids ~dim ids (i + 1) rest

(* A bucket hit once carries the shared constant [1.]; a count c > 1
   is [float_of_int c], which is what adding 1.0 c times gives. *)
let count_value c = if c = 1 then 1. else float_of_int c

let encode ~dim fields =
  match fields with
  | [] -> []
  | _ ->
      check_dim dim;
      let ids = Array.make (List.length fields) 0 in
      fill_ids ~dim ids 0 fields;
      sort_ids ids;
      (* Runs of equal ids, walked from the end so the list comes out
         ascending without a reversal. *)
      let acc = ref [] in
      let i = ref (Array.length ids - 1) in
      while !i >= 0 do
        let index = Array.unsafe_get ids !i in
        let j = ref (!i - 1) in
        while !j >= 0 && Array.unsafe_get ids !j = index do
          decr j
        done;
        acc := { index; value = count_value (!i - !j) } :: !acc;
        i := !j
      done;
      !acc

let rec fill_dense v dim = function
  | [] -> ()
  | { index; value } :: rest ->
      if index < 0 || index >= dim then
        invalid_arg "Hashing.to_dense: index out of range";
      Array.unsafe_set v index value;
      fill_dense v dim rest

let to_dense ~dim features =
  let v = Dm_linalg.Vec.zeros dim in
  fill_dense v dim features;
  v

let normalize features =
  let norm =
    sqrt (List.fold_left (fun acc f -> acc +. (f.value *. f.value)) 0. features)
  in
  if norm <= 0. then features
  else List.map (fun f -> { f with value = f.value /. norm }) features

let dot_dense features dense =
  List.fold_left
    (fun acc { index; value } -> acc +. (value *. dense.(index)))
    0. features
