(** One-hot encoding with the hashing trick.

    The paper's App 3 turns Avazu's high-cardinality categorical fields
    into an n-dimensional feature vector by hashing ["field=value"]
    strings modulo n (Section V-C) — n is literally "the modulus after
    hashing".  We use the 64-bit FNV-1a hash: deterministic across
    runs and platforms, so experiments replay exactly.

    Features are produced in sparse form (sorted unique indices with
    accumulated values) and can be densified on demand. *)

type feature = { index : int; value : float }

val fnv1a64 : string -> int64
(** The raw 64-bit FNV-1a hash (offset basis 0xcbf29ce484222325, prime
    0x100000001b3), exposed for tests. *)

val bucket : dim:int -> string -> int
(** [bucket ~dim key] is the hash bucket of [key] in [0, dim-1]: the
    hash shifted right by one bit (so it is non-negative) modulo
    [dim].  Requires [dim ≥ 1]. *)

val encode : dim:int -> (string * string) list -> feature list
(** [encode ~dim fields] hashes each [(field, value)] pair as
    ["field=value"] and adds 1.0 into its bucket.  Collisions
    accumulate.  The result is sorted by index with unique indices;
    the empty list encodes to [[]] whatever [dim], otherwise [dim ≥ 1]
    is required.

    This runs once per App 3 request, so it builds no intermediate
    string and no table: the hash runs over [field], the byte ['='] and
    [value] in place, in a plain loop that keeps the 64-bit state
    unboxed; the bucket ids are sorted in an int array (insertion sort
    up to 32 pairs, a heap sort beyond); and each run of equal ids
    becomes one feature, its value the shared [1.] for a single hit and
    the count otherwise.  The output, values' bits included, is what
    hashing the concatenated strings into a table gave. *)

val to_dense : dim:int -> feature list -> Dm_linalg.Vec.t
(** The dense vector with each feature's value at its index (a later
    duplicate index wins); raises [Invalid_argument] when an index is
    outside [0, dim-1].  Allocates only the result. *)

val normalize : feature list -> feature list
(** Scale a sparse vector to unit L2 norm; the empty vector is
    returned unchanged. *)

val dot_dense : feature list -> Dm_linalg.Vec.t -> float
(** Sparse·dense inner product — the hot path of FTRL prediction. *)
