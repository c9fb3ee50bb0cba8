(** Dense real matrices, stored row-major in a flat [float array].

    The flat layout keeps every element unboxed and makes the
    mat-vec/rank-one kernels that dominate the ellipsoid update cache
    friendly.  Dimension mismatches raise [Invalid_argument].

    The O(n²)/O(n³) kernels ([matvec], [matmul], [quad],
    [rank_one_update], [rank_one_rescale]) are cache-blocked and, once
    the row count reaches 512, fan row tiles over the default {!Pool}
    when one is installed (serial fallback below the threshold or
    without a pool).  Every output element is reduced in a fixed
    serial order regardless of scheduling, so results are
    bit-identical at any worker count.  The dot-per-row kernels
    ([matvec], [project], [quad], [matmul_tt]) compute four rows per
    pass, each row with its own accumulator: that interleaves four
    independent add chains and never splits or reorders one row's
    sum. *)

type t = private { rows : int; cols : int; data : float array }
(** [data.(i*cols + j)] holds element (i, j). *)

val create : int -> int -> float -> t
(** [create r c x] is the [r×c] matrix filled with [x]. *)

val zeros : int -> int -> t

val identity : int -> t

val scaled_identity : int -> float -> t
(** [scaled_identity n a] is [a·Iₙ] — the initial ellipsoid shape
    [R²·I] in Algorithms 1 and 2. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] has element (i,j) equal to [f i j]. *)

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must share one length.  Raises
    [Invalid_argument] on ragged input or zero rows. *)

val to_arrays : t -> float array array

val diag_of_vec : Vec.t -> t
(** Square matrix with the given diagonal and zeros elsewhere. *)

val rows : t -> int

val cols : t -> int

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val diag : t -> Vec.t
(** Main diagonal (length [min rows cols]). *)

val trace : t -> float
(** Sum of the main diagonal of a square matrix. *)

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val scale_inplace : float -> t -> unit

val matvec : ?into:Vec.t -> t -> Vec.t -> Vec.t
(** [matvec a x] is [A·x].  Each row is one ascending-index dot
    product, four rows per pass sharing each load of [x[j]] (leftover
    rows one at a time), so the bits equal the one-row loop's.
    [into], when given, receives the result (length [rows a], must not
    alias [x]). *)

val matvec_t : ?into:Vec.t -> t -> Vec.t -> Vec.t
(** [matvec_t a x] is [Aᵀ·x], without materializing the transpose.
    Row-major accumulation: each task owns a column range of the
    output and streams contiguous row segments, so the walk is
    cache-friendly at any [n] and reads only the rows where [xᵢ ≠ 0]
    — O(nnz·n) contiguous reads for a sparse [x].  Fans column tiles
    over the default {!Pool} at [cols ≥ 512]; every output element
    reduces over rows in ascending order with the exact [xᵢ = 0] skip,
    so the result is bit-identical at any worker count.  On a
    bit-exactly symmetric [a] (a ±0 pair counts as equal) with finite
    entries this is bit-identical to [matvec a x]: element j sums the
    same products in
    the same ascending order, and the ±0 terms either side adds or
    skips are exact (the running sum starts at +0 and never becomes
    −0).  [into], when given, receives the result (length [cols a],
    must not alias [x]). *)

val project : ?into:Vec.t -> t -> Vec.t -> Vec.t
(** [project p x] is [P·x] for a tall-skinny [k×n] projection matrix —
    the same four-rows-per-pass, per-row ascending-column reduction as
    {!matvec} (so the two agree bit-for-bit on the same input), but
    with the pool gate firing on {e either} dimension: a [k ≪ 512] row
    batch still fans out once [n ≥ 512], in chunks of a multiple of
    four rows, which is where the rank-k projected pricing path spends
    its per-round flops.  [into], when given, receives the result
    (length [k], must not alias [x]). *)

val pack_rows : ?into:t -> Vec.t array -> t
(** [pack_rows vs] gathers [B ≥ 1] same-length vectors into the [B×n]
    row-major panel whose row [i] is [vs.(i)] — the batch-serving
    gather step.  [into], when given, receives the panel ([B×n]).
    Raises [Invalid_argument] on an empty or ragged batch. *)

val unpack_row : t -> int -> into:Vec.t -> unit
(** [unpack_row m i ~into] copies row [i] of [m] into the caller's
    buffer (length [cols m]) — the batch-serving scatter step, used to
    hand each mechanism its panel row without a fresh allocation. *)

val project_batch : ?into:t -> pt:t -> t -> t
(** [project_batch ~pt xs] is the [B×k] panel [X·Pᵀ] for a [B×n] batch
    panel [xs] and the projection {e transposed}, [pt = transpose p]
    ([n×k]) — hoisted by the caller so repeated batches pay the O(k·n)
    transpose once.  One blocked pass replaces [B] independent
    {!project} calls: the shared dimension is cache-blocked so a tile
    of [pt] is reused across every panel row, and the inner updates
    are independent rather than one serial accumulator chain.  Row [i]
    reduces over the shared dimension in ascending order with the
    exact zero-skip, so it is bit-identical to [project p (row xs i)]
    at any worker count and any batch size.  Fans panel rows over the
    default {!Pool} once either dimension of [xs] reaches 512.
    [into], when given, receives the result ([B×k], must alias neither
    operand). *)

val project_t : ?into:Vec.t -> t -> Vec.t -> Vec.t
(** [project_t p y] is [Pᵀ·y] for [p : k×n] and [y] of length [k] —
    the back-projection into index space.  Same blocked column-range
    body as {!matvec_t} (bit-identical to it on the same input),
    pooled at [n ≥ 512].  [into], when given, receives the result
    (length [n], must not alias [y]). *)

val matmul_tt : t -> t -> t
(** [matmul_tt a b] is [A·Bᵀ] for [a : p×n] and [b : q×n] — the
    tall-skinny batch product where both operands share the long
    dimension [n] and stream contiguously row-major (no transpose is
    materialized).  Each output element is one ascending-index dot
    product; four rows of [a] run per pass against one row of [b],
    each with its own accumulator.  Rows of [a] fan out through the
    default {!Pool} when either dimension of [a] reaches 512, so
    results are bit-identical at any worker count. *)

val quad_sparse : t -> Vec.Sparse.t -> float
(** [quad_sparse a sx] is the quadratic form [xᵀ·A·x] over the
    support × support block only: O(nnz²).  Bit-identical to
    [quad a (Vec.Sparse.to_dense sx)] on finite data, on both the
    serial and the pooled [quad] branches. *)

val rank_one_rescale_sparse :
  t -> beta:float -> b:Vec.Sparse.t -> factor:float -> scale:float -> float
(** [rank_one_rescale_sparse m ~beta ~b ~factor ~scale] is the
    scalar-scaled form of {!rank_one_rescale}: for an ellipsoid shape
    held as [A = scale·M] it applies [A' = factor·(A + beta·b_A·b_Aᵀ)]
    (where [b_A = √scale·b], [b] being the M-space unit direction) by
    mutating [M := M + beta·b·bᵀ] **in place** over the
    support × support block — O(nnz²) entries touched instead of the
    O(n²) of a fused dense rescale — and returning the new scalar
    [factor·scale] in O(1).  The update term keeps the exactly
    (i, j)-symmetric [beta·(bᵢ·bⱼ)] association of
    {!rank_one_rescale}, so [M] stays bit-exactly symmetric.  Serial
    by design: the touched block is far below the pool's profitable
    flop count. *)

val matmul : t -> t -> t

val outer : Vec.t -> Vec.t -> t
(** [outer u v] is the rank-one matrix [u·vᵀ]. *)

val rank_one_update : t -> float -> Vec.t -> unit
(** [rank_one_update a beta b] performs [A := A + beta·b·bᵀ] in place —
    the inner kernel of the Löwner–John ellipsoid update. *)

val rank_one_rescale :
  ?into:t -> t -> beta:float -> b:Vec.t -> factor:float -> t
(** [rank_one_rescale ?into a ~beta ~b ~factor] is the fused ellipsoid
    shape update [factor·(A + beta·b·bᵀ)] in one streaming pass — one
    read of [A] and one write instead of the
    copy/rank-one/scale/symmetrize pipeline.  The update term is
    associated as [beta·(bᵢ·bⱼ)], which is exactly symmetric in (i, j),
    so the result is bit-exactly symmetric whenever [A] is and needs no
    symmetrization.  [into], when given, supplies the destination
    buffer (same dimensions, and must not alias [a]); otherwise a fresh
    matrix is allocated.  Returns the destination. *)

val quad : t -> Vec.t -> float
(** [quad a x] is the quadratic form [xᵀ·A·x], computed in a single
    pass without allocating [A·x]: rows with [xᵢ = 0] are skipped, the
    next four rows with [xᵢ ≠ 0] share one pass over [x], and their
    [xᵢ·(row sum)] terms are added in ascending [i] — the same sum, bit
    for bit, as one row at a time.  At [n ≥ 512] with a pool installed
    it is [matvec] over the pool, then the same ascending dot. *)

val symmetrize_inplace : t -> unit
(** [A := (A + Aᵀ)/2]; used to contain floating-point drift in shape
    matrices that are symmetric by construction. *)

val is_symmetric : ?tol:float -> t -> bool
(** [is_symmetric ~tol a]: [a] is square and [|aᵢⱼ − aⱼᵢ| ≤ tol] for
    every pair (default [tol = 1e-9]).  At [tol = 0.] this is exact
    equality, a ±0 pair counting as equal.  NaN entries never fail the
    test. *)

val max_abs : t -> float
(** Largest absolute entry; [0.] for an empty matrix. *)

val frobenius : t -> float

val approx_equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
