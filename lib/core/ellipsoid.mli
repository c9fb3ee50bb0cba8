(** Ellipsoidal knowledge sets with Löwner–John cut updates.

    The data broker's knowledge about the hidden weight vector θ* is
    an ellipsoid [E = {θ | (θ−c)ᵀA⁻¹(θ−c) ≤ 1}] (Definition 1 of the
    paper).  Each round's feedback adds the halfspace
    [{θ | xᵀθ ≤ p}] (rejection) or [{θ | xᵀθ ≥ p}] (acceptance), and
    the knowledge set is replaced by the minimum-volume (Löwner–John)
    ellipsoid of the truncated body, using the deep/central/shallow
    cut formulas of Grötschel–Lovász–Schrijver.

    The cut position is the signed parameter
    [α = (xᵀc − p) / √(xᵀAx)] measured in the ‖·‖_{A⁻¹} norm:
    α = 0 is a central cut, α ∈ (0, 1) a deep cut (less than half
    kept), α ∈ (−1/n, 0) a shallow cut, and for α ≤ −1/n the
    Löwner–John ellipsoid of the truncation is the ellipsoid itself,
    so the update is a no-op.

    The general update is singular at n = 1, where the ellipsoid
    degenerates to an interval; that case is handled by exact interval
    arithmetic (Theorem 3's setting). *)

type t = private {
  dim : int;
  center : Dm_linalg.Vec.t;
  shape : Dm_linalg.Mat.t;
      (** bit-exactly symmetric positive definite [M] (see {!make});
          the true shape is [A = scale·M] *)
  scale : float;
      (** positive scalar [s] of the representation [A = s·M].  Every
          dense cut folds its Löwner–John factor into [shape] and
          leaves [scale] at exactly [1.], reproducing the plain dense
          arithmetic bit-for-bit; only the in-place sparse cut path
          accumulates factors here (and periodically folds them back
          into [shape] — see {!cut_below}). *)
  mutable log_vol : float;
      (** cached [½·log det A]; NaN until first computed.  Maintained
          incrementally across cuts — read it through
          {!log_volume_factor}, which also resynchronizes it. *)
  mutable cuts_since_sync : int;
      (** closed-form volume deltas accumulated since the cache was
          last computed from a full Cholesky factorization *)
}

val make : center:Dm_linalg.Vec.t -> shape:Dm_linalg.Mat.t -> t
(** Validates dimensions and {e exact} symmetry: [shape] must equal its
    transpose bit for bit, a ±0 pair counting as equal, or
    [Invalid_argument] is raised.  The sparse cut computes [M·x] as
    [Mᵀ·x] and relies on it; every shape this module produces keeps it
    ({!ball}, both cut paths and the scale fold), so only a foreign or
    corrupted shape can fail.  A non-finite center or shape entry
    (NaN included) raises [Invalid_argument] too, checked in the same
    pass.  Positive definiteness is the caller's responsibility
    (checked cheaply via the diagonal). *)

val ball : dim:int -> radius:float -> t
(** The initial knowledge set of Algorithms 1–2:
    [A₁ = R²·I, c₁ = 0].  Requires [radius > 0] (NaN is refused) and
    a finite [R²]. *)

val of_box : lo:Dm_linalg.Vec.t -> hi:Dm_linalg.Vec.t -> t
(** The paper's enclosing ball of the initial box
    [K₁ = {θ | ℓᵢ ≤ θᵢ ≤ uᵢ}]: a ball of radius
    [R = √(Σᵢ max(ℓᵢ², uᵢ²))] centred at the origin.  Raises
    [Invalid_argument] on a dimension mismatch, on an empty box (some
    [ℓᵢ > uᵢ]) or a NaN bound, and on a degenerate box ([R = 0]). *)

val dim : t -> int

val scale : t -> float
(** The scalar [s] of the representation [A = s·M] — exactly [1.]
    unless the sparse in-place cut path has run since the last
    fold-in.  Exposed for tests and analysis. *)

type bounds = {
  lower : float;  (** [p̲ = min_{θ∈E} xᵀθ = xᵀc − √(xᵀAx)] *)
  upper : float;  (** [p̄ = max_{θ∈E} xᵀθ = xᵀc + √(xᵀAx)] *)
  mid : float;  (** [xᵀc], the bisection price *)
  half_width : float;  (** [√(xᵀAx)] *)
}

val bounds : t -> x:Dm_linalg.Vec.t -> bounds
(** Market-value bounds along direction [x] — Lines 5–7 of
    Algorithm 1.  Cost: one O(n²) quadratic form and one O(n) dot
    product.  At n ≥ 64 a direction with at most 1/8 nonzeros gets a
    sparse view ({!Dm_linalg.Vec.Sparse.of_dense}), and both the
    quadratic form and [mid = xᵀc] are read through it, in O(nnz²) and
    O(nnz) ([Mat.quad_sparse], [Vec.Sparse.dot_dense]).  The view
    skips only the terms with xᵢ = 0, each an exact ±0 while cᵢ is
    finite, so [mid] has the dense dot's bits whenever every center
    entry is finite ({!make} refuses any other center).  Otherwise the
    dense [Mat.quad] and [Vec.dot] run as before. *)

val width : t -> x:Dm_linalg.Vec.t -> float
(** [p̄ − p̲ = 2√(xᵀAx)], the quantity compared with the threshold ε. *)

val contains : ?slack:float -> t -> Dm_linalg.Vec.t -> bool
(** Whether a point lies in the ellipsoid, with multiplicative [slack]
    (default 1e-9) on the quadratic form — the invariant that θ* is
    never lost. *)

type cut_result =
  | Cut of t  (** Löwner–John ellipsoid of the kept region *)
  | Too_shallow  (** α ≤ −1/n: no volume reduction is possible *)
  | Empty  (** α ≥ 1: the kept region has empty interior *)

val cut_below :
  ?into:Dm_linalg.Mat.t ->
  ?b_into:Dm_linalg.Vec.t ->
  ?center_into:Dm_linalg.Vec.t ->
  ?mutate:bool ->
  t ->
  x:Dm_linalg.Vec.t ->
  price:float ->
  cut_result
(** Keep [{θ | xᵀθ ≤ price}] — the rejection update (the buyer's
    refusal proves the market value, hence [xᵀθ*], is below the
    effective price).  [into], when given, receives the new shape
    matrix instead of a fresh allocation (it must have the right
    dimensions and must not be this ellipsoid's own shape; it is only
    written when the result is [Cut]).  The update runs as one fused
    streaming pass and its exact (i, j)-symmetric term association
    keeps the shape bit-exactly symmetric, so no symmetrization pass
    is needed.

    The two per-cut vector allocations take scratch buffers with
    different ownership rules (both length [dim], bit-identical
    results either way).  [b_into] holds the cut direction
    ([b = A·x/√(xᵀAx)], or [b̃] on the sparse path), a transient
    consumed by the rank-one
    update — the caller may recycle it on every cut (it must not alias
    [x]).  [center_into] receives the {e new center}, which the
    returned [Cut] retains: ownership transfers, so a caller must
    ping-pong two center buffers (passing the one the current
    ellipsoid does {e not} hold) and abandon both the moment an
    ellipsoid escapes to other code — exactly the shape-buffer
    discipline of [Mechanism.ellipsoid].  It must not alias the
    current center or [b_into].  Both buffers serve the dense and the
    sparse in-place path alike; neither path writes [center_into]
    unless the result is [Cut].

    [mutate] (default [false]) permits the sparse fast path: when the
    cut direction [x] passes {!Dm_linalg.Vec.Sparse.of_dense}'s
    density threshold (and [dim > 1]), the Löwner–John factor is
    multiplied into [scale] in O(1), [M·x] is computed as [Mᵀ·x] by
    streaming the support's rows (bit-identical, as [shape] is exactly
    symmetric — see {!make}), and [shape] is rank-one-updated
    {b in place} over the support of [b̃ = M·x/√(xᵀMx)] —
    O(nnz(x)·n + nnz(b̃)²) per cut instead of O(n²).  The input
    ellipsoid's shape buffer is then consumed (the returned [Cut] aliases it); callers detect this
    by physical equality of the shape fields and must not reuse the
    input otherwise.  The scalar is folded back into [shape]
    (an O(n²) pass, and [scale] returns to [1.]) whenever it leaves
    [[1e-9, 1e9]] or the cut count crosses a 1000-cut resync boundary.
    With [mutate:false], or a dense direction, the allocating dense
    path runs and [scale] is preserved — results agree with the dense
    representation exactly on cut decisions and to ≤1e-9 relative on
    prices and log-volume (see DESIGN.md's tolerance contract). *)

val cut_above :
  ?into:Dm_linalg.Mat.t ->
  ?b_into:Dm_linalg.Vec.t ->
  ?center_into:Dm_linalg.Vec.t ->
  ?neg_into:Dm_linalg.Vec.t ->
  ?mutate:bool ->
  t ->
  x:Dm_linalg.Vec.t ->
  price:float ->
  cut_result
(** Keep [{θ | xᵀθ ≥ price}] — the acceptance update.  Implemented by
    reflecting [x ↦ −x, price ↦ −price] into {!cut_below} ([mutate]
    and the scratch buffers pass through).  [neg_into], when given,
    receives the negated direction instead of a fresh allocation
    (length [dim x], must not alias [x]; transient, recyclable every
    cut like [b_into]). *)

val apply : t -> cut_result -> t
(** The new knowledge set: the cut ellipsoid if one was produced, the
    old one otherwise (both degenerate outcomes leave the set
    unchanged, as Lines 18–19 / 24–25 of Algorithm 2 do). *)

val alpha : t -> x:Dm_linalg.Vec.t -> price:float -> float
(** The signed cut-position parameter of a below-cut at [price];
    exposed for analysis and tests. *)

val log_volume_factor : t -> float
(** [log(V(E)/Vₙ) = ½·log det A] — the volume in log space up to the
    unit-ball constant.  O(1) amortized: each cut advances a cached
    value by the closed-form delta
    [½·(n·log factor + log(1−β))] (the cut direction satisfies
    [bᵀA⁻¹b = 1], so [det A' = factorⁿ·(1−β)·det A]); a full O(n³)
    Cholesky recomputation runs on the first read and again after
    every 1000 accumulated deltas to bound float drift. *)

val volume_drift : t -> float
(** [|cached − ½·log det A|]: the accumulated float drift of the
    incremental volume cache against a fresh O(n³) Cholesky
    recomputation ([0.] while the cache is unset).  Analysis only. *)

val axis_widths : t -> Dm_linalg.Vec.t
(** The semi-axis widths [√γᵢ(A)] in decreasing order (Jacobi
    eigendecomposition; analysis only). *)

val binary_magic : string
(** The 8-byte magic (["dm-ell/3"]) opening a binary snapshot. *)

val serialize_binary : t -> string
(** Binary (v3) snapshot: {!binary_magic}, then little-endian [dim],
    [scale], [cuts_since_sync], the raw [log_vol] bit pattern, and the
    center and flat row-major shape as IEEE-754 bit patterns
    ({!Dm_linalg.Serial}), so the round-trip is exact bit-for-bit and
    reproduces the ellipsoid record field-for-field, the pending
    sparse-path scalar and the incremental-volume cache included. *)

val deserialize_binary : ?pos:int -> string -> (t, string) result
(** Inverse of {!serialize_binary}, starting at byte [pos]
    (default 0); trailing bytes are ignored.  [Error] messages carry
    the absolute byte offset of the first problem: a bad magic, a
    dimension outside [1, 2²⁰], a non-finite or non-positive scale, an
    infinite log-volume field (NaN is the "cache unset" sentinel and
    is accepted), NaN or infinite center and shape entries (NaN would
    otherwise slip through the symmetry and positive-diagonal checks),
    or a shape that fails [make]'s exact-symmetry and positive-diagonal
    checks.  Positive-definiteness is not checked.  The image's length
    is checked against [dim] before the center and shape are
    allocated, so a short image with a forged dimension returns a
    truncation [Error] without allocating. *)

val pp : Format.formatter -> t -> unit
