(** Samplers for the distributions the paper's evaluation draws from.

    Section V-A draws query weights from N(0, I) or U[−1, 1], Laplace
    noise scales from a log-uniform grid, and market-value uncertainty
    [δ_t] from a σ-sub-Gaussian law (normal, uniform, or Rademacher —
    all covered by Eq. 4 of the paper).

    A parameter outside its stated range raises [Invalid_argument], and
    NaN is outside every range. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian sample by the Box–Muller transform (the spare variate is
    discarded so that consumption per call is deterministic).
    Requires [std ≥ 0]. *)

val normal_vec : Rng.t -> dim:int -> Dm_linalg.Vec.t
(** A standard normal vector N(0, Iₙ). *)

val uniform_vec : Rng.t -> dim:int -> lo:float -> hi:float -> Dm_linalg.Vec.t

val laplace : Rng.t -> scale:float -> float
(** Zero-mean Laplace sample via inverse CDF; [scale] is the diversity
    parameter b (variance 2b²).  This is the DP noise of App 1.
    Requires [scale ≥ 0]. *)

val rademacher : Rng.t -> float
(** ±1 with equal probability — a 1-sub-Gaussian example from the
    paper's Eq. 4 discussion. *)

val bernoulli : Rng.t -> p:float -> bool
(** Requires [0 ≤ p ≤ 1]. *)

val exponential : Rng.t -> rate:float -> float
(** Requires [rate > 0]. *)

val categorical : Rng.t -> weights:float array -> int
(** Index drawn proportionally to non-negative [weights] with a
    positive (so not NaN) sum. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [0, n-1] with exponent [s ≥ 0] — used to
    give the synthetic Avazu categorical fields the heavy-tailed
    popularity profile of real ad logs. *)

val student_t : Rng.t -> dof:float -> scale:float -> float
(** Student-t sample with [dof] degrees of freedom, multiplied by
    [scale] (Bailey's polar method; two uniforms per call, so
    consumption is deterministic).  Heavy-tailed: the variance is
    infinite at [dof ≤ 2], the mean at [dof ≤ 1] — the adversarial
    valuation streams use it to break the Eq. 4 sub-Gaussian
    assumption.  Scale-covariant by construction:
    [student_t ~scale:s] equals [s ·] the same-seed
    [student_t ~scale:1.] draw.  Requires [dof > 0] and [scale ≥ 0]. *)

val pareto : Rng.t -> alpha:float -> scale:float -> float
(** Pareto sample [x_m·u^{−1/α}] on [[scale, ∞)] with tail index
    [alpha] (inverse CDF, one uniform per call).  Requires
    [alpha > 0] and [scale ≥ 0]. *)

val symmetric_pareto : Rng.t -> alpha:float -> scale:float -> float
(** Zero-median two-sided Pareto excess [±(x − x_m)]: a fair sign
    times the overshoot of {!pareto} above its mode.  Two draws per
    call (sign first), deterministic consumption; same parameter
    requirements as {!pareto}. *)

type subgaussian =
  | Gaussian of float  (** [Gaussian σ] *)
  | Uniform_pm of float  (** uniform on [−a, a] *)
  | Scaled_rademacher of float  (** ±a *)
  | Degenerate  (** always 0 — the no-uncertainty setting *)

val subgaussian_sample : Rng.t -> subgaussian -> float

val subgaussian_sigma : subgaussian -> float
(** A σ such that the law satisfies the paper's Eq. 4 tail bound with
    C = 2. *)

val on_sphere : Rng.t -> dim:int -> radius:float -> Dm_linalg.Vec.t
(** Uniform on the radius-[radius] sphere in Rⁿ — how the evaluation
    draws the hidden weight vector θ* with ‖θ*‖ = √(2n).  Requires
    [radius ≥ 0]. *)
