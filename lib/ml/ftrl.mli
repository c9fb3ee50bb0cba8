(** FTRL-Proximal logistic regression (McMahan et al., KDD 2013).

    This is the algorithm the paper names for learning the Avazu
    click-through weights θ* (Section V-C): online logistic regression
    with per-coordinate learning rates and L1/L2 regularization, which
    "can preserve excellent performance and sparsity".  The learnt
    weight vector is sparse (the paper reports 21–23 non-zeros at
    n = 128/1024), and the pricing experiments rely on exactly that
    sparsity structure.

    Training examples are sparse feature lists ({!Hashing.feature})
    with boolean click labels.  The model keeps the standard FTRL
    state: per-coordinate [z] (gradient sums shifted by the proximal
    term) and [n] (squared-gradient sums). *)

type params = {
  alpha : float;  (** learning-rate numerator, > 0 *)
  beta : float;  (** learning-rate smoothing, ≥ 0 *)
  l1 : float;  (** L1 strength, ≥ 0 — drives sparsity *)
  l2 : float;  (** L2 strength, ≥ 0 *)
}

val default_params : params
(** α = 0.1, β = 1, λ₁ = 1, λ₂ = 1 — the McMahan et al. starting
    point, adequate for the synthetic Avazu corpus. *)

type t

val create : ?params:params -> dim:int -> unit -> t
(** Fresh model over [dim] hashed buckets.  Raises [Invalid_argument]
    when [dim < 1] or a parameter is outside its range, NaN
    included. *)

val dim : t -> int

val weight : t -> int -> float
(** The current (lazily materialized) weight of a coordinate — 0 when
    the L1 penalty has clipped it. *)

val weights : t -> Dm_linalg.Vec.t
(** Dense snapshot of all weights. *)

val nonzeros : t -> int
(** Number of non-zero weights — the sparsity the paper reports. *)

val predict : t -> Hashing.feature list -> float
(** Predicted click probability σ(w·x) ∈ (0, 1). *)

val learn : t -> Hashing.feature list -> bool -> float
(** [learn t x clicked] performs one FTRL-Proximal step and returns
    the pre-update prediction (handy for progressive validation). *)

val train :
  t -> (Hashing.feature list * bool) array -> epochs:int -> unit
(** Multiple passes over a labelled set, in the given order. *)

val log_loss : t -> (Hashing.feature list * bool) array -> float
(** Mean logistic loss on a labelled set; clamped away from 0/1 for
    numerical safety.  Raises [Invalid_argument] on an empty set. *)
