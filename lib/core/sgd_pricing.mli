(** A stochastic-gradient-descent pricing baseline.

    The paper's related work (Sec. VI-B) credits Amin, Rostamizadeh
    and Syed (NIPS'14) with the first contextual posted-price learner:
    an SGD scheme that attains O(T^{2/3}) strategic regret — markedly
    worse than the ellipsoid family's logarithmic guarantees, which is
    precisely the comparison this module makes reproducible.

    The implementation performs online subgradient descent on the
    one-bit surrogate hinge loss

    {v  ℓ_t(θ) = 1(accepted)·(p_t − xᵀθ)₊ + 1(rejected)·(xᵀθ − p_t)₊  v}

    whose minimizers are consistent with every observed comparison
    (acceptance proves the value is at least the price, rejection that
    it is below).  The posted price is the current estimate minus a
    decaying exploration margin [margin₀·t^{−1/3}] (the t^{−1/3}
    schedule mirrors Amin et al.'s exploration rate and yields the
    characteristic T^{2/3} regret envelope), floored at the reserve
    when one applies.

    The estimate is projected back onto the radius-R ball after each
    step, matching the prior knowledge the ellipsoid mechanism gets. *)

type t

val create :
  ?learning_rate:float ->
  ?margin:float ->
  ?use_reserve:bool ->
  dim:int ->
  radius:float ->
  unit ->
  t
(** [create ~dim ~radius ()] starts from the zero estimate.
    [learning_rate] (default 5, tuned on the App-1 market so the
    baseline is not a strawman) scales the [η₀/√t] step;
    [margin] (default 0.3) scales the [t^{−1/3}] exploration discount;
    [use_reserve] (default true) floors posted prices at the reserve.
    Raises [Invalid_argument] unless [dim ≥ 1], [radius] and
    [learning_rate] are positive and [margin] is non-negative (NaN is
    refused for each). *)

val estimate : t -> Dm_linalg.Vec.t
(** The current weight estimate (a copy). *)

val rounds_seen : t -> int

val policy : t -> Broker.custom_policy
(** Wrap as a {!Broker.Custom} policy sharing this state. *)
