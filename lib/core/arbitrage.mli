(** Arbitrage-freeness of variance-indexed query prices.

    The database line of work the paper builds on (Li et al., CACM'17;
    Koutris et al., PODS'12 — Sec. VI-A) prices a noisy linear query
    by the noise variance [v] the consumer tolerates: the same query
    answered more precisely costs more.  A consumer can cheat a badly
    chosen tariff: averaging independent answers with variances [v₁]
    and [v₂] synthesizes an answer with variance
    [1/(1/v₁ + 1/v₂)] (inverse variances add for the optimal linear
    combination), so an *arbitrage-free* price function must charge
    any achievable variance no more than the cost of synthesizing it:

    {v  1/v ≤ Σᵢ 1/vᵢ   ⇒   p(v) ≤ Σᵢ p(vᵢ)  v}

    which, for continuous tariffs, is equivalent to [p(1/w)] being
    non-negative, non-decreasing and subadditive in the precision
    [w = 1/v].  Li et al.'s canonical example [p(v) = c/v] is
    arbitrage-free; [p(v) = c/v²] is not.

    This module supplies those canonical tariffs and checkers the
    broker (or tests) can run against any candidate tariff. *)

type tariff = float -> float
(** A price as a function of the answer variance [v > 0]. *)

val inverse_variance : c:float -> tariff
(** [p(v) = c/v] — arbitrage-free for [c ≥ 0].  Raises
    [Invalid_argument] on a negative or NaN [c]. *)

val inverse_variance_squared : c:float -> tariff
(** [p(v) = c/v²] — the classical {e arbitrage-prone} example.
    Raises [Invalid_argument] on a negative or NaN [c]. *)

val capped : cap:float -> tariff -> tariff
(** [min cap (p v)]: capping preserves subadditivity and monotonicity
    (hence arbitrage-freeness).  Raises [Invalid_argument] on a
    negative or NaN [cap]. *)

val violates :
  tariff -> target:float -> components:float list -> bool
(** Whether buying [components] (variances) and averaging undercuts
    buying [target] directly, i.e. the components synthesize at least
    the target's precision strictly cheaper.  Raises
    [Invalid_argument] on non-positive or NaN variances or an empty
    list. *)

val find_violation :
  ?grid:float array -> ?pairs_only:bool -> tariff -> (float * float list) option
(** Search a variance grid (default 1e-3..1e3 log-spaced) for an
    arbitrage opportunity using pairs (and triples unless
    [pairs_only]).  [None] means no violation on the grid — evidence,
    not proof, of arbitrage-freeness. *)

val is_arbitrage_free_on : grid:float array -> tariff -> bool
(** [find_violation ~grid t = None]. *)
