(** Streaming and batch summary statistics.

    Table I of the paper reports per-round means and standard
    deviations of market value, reserve price, posted price, and
    regret; the broker accumulates those with Welford's numerically
    stable online algorithm so that 10⁵-round runs need no buffering. *)

type online
(** Mutable accumulator for count / mean / variance / extrema. *)

val online_create : unit -> online

val online_add : online -> float -> unit

val online_count : online -> int

val online_mean : online -> float
(** [nan] before the first observation. *)

val online_variance : online -> float
(** Unbiased (n−1) sample variance; [0.] with fewer than two
    observations. *)

val online_std : online -> float

val online_min : online -> float
(** [nan] before the first observation (not the [infinity] seed of the
    running minimum). *)

val online_max : online -> float
(** [nan] before the first observation (not the [neg_infinity] seed of
    the running maximum). *)

val online_sum : online -> float

val mean : float array -> float
(** Raises [Invalid_argument] on empty input. *)

val std : float array -> float
(** Unbiased sample standard deviation; [0.] for fewer than two
    observations.  Raises [Invalid_argument] on empty input. *)

val quantile : float array -> float -> float
(** [quantile xs p] for p ∈ [0,1], linear interpolation between order
    statistics (type-7, the numpy default), over [Dm_linalg.Vec.sorted]
    order (NaNs first).  Raises [Invalid_argument] on empty input or
    p outside [0,1] or NaN. *)

val median : float array -> float

type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  sum : float;
}

val summarize : online -> summary
(** Snapshot of the accumulator; an empty accumulator yields
    [nan] mean/min/max rather than ±[infinity] extrema. *)

val pp_summary : Format.formatter -> summary -> unit
(** Prints ["n=0 (empty)"] for an empty summary instead of a row of
    NaNs. *)
