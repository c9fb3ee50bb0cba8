(** Order statistics for the benchmark report.

    Latency percentiles use the nearest-rank rule on the sorted sample.
    A percentile is worth reporting only when enough samples lie beyond
    it to make it more than the single worst outlier: {!reportable}
    requires at least {!min_beyond} of them. *)

val min_beyond : int
(** 10: samples that must lie strictly beyond a reported percentile. *)

val sorted : float array -> float array
(** A sorted copy. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] is the value at 1-based rank [⌈p·n⌉]
    (clamped to [1, n]) of an ascending array of [n ≥ 1] samples, for
    [p] in [\[0, 1\]]. *)

val beyond : n:int -> float -> int
(** [beyond ~n p] is how many of [n] samples rank strictly after the
    nearest-rank [p]-percentile: [n − ⌈p·n⌉]. *)

val reportable : n:int -> float -> bool
(** [beyond ~n p >= min_beyond]. *)

val median : float array -> float
(** Median of an unsorted, non-empty sample (mean of the two middle
    values when [n] is even). *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] of an unsorted sample of at least two values, by the
    same "exclusive" interpolation as Python's
    [statistics.quantiles(data, n=4)], so spreads printed here match
    what that function computes on the same values. *)

val spread : float array -> float
(** [(q3 − q1) / |median|] — the relative inter-quartile spread used to
    set and check regression bounds; [0.] for fewer than two values or
    a zero median. *)
