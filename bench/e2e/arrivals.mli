(** Open-loop arrival schedules. *)

val poisson : seed:int -> rate:float -> count:int -> int array
(** [poisson ~seed ~rate ~count] is the due time, in nanoseconds after
    the start of the phase, of each of [count] requests arriving as a
    Poisson process of [rate] requests per second: the gaps are
    independent exponential draws from a {!Dm_prob.Rng} seeded with
    [seed], so the schedule is a pure function of its arguments.  Due
    times are non-decreasing and the first one is its own gap.
    Requires [rate > 0] and [count ≥ 0]. *)
