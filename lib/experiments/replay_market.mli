(** A replayable market for the durability artifacts: the App-1 shape
    with every round's inputs drawn from its own
    {!Dm_prob.Rng.split} child, so one setup replays the same stream
    in every run that shares it.  {!Recover} (crash recovery),
    {!Fleet} (many tenants on one journal), the store tests and the
    bench's journal-overhead keys all run this market, so their
    results stay comparable. *)

val default_dim : int
(** Feature dimension when [make_setup] is given none (16). *)

val scaled_rounds : float -> int -> int
(** [scaled_rounds scale rounds] is the horizon after applying a
    [--scale] factor, floored at 100 rounds. *)

type setup = {
  dim : int;  (** feature dimension *)
  rounds : int;  (** horizon the streams were materialized for *)
  model : Dm_market.Model.t;  (** the linear market-value model *)
  radius : float;  (** initial ellipsoid ball radius *)
  epsilon : float;  (** target accuracy n²/T (before the δ floor) *)
  workload : int -> Dm_linalg.Vec.t * float;
      (** round [t]'s feature vector and reserve, pure in [t] *)
  noise : int -> float;  (** round [t]'s valuation noise, pure in [t] *)
}
(** One reproducible market: the App-1 shape (tilted non-negative
    θ-star with norm √(2n), unit-norm non-negative features, reserve
    q = Σᵢ xᵢ) with the stream backed by per-round
    {!Dm_prob.Rng.split} children, so [workload]/[noise] are pure in
    [t]: a run resumed after a crash sees the same round [t] as the
    run that was killed. *)

val make_setup : ?dim:int -> seed:int -> rounds:int -> unit -> setup
(** Materialize the market for a horizon.  [dim] defaults to
    {!default_dim}; everything downstream of [seed] is deterministic,
    so two calls with equal arguments replay the same stream. *)

val mechanism : setup -> Dm_market.Mechanism.variant -> Dm_market.Mechanism.t
(** A fresh mechanism for [setup]: ε floored at 2.5 n δ (below that
    the buffered-cut variants stall — EXPERIMENTS.md) over the ball
    of [setup.radius]. *)

val variants : (string * Dm_market.Mechanism.variant) list
(** The four paper variants (pure, uncertainty, reserve,
    reserve+uncertainty) with δ = 0.01. *)

val bits : float -> int64
(** IEEE-754 bit pattern, for bit-identity comparisons. *)

val floats_identical : float array -> float array -> bool
(** Element-wise bit-pattern equality (NaN-safe). *)

val series_identical : Dm_market.Broker.series -> Dm_market.Broker.series -> bool
(** Bit-pattern equality of two regret series (checkpoints, cumulative
    regret and value, regret ratio). *)
