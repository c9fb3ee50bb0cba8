(** The data broker's trading loop (Fig. 2 of the paper).

    [run] plays [rounds] rounds of posted-price trading between a
    pricing policy and a stream of buyers whose willingness to pay
    follows a {!Model.t} with per-round uncertainty: in round [t] the
    workload yields a query feature vector and a (value-space) reserve
    price, the policy posts a price (or skips), the buyer accepts iff
    the price does not exceed the realized market value, and the
    broker accounts revenue and regret (Eq. 1/7).

    Two policies are built in: the paper's ellipsoid mechanism (all
    four variants) and the risk-averse baseline of Section V that
    posts the reserve price every round. *)

type custom_policy = {
  policy_name : string;
  decide : x:Dm_linalg.Vec.t -> reserve:float -> float option;
      (** index-space price to post, or [None] to skip the round *)
  learn : x:Dm_linalg.Vec.t -> price:float -> accepted:bool -> unit;
      (** feedback after a posted round (never called on skips) *)
  uses_reserve : bool;
      (** whether regret should honour the reserve (Eq. 1 vs Eq. 7) *)
}
(** A pluggable pricing policy — how comparison baselines (e.g. the
    SGD pricer of {!Sgd_pricing}) enter the same trading loop. *)

type policy =
  | Ellipsoid_pricing of Mechanism.t
  | Risk_averse
      (** post the reserve price itself each round — sells whenever a
          sale is possible at all, never learns *)
  | Custom of custom_policy

type kind = Exploratory | Conservative | Skipped | Baseline

type event = {
  t : int;  (** 0-based round number *)
  x : Dm_linalg.Vec.t;  (** index-space feature vector φ(x) *)
  reserve : float;  (** value space *)
  kind : kind;
  price_index : float;
      (** index-space posted price — what the policy's decision said
          before the link map; NaN on skipped rounds *)
  lower : float;  (** knowledge-set bound p̲ at decision time; NaN when
                      the policy exposes none (skips, baselines) *)
  upper : float;  (** p̄ at decision time; NaN likewise *)
  posted : float option;  (** value space; [None] for skips *)
  accepted : bool;
  payment : float;  (** value space; [0.] unless accepted *)
}
(** One round of the trading loop as seen by a [?journal] sink — the
    durable audit record: which query arrived, what was posted and
    why (the decision-time bounds), and how the buyer responded.
    Everything a mechanism needs to replay the round
    ([x], [price_index], [kind], [lower]/[upper], [accepted]) is
    included; the realized market value deliberately is not — a real
    broker never observes it, and in simulation it is a pure function
    of the round. *)

type round = {
  index : int;  (** 0-based round number *)
  reserve : float;  (** value space *)
  market_value : float;  (** realized, value space *)
  posted : float option;  (** value space; [None] for skips *)
  kind : kind;
  accepted : bool;
  revenue : float;
  regret : float;
}

type series = {
  checkpoints : int array;  (** 1-based round counts, increasing *)
  cumulative_regret : float array;
  cumulative_value : float array;
  regret_ratio : float array;
      (** Σregret / Σmarket-value at each checkpoint — the paper's
          headline metric *)
}

type result = {
  rounds : int;
  total_regret : float;
  total_value : float;
  total_revenue : float;
  regret_ratio : float;
  series : series;
  market_value_stats : Dm_prob.Stats.summary;
  reserve_stats : Dm_prob.Stats.summary;
  posted_stats : Dm_prob.Stats.summary;  (** over posted rounds only *)
  regret_stats : Dm_prob.Stats.summary;  (** per-round, all rounds *)
  exploratory : int;
  conservative : int;
  skipped : int;
  accepted_rounds : int;
  logs : round array option;  (** present iff [record_rounds] *)
}

val default_checkpoints : rounds:int -> int array
(** ≈200 geometrically spaced checkpoints ending at [rounds]. *)

val run :
  ?checkpoints:int array ->
  ?record_rounds:bool ->
  ?journal:(event -> unit) ->
  policy:policy ->
  model:Model.t ->
  noise:(int -> float) ->
  workload:(int -> Dm_linalg.Vec.t * float) ->
  rounds:int ->
  unit ->
  result
(** [workload t] returns the round-[t] raw feature vector (before the
    model's φ) and the value-space reserve price.  [noise t] is the
    index-space uncertainty δ_t.  Regret uses Eq. 1 when the policy
    honours reserve prices (reserve variants and the baseline) and
    Eq. 7 otherwise.  [record_rounds] (default false) materializes
    per-round logs — leave it off for 10⁵-round sweeps.
    [checkpoints], when given, must be strictly increasing 1-based
    round counts within [1, rounds]; anything else raises
    [Invalid_argument] rather than silently dropping entries.

    [journal], when given, receives one {!event} per round, in round
    order, after the policy has observed the buyer's response — this
    is where [Dm_store] attaches its durable journal.  The sink never
    influences pricing, accounting or randomness, so a run's result
    is byte-identical with or without it. *)
