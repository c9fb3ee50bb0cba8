(** The ellipsoid-based posted-price mechanisms (Algorithms 1, 1°, 2, 2°
    — the paper writes 1* and 2* for the reserve-free variants).

    One implementation covers the paper's four variants, selected by a
    {!variant} value:

    - [pure]                          — Algorithm 1* ("the pure version")
    - [with_reserve]                  — Algorithm 1  ("with reserve price")
    - [with_uncertainty δ]            — Algorithm 2* ("with uncertainty")
    - [with_reserve_and_uncertainty δ]— Algorithm 2  ("with reserve price
                                        and uncertainty")

    All prices here live in *index space* (the scalar [φ(x)ᵀθ]); the
    {!Broker} maps them through the model link.  Per round the
    mechanism

    + computes the market-value bounds [p̲, p̄] from the ellipsoid
      (Lines 5–7);
    + skips the round when the reserve exceeds every possible market
      value, [q ≥ p̄ + δ] (Lines 8–10) — a certain no-deal;
    + posts the exploratory price [max(q, (p̲+p̄)/2)] when the width
      [p̄ − p̲] exceeds the threshold ε, otherwise the conservative
      price [max(q, p̲ − δ)] (Lines 12–13 / 26–27);
    + on exploratory feedback, cuts the ellipsoid at the *effective*
      price [p+δ] (rejection, keep below) or [p−δ] (acceptance, keep
      above), with the α-range guards of Lines 16 / 22.  Conservative
      prices never cut (Line 28) — allowing them to do so admits the
      Lemma-8 adversary with Ω(T) regret, which the
      [allow_conservative_cuts] switch exists to demonstrate.

    The per-round cost is two mat-vecs and a rank-one update, O(n²)
    time, and the state is one n×n matrix plus one n-vector, O(n²)
    space (Section III-C1). *)

type variant = { use_reserve : bool; delta : float }

val pure : variant

val with_reserve : variant

val with_uncertainty : delta:float -> variant
(** Requires [delta ≥ 0] and finite (NaN and infinity are rejected). *)

val with_reserve_and_uncertainty : delta:float -> variant

val variant_name : variant -> string
(** The evaluation-section names: "pure version", "with reserve
    price", … *)

type config = {
  variant : variant;
  epsilon : float;  (** exploration threshold, finite and > 0 *)
  allow_conservative_cuts : bool;
      (** Lemma-8 footgun; [false] in every paper variant *)
  sparse_cuts : bool;
      (** permit the in-place scalar-scaled sparse cut path
          ({!Ellipsoid.cut_below}'s [mutate]) when the feature vector
          is sparse enough — default [true].  Decisions and accept/
          reject outcomes are identical either way; posted prices and
          log-volumes agree to ≤1e-9 relative (DESIGN.md).  Set
          [false] to force the bit-exact dense reference path. *)
}

val config :
  ?allow_conservative_cuts:bool ->
  ?sparse_cuts:bool ->
  variant:variant ->
  epsilon:float ->
  unit ->
  config

type t
(** Mutable mechanism state: the current ellipsoid plus round
    counters. *)

val create : config -> Ellipsoid.t -> t

val create_projected :
  config -> projection:Dm_linalg.Mat.t -> err:float -> Ellipsoid.t -> t
(** [create_projected cfg ~projection:p ~err ell] runs the mechanism in
    rank-k projected coordinates: [p] is a [k×n] matrix with
    orthonormal rows (a {!Dm_ml.Subspace}/PCA component basis — not
    validated here), [ell] the {e k-dimensional} knowledge ellipsoid
    over [θ_P = P·θ*], and [err] a finite non-negative bound on the
    unobserved tail [sup_x |x_⊥ᵀθ*|] ([x_⊥ = x − Pᵀ·P·x]).

    Per round the feature vector is projected once ([u = P·x], O(k·n)
    through the pooled {!Dm_linalg.Mat.project} kernel, memoized
    between {!decide} and {!observe} on the same physical [x]) and
    every bound, price and cut runs in the k-dim space — O(k²) per cut
    instead of O(n²).  The tail bound widens every guard exactly like
    the paper's valuation uncertainty: the effective buffer is
    [δ + err], so cuts never discard θ_P and the regret pays at most
    [err] extra per round ({!Regret.projection_term}).  With [p] the
    identity and [err = 0] the trajectory is bit-identical to the
    dense mechanism.

    Raises [Invalid_argument] when the ellipsoid dimension differs
    from the projection rank, or on a NaN/infinite/negative [err]. *)

type robust_config = {
  explore_every : int;
      (** post a probe after this many consecutive conservative
          rounds *)
  drift_window : int;  (** sliding window length, in posted rounds *)
  drift_trigger : int;
      (** contradictions within the window that trigger a restart *)
  reinflate_radius : float;
      (** radius of the restarted knowledge ball; pass [2R] to
          guarantee any ‖θ‖ ≤ R is recaptured *)
}

val robust_config :
  ?drift_window:int ->
  ?drift_trigger:int ->
  explore_every:int ->
  reinflate_radius:float ->
  unit ->
  robust_config
(** Validated constructor (defaults: window 32, trigger 4).  Requires
    [explore_every ≥ 1], [1 ≤ drift_window ≤ 62],
    [1 ≤ drift_trigger ≤ drift_window] and a finite
    [reinflate_radius > 0]. *)

val create_robust : robust_config -> config -> Ellipsoid.t -> t
(** A misspecification-robust (dense) variant for streams that break
    the paper's model — shifting hidden vector, heavy tails, strategic
    responses ([Dm_synth.Adversarial]-style).  Two additions over
    {!create}:

    + {e periodic explore rounds}: after [explore_every] consecutive
      conservative rounds the next post is a probe at
      [p̄ + δ + ε/4] instead of the conservative floor.  Under the
      paper's model the buyer rejects it and both cut positions fall
      outside the knowledge set, so the probe never corrupts the
      ellipsoid — it only forfeits that round's sale.  The ε/4 gap
      makes the probe sensitive to market values sitting only a
      fraction of the exploration threshold above the set — upward
      drift, or a set that heavy-tailed exploration noise carved low;
    + {e drift-triggered restarts}: every posted round contributes a
      bit to a sliding window — set when the response contradicts the
      knowledge set under |noise| ≤ δ (an acceptance at or above
      [p̄ + δ], i.e. the probe sold, or a rejection at or below
      [p̲ − δ], the conservative floor refused).  When
      [drift_trigger] bits are set within [drift_window] posted
      rounds, {e or two consecutive probes sell} (a probe acceptance
      is far stronger evidence than a floor rejection, and probes are
      too sparse for the window to accumulate them), the ellipsoid is
      re-inflated to a ball of radius [reinflate_radius] at the
      current center (clipped to half the radius, so any θ with
      ‖θ‖ ≤ [reinflate_radius]/2 is recaptured) and the detector
      state clears.  The two triggers re-inflate differently: the
      rejection window proves global staleness and uses the full
      radius, while a probe streak only proves the market value sits a
      fraction of ε above the set, so it re-inflates a small ball
      (max(8ε, radius/4)) around the current center — a cheap local
      re-learn that recenters closer on every repeat;
    + {e adaptive floor shading}: rejections of the conservative floor
      price itself walk an online discount up (ε/16 per rejection,
      −ε/256 per floor sale, clamped to [0, ε]) and the floor posts at
      [p̲ − δ − shade].  Valuation noise whose lower tail outruns the
      sub-Gaussian δ makes floor rejections — each forfeiting a whole
      sale — far too frequent; trading a slightly lower price for
      sell-through is the distribution-free play, and the equilibrium
      keeps floor rejections near a 6% rate.  On a model-matching
      stream floor rejections stay (T-horizon-)rare, so the shade
      decays to and stays at 0 and prices are unchanged.

    On a stationary stream matching the paper's model the trajectory
    between probes is identical to {!create}'s, contradictions have
    vanishing probability, and the extra regret is one forfeited sale
    per [explore_every] converged rounds.  The Lemma 6/7 exploratory
    bound no longer applies: probes count as exploratory rounds and
    each restart re-opens the exploration phase. *)

val projection : t -> (Dm_linalg.Mat.t * float) option
(** The projection matrix and error bound of a {!create_projected}
    mechanism; [None] for a dense one. *)

val robust_config_of : t -> robust_config option
(** The robust configuration of a {!create_robust} mechanism; [None]
    for a vanilla one. *)

val robust_restarts : t -> int
(** How many drift-triggered restarts have fired (0 for a vanilla
    mechanism). *)

val robust_drift_level : t -> int
(** Contradictions currently set in the sliding window (0 for a
    vanilla mechanism); reaches [drift_trigger] only transiently —
    the triggering round restarts and clears the window. *)

val robust_shade : t -> float
(** The current adaptive discount below the conservative floor (0 for
    a vanilla mechanism, and 0 on streams matching the model). *)

val ellipsoid : t -> Ellipsoid.t
(** The current knowledge set.  Reading it marks its shape matrix and
    center as escaped, so the next cut allocates fresh buffers instead
    of recycling them — callers may therefore retain the returned
    ellipsoid across future [observe] calls.  (Between reads, [observe]
    ping-pongs the two most recent shape and center buffers and never
    allocates.) *)

val projected_feature : t -> x:Dm_linalg.Vec.t -> Dm_linalg.Vec.t option
(** [projected_feature t ~x] is a fresh copy of the memoized rank-k
    projection [u = P·x] of {e physically} this feature vector, as
    last computed by {!decide} or {!decide_batch}; [None] for a dense
    mechanism or when the memo holds a different vector.  [u] is the
    mechanism's sufficient statistic: with [err = 0] every bound, cut
    and price is computed from [u] alone and the effective δ is
    exactly the variant's δ, so the state evolution on [x] is
    bit-identical to a dense [k]-dimensional mechanism's on [u] — a
    serving layer may therefore journal [u] in place of the raw
    feature and replay against dense [k]-dim state (the serve
    artifact's journal does exactly this, decoupling journal bandwidth
    from the ambient dimension). *)

val config_of : t -> config

type kind = Exploratory | Conservative

type decision =
  | Skip  (** certain no-deal: reserve ≥ p̄ + δ; nothing is posted *)
  | Post of {
      price : float;  (** index-space posted price *)
      kind : kind;
      lower : float;  (** p̲ at decision time *)
      upper : float;  (** p̄ at decision time *)
    }

val decide : t -> x:Dm_linalg.Vec.t -> reserve:float -> decision
(** Price the query with (index-space) feature vector [x] and reserve
    [reserve].  Ignores [reserve] in the no-reserve variants (pass
    [neg_infinity] or anything else).  Does not mutate state.  Raises
    [Invalid_argument] on non-finite features or a NaN reserve —
    either would silently poison the knowledge set. *)

type batch
(** A cross-tenant batch-serving context: hoists the per-fleet
    constants of {!decide_batch} — the transposed shared projection the
    blocked batch kernel streams, and the gather/scatter panels (sized
    on first use and re-sized only when the batch size changes, so a
    steady-state flush allocates nothing). *)

val batch : t -> batch
(** [batch t] is a serving context for the fleet [t] belongs to, built
    from any representative member: projected mechanisms must share
    [t]'s projection {e physically} (the same [Dm_linalg.Mat.t]); a
    dense representative yields a context for dense fleets. *)

val decide_batch :
  batch ->
  t array ->
  xs:Dm_linalg.Vec.t array ->
  reserves:float array ->
  decision array
(** [decide_batch ctx mechs ~xs ~reserves] prices [B] pending requests,
    request [i] against [mechs.(i)]: the projected path gathers the
    feature vectors into a [B×n] panel, batch-projects them against the
    shared [P] in one blocked {!Dm_linalg.Mat.project_batch} pass, then
    runs the per-request rank-k {!decide} sequentially in arrival
    order with each mechanism's projection memo seeded from its panel
    row — so decisions (and the cuts and snapshots of the {!observe}s
    that follow) are bit-identical to serving the same requests one at
    a time.  The dense path is a plain {!decide} loop.  Like {!decide}
    it never mutates knowledge state; the caller resolves acceptances
    and calls {!observe} per request afterwards, in the same order.

    Raises [Invalid_argument] on an empty batch, mismatched array
    lengths, a mechanism whose projection is not physically the
    context's (or a projected mechanism under a dense context), a
    duplicate mechanism in the batch (its second decision would not
    see the first round's observe), and the per-request {!decide}
    errors. *)

val observe : t -> x:Dm_linalg.Vec.t -> decision -> accepted:bool -> unit
(** Incorporate the buyer's response to a {!decide} outcome.  [Skip]
    decisions and conservative posts leave the ellipsoid unchanged
    (unless [allow_conservative_cuts]).  In projected mode, passing
    the same physical [x] as the preceding {!decide} (what {!step}
    does) reuses its cached projection; the array must not be mutated
    between the two calls. *)

val step : t -> x:Dm_linalg.Vec.t -> reserve:float -> market_index:float -> decision * bool
(** Convenience: decide, resolve acceptance ([price ≤ market_index]),
    observe, and return the decision with the acceptance flag. *)

val exploratory_rounds : t -> int
(** How many exploratory prices were posted so far — the Tₑ of
    Lemma 6/7, bounded by [20n²·log(20RS²(n+1)/ε)]. *)

val conservative_rounds : t -> int

val skipped_rounds : t -> int

val te_upper_bound : radius:float -> feature_bound:float -> dim:int -> epsilon:float -> float
(** The Lemma 6/7 bound [20n²·log(20·R·S²·(n+1)/ε)] on exploratory
    rounds.  Raises [Invalid_argument] unless [radius], [feature_bound]
    and [epsilon] are positive (NaN is refused) and [dim ≥ 1]. *)

val binary_magic : string
(** The 8-byte magic (["dm-mech3"]) opening a dense binary snapshot. *)

val binary_magic_v4 : string
(** The 8-byte magic (["dm-mech4"]) opening a projected binary
    snapshot: the v3 layout with [k], [n] (u32 each), the error bound
    and the row-major projection entries inserted between the counters
    and the ellipsoid. *)

val binary_magic_v5 : string
(** The 8-byte magic (["dm-mech5"]) opening a robust binary snapshot:
    the v3 layout with the {!robust_config} fields and the live
    drift-detector state inserted between the counters and the
    ellipsoid. *)

val snapshot_binary : t -> string
(** Binary snapshot of the full mechanism state, exact across a
    round-trip, so a broker process can restart mid-stream without
    losing what it learned: {!binary_magic} (dense), {!binary_magic_v4}
    (projected) or {!binary_magic_v5} (robust), the configuration
    (including [sparse_cuts]) and counters as little-endian fields, the
    projection or robust block, then the ellipsoid's
    {!Ellipsoid.serialize_binary} image with its scalar and
    volume-cache state.  A round-trip reproduces the mechanism
    field-for-field; this is what the [Dm_store] snapshot files
    hold. *)

val restore : string -> (t, string) result
(** Inverse of {!snapshot_binary}; the layout is picked by the leading
    magic, and any other leading bytes are an [Error].  [Error] on any
    malformed input, including non-finite floats (NaN ε/δ, projection
    entries or ellipsoid entries), a NaN/infinite/negative projection
    error bound, a projection rank that disagrees with the ellipsoid
    dimension, an invalid robust block, a flag byte other than 0 or 1,
    and truncated or oversized fields.  The ellipsoid's shape is
    checked for exact symmetry and a positive diagonal
    ({!Ellipsoid.deserialize_binary}), not for positive-definiteness.
    Messages are prefixed ["Mechanism.restore: "] and name the byte
    offset of the offending field. *)
