(** Market-value models: linear and the Section IV-A non-linear class.

    Every supported model has the form [v = g(φ(x)ᵀθ* + δ)] with a
    public non-decreasing continuous link [g], a public feature map
    [φ], and a hidden weight vector θ* (the paper's Eq. 27; the
    uncertainty δ acts in index space, which coincides with additive
    value-space noise when [g] is the identity).

    The pricing mechanism explores in *index space* — the scalar
    [z = φ(x)ᵀθ] — and only converts to money through [g] at the
    posting boundary; the reserve price is pulled into index space
    through [g⁻¹].  Hence every link here is strictly increasing and
    invertible on the relevant range.

    Note: the paper prints the logistic link as [1/(1+exp(z))], which
    is decreasing and contradicts its own monotonicity requirement;
    we use the standard sigmoid [1/(1+exp(−z))] (see DESIGN.md §3). *)

type link = {
  name : string;
  g : float -> float;
  g_inv : float -> float;
      (** inverse on the link's range; values outside the range clamp
          to ±∞, which the reserve-price max handles gracefully *)
}

val identity_link : link

val exp_link : link
(** [g = exp], [g⁻¹ = log] (log-linear and log-log models);
    [g⁻¹ q = −∞] for q ≤ 0. *)

val sigmoid_link : link
(** [g = σ], [g⁻¹ = logit]; quantities outside (0, 1) clamp to ±∞. *)

type t = private {
  name : string;
  link : link;
  phi : Dm_linalg.Vec.t -> Dm_linalg.Vec.t;  (** public feature map *)
  theta : Dm_linalg.Vec.t;  (** hidden weights over φ(x) *)
}

val linear : theta:Dm_linalg.Vec.t -> t
(** [v = xᵀθ* + δ] — the fundamental model of Section III. *)

val log_linear : theta:Dm_linalg.Vec.t -> t
(** [log v = xᵀθ*] — App 2's accommodation-rental model. *)

val log_log : theta:Dm_linalg.Vec.t -> t
(** [log v = Σᵢ log(xᵢ)·θᵢ*] — hedonic pricing; features must be
    positive: evaluating the model on a non-positive or NaN feature
    raises [Invalid_argument]. *)

val logistic : theta:Dm_linalg.Vec.t -> t
(** [v = σ(xᵀθ)] with hidden θ — App 3's impression/CTR model. *)

val kernelized : map:Dm_ml.Kernel.landmark_map -> theta:Dm_linalg.Vec.t -> t
(** [v = φ(x)ᵀθ*] with [φ(x) = (K(x,l₁),…,K(x,l_m))] — the fixed-
    landmark realization of the paper's kernelized model (DESIGN.md
    §3).  [theta] must have one weight per landmark. *)

val custom :
  name:string ->
  link:link ->
  phi:(Dm_linalg.Vec.t -> Dm_linalg.Vec.t) ->
  theta:Dm_linalg.Vec.t ->
  t
(** Escape hatch for models outside the four canned ones. *)

val index_dim : t -> int
(** Dimension of φ(x) — the dimension the ellipsoid lives in. *)

val feature_map : t -> Dm_linalg.Vec.t -> Dm_linalg.Vec.t

val index : t -> Dm_linalg.Vec.t -> float
(** The noiseless index [φ(x)ᵀθ*]. *)

val value : ?noise:float -> t -> Dm_linalg.Vec.t -> float
(** The market value [g(φ(x)ᵀθ* + noise)] (noise defaults to 0). *)

val price_of_index : t -> float -> float
(** [g] applied to an index-space price — what the buyer is shown. *)

val index_of_price : t -> float -> float
(** [g⁻¹] applied to a value-space amount (e.g. a reserve price). *)
