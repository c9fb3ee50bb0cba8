(** App 3: pricing ad impressions under the logistic model (Sec. V-C).

    Pipeline, mirroring the paper: generate an Avazu-style click
    stream, one-hot-hash the categorical fields into n buckets, learn
    θ* with FTRL-Proximal logistic regression (the fitted vector is
    sparse — the paper reports 21 non-zeros at n = 128 and 23 at
    n = 1024), then price a fresh impression stream under
    [v = σ(xᵀθ)] (hidden θ) with the pure mechanism (no reserve, as in the
    paper's Fig. 5(c)).

    Two cases probe sparsity handling:
    - {e sparse}: feature vectors keep all n hashed coordinates;
    - {e dense}: coordinates whose fitted weight is zero are dropped,
      shrinking the ellipsoid dimension to the number of non-zeros. *)

type case = Sparse | Dense

type t = {
  hash_dim : int;  (** n, the hashing modulus *)
  rounds : int;
  theta_nonzeros : int;  (** sparsity of the fitted θ* *)
  train_log_loss : float;
  sparse_model : Dm_market.Model.t;  (** logistic over all n coordinates *)
  dense_model : Dm_market.Model.t;  (** logistic over the non-zero support *)
  dense_dim : int;
  sparse_stream : Dm_linalg.Vec.t array;  (** pricing features, n-dim *)
  dense_stream : Dm_linalg.Vec.t array;  (** same rounds, support only *)
  feature_bound : float;  (** max ‖x‖ over the sparse stream *)
}

val make :
  ?train_rounds:int ->
  ?ftrl_l1:float ->
  seed:int ->
  dim:int ->
  rounds:int ->
  unit ->
  t
(** [dim] is the hashing modulus n; [rounds] the pricing horizon;
    [train_rounds] (default 200,000) the FTRL training volume — the
    real corpus has 404M rows, scaled down per DESIGN.md §3.

    Set-up memory: both streams are drawn one impression at a time
    ({!Dm_synth.Avazu.draw}) and encoded as they are drawn, in
    {!Dm_synth.Avazu.generate}'s order, so the raw impressions (nine
    fresh string pairs each) are garbage at once and never held
    alongside their encodings; only the hashed training set (kept for
    FTRL's two epochs) and the pricing vectors live on.  θ*, both
    streams and every later price are bit-identical to generating each
    stream whole first.  Raises [Invalid_argument] before any work
    when [dim < 2], [rounds < 1] or [train_rounds < 1]. *)

val model : t -> case -> Dm_market.Model.t

val dim : t -> case -> int

val workload : t -> case -> (int -> Dm_linalg.Vec.t * float)
(** Reserve prices are 0 (unused: App 3 runs the pure variant). *)

val mechanism :
  ?epsilon:float -> t -> case -> Dm_market.Mechanism.variant -> Dm_market.Mechanism.t
(** [epsilon] defaults to n²/T computed in the case's dimension. *)

val run :
  ?checkpoints:int array ->
  ?epsilon:float ->
  t ->
  case ->
  Dm_market.Mechanism.variant ->
  Dm_market.Broker.result
