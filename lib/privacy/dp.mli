(** Differential-privacy accounting for noisy linear queries.

    App 1 of the paper trades noisy linear queries in the framework of
    Li et al., "A theory of pricing private data" (CACM'17): a data
    consumer specifies per-owner weights [w] and a tolerable noise
    variance; the broker answers [Σᵢ wᵢ·dᵢ + Laplace(λ)] and charges
    according to the privacy each owner leaks.

    For the Laplace mechanism on a linear query, owner [i]'s leakage is
    the per-owner differential-privacy level
    [εᵢ = |wᵢ|·Δᵢ / λ], where [Δᵢ] bounds how much the answer can move
    when owner [i]'s value changes (her data range).  Larger weights or
    less noise leak more. *)

type query = {
  weights : Dm_linalg.Vec.t;  (** one weight per data owner *)
  noise_scale : float;  (** Laplace diversity λ > 0 chosen by the consumer *)
}

val make_query : weights:Dm_linalg.Vec.t -> noise_scale:float -> query
(** Validates [noise_scale > 0] (NaN is rejected) and a non-empty
    weight vector. *)

val variance_to_scale : float -> float
(** The Laplace scale λ achieving a requested noise variance v > 0:
    [λ = √(v/2)] (Laplace(λ) has variance 2λ²).  The paper's consumers
    pick variances from {10^k, |k| ≤ 4}.  Raises [Invalid_argument]
    unless [v > 0] (NaN is rejected). *)

val owner_count : query -> int

val leakage : query -> data_ranges:Dm_linalg.Vec.t -> Dm_linalg.Vec.t
(** [leakage q ~data_ranges] is the per-owner ε vector
    [εᵢ = |wᵢ|·Δᵢ/λ].  Raises [Invalid_argument] on dimension mismatch
    or a negative or NaN range. *)

val true_answer : query -> data:Dm_linalg.Vec.t -> float
(** The unperturbed answer [Σᵢ wᵢ·dᵢ]. *)

val noisy_answer : Dm_prob.Rng.t -> query -> data:Dm_linalg.Vec.t -> float
(** The Laplace-perturbed answer actually sold to the consumer. *)

val total_epsilon : query -> data_ranges:Dm_linalg.Vec.t -> float
(** Sum of per-owner leakages — the query's overall privacy cost. *)
