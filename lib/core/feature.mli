(** Query feature vectors from privacy compensations (Section II-B).

    The paper represents a query by the *state of the privacy
    compensations* it induces — cost-plus pricing: the market value of
    a query is its cost (total compensation) plus a markup that the
    pricing mechanism discovers.  With many data owners the raw
    compensation vector is too high-dimensional, so it is aggregated:
    "we can sort the privacy compensations, and evenly divide them
    into n partitions.  We sum the privacy compensations falling into
    a certain partition, and thus obtain a feature."

    [dim = 1] degenerates to the single total-compensation feature and
    [dim = owner count] keeps every individual compensation, the two
    extremes the paper calls out. *)

val aggregate : dim:int -> Dm_linalg.Vec.t -> Dm_linalg.Vec.t
(** [aggregate ~dim comps] sorts [comps] increasingly, splits the
    sorted sequence into [dim] contiguous partitions of (near-)equal
    cardinality, and sums each partition.  The feature sum equals the
    total compensation exactly.  Requires [1 ≤ dim ≤ Vec.dim comps]
    and non-negative compensations; raises [Invalid_argument] on any
    other [dim] or on a negative or NaN compensation. *)

val unit_normalize : Dm_linalg.Vec.t -> Dm_linalg.Vec.t
(** A fresh copy scaled to unit L2 norm, as the App-1 setup does
    (‖x_t‖ = 1, so the feature bound is S = 1): the products of
    [Vec.scale (1. /. Vec.norm2 v) v].  The zero vector (a query that
    compensates nobody carries no signal) is copied unscaled. *)

val of_compensations : dim:int -> Dm_linalg.Vec.t -> Dm_linalg.Vec.t * float
(** The full App-1 pipeline: aggregate, normalize, and return the
    normalized feature vector together with the matching reserve price
    [q = Σᵢ xᵢ] (the total compensation expressed on the normalized
    scale, exactly the paper's [q_t = Σ x_{t,i}]).  It normalizes
    [aggregate]'s fresh output in place and sums it in a plain loop,
    bit-identical to [unit_normalize] followed by [Vec.sum]; at
    m = 500 owners and [dim = 100] it allocates 110 minor words. *)
