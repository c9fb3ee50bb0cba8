(** Privacy-compensation contracts between data owners and the broker.

    Each owner signs a contract mapping her per-query privacy leakage
    ε to money.  The paper (following Li et al.) uses tanh-based
    contracts, [π(ε) = ρ·tanh(s·ε)]: approximately linear for small
    leakages (rate ρ·s per unit ε) and saturating at a cap ρ — an
    owner will not accept unbounded leakage for unbounded pay.

    The sum of compensations under a query is the query's *reserve
    price*: the posted price may never fall below it, or the broker
    would trade at a loss (Section II-A). *)

type t =
  | Linear of { rate : float }
      (** [π(ε) = rate·ε]; [rate ≥ 0]. *)
  | Tanh of { cap : float; steepness : float }
      (** [π(ε) = cap·tanh(steepness·ε)]; both parameters ≥ 0. *)

val linear : rate:float -> t
(** Validates [rate ≥ 0]; a negative or NaN rate raises
    [Invalid_argument]. *)

val tanh_contract : cap:float -> steepness:float -> t
(** Validates [cap ≥ 0] and [steepness ≥ 0]; a negative or NaN
    parameter raises [Invalid_argument]. *)

val amount : t -> float -> float
(** [amount c eps] is the payment owed for leakage [eps ≥ 0].  Raises
    [Invalid_argument] on negative or NaN leakage.  Always
    non-negative, non-decreasing in [eps], and zero at zero. *)

val cap : t -> float
(** The supremum of [amount c]; [infinity] for linear contracts with a
    positive rate. *)

val per_owner :
  contracts:t array -> leakages:Dm_linalg.Vec.t -> Dm_linalg.Vec.t
(** Componentwise application; raises [Invalid_argument] on length
    mismatch or on a leakage {!amount} rejects. *)

val total : contracts:t array -> leakages:Dm_linalg.Vec.t -> float
(** The query's reserve price [Σᵢ πᵢ(εᵢ)]. *)
