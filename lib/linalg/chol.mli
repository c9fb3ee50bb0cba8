(** Cholesky factorization and positive-definite linear solves.

    A symmetric positive definite [A] factors as [A = L·Lᵀ] with [L]
    lower triangular.  This powers the ordinary-least-squares fit used
    to learn the Airbnb market-value weights (App 2) and the positive
    definiteness checks on ellipsoid shape matrices. *)

exception Not_positive_definite of int
(** Raised with the offending pivot index when a pivot is not strictly
    positive, a NaN pivot included. *)

val factorize : Mat.t -> Mat.t
(** [factorize a] is the lower-triangular Cholesky factor [L] of the
    symmetric positive definite matrix [a] (only the lower triangle of
    [a] is read).  Raises [Not_positive_definite] otherwise and
    [Invalid_argument] if [a] is not square. *)

val solve_lower : Mat.t -> Vec.t -> Vec.t
(** [solve_lower l b] solves [L·y = b] by forward substitution for a
    lower-triangular [l] with non-zero diagonal. *)

val solve_upper_t : Mat.t -> Vec.t -> Vec.t
(** [solve_upper_t l y] solves [Lᵀ·x = y] by back substitution, reading
    [l] as its transpose. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] solves [A·x = b] for symmetric positive definite [A]
    via one factorization and two triangular solves. *)

val solve_regularized : ?ridge:float -> Mat.t -> Vec.t -> Vec.t
(** [solve_regularized ~ridge a b] solves [(A + ridge·I)·x = b],
    retrying with geometrically increasing ridge (up to a factor 10⁸)
    if [A + ridge·I] is numerically indefinite.  Default [ridge] is
    [1e-10].  This is the pragmatic normal-equations path used by the
    OLS fitter on (near-)collinear designs. *)

val is_positive_definite : Mat.t -> bool
(** Whether the symmetric matrix factorizes with strictly positive
    pivots. *)

val log_det : Mat.t -> float
(** [log_det a] is [log det A] for symmetric positive definite [A],
    computed stably as [2·Σ log L_ii].  The ellipsoid-volume
    bookkeeping in the regret experiments uses log-volumes to avoid
    under/overflow at n = 100. *)
