(** Dense real vectors backed by unboxed [float array]s.

    All functions are total unless documented otherwise; dimension
    mismatches raise [Invalid_argument].  Vectors are mutable arrays:
    functions suffixed [_inplace] mutate their first argument, all
    others allocate fresh results. *)

type t = float array

val create : int -> float -> t
(** [create n x] is the [n]-vector with every component equal to [x]. *)

val zeros : int -> t
(** [zeros n] is the [n]-dimensional zero vector. *)

val ones : int -> t
(** [ones n] is the [n]-dimensional all-ones vector. *)

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of R^n
    (zero-indexed).  Raises [Invalid_argument] if [i] is out of
    range. *)

val init : int -> (int -> float) -> t
(** [init n f] is the vector [(f 0, ..., f (n-1))]. *)

val dim : t -> int
(** [dim v] is the number of components of [v]. *)

val copy : t -> t
(** [copy v] is a fresh vector equal to [v]. *)

val of_list : float list -> t

val to_list : t -> float list

val get : t -> int -> float

val set : t -> int -> float -> unit

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** [map2 f u v] is the componentwise image [(f u_i v_i)_i]. *)

val iteri : (int -> float -> unit) -> t -> unit

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val dot : t -> t -> float
(** [dot u v] is the Euclidean inner product [Σ_i u_i v_i]. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t
(** [scale a v] is [a · v]. *)

val scale_inplace : float -> t -> unit
(** [scale_inplace a v] performs [v := a·v] in place — the same
    per-component product as {!scale}, so the two agree bit-for-bit. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y := a·x + y] in place. *)

val neg : t -> t

val sum : t -> float

val mean : t -> float
(** Arithmetic mean.  Raises [Invalid_argument] on the empty vector. *)

val norm2 : t -> float
(** Euclidean (L2) norm. *)

val norm1 : t -> float
(** L1 norm. *)

val norm_inf : t -> float
(** Maximum absolute component; [0.] on the empty vector. *)

val normalize : t -> t
(** [normalize v] is [v / ‖v‖₂].  Raises [Invalid_argument] on the
    zero vector (its direction is undefined). *)

val dist2 : t -> t -> float
(** Euclidean distance [‖u − v‖₂]. *)

val max_elt : t -> float
(** Largest component.  Raises [Invalid_argument] on the empty
    vector. *)

val min_elt : t -> float

val argmax : t -> int

val argmin : t -> int

val approx_equal : ?tol:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [tol]
    (default [1e-9]).  Vectors of different dimension are never
    approximately equal. *)

val concat : t -> t -> t

val slice : t -> pos:int -> len:int -> t

val sorted : t -> t
(** A fresh copy sorted in increasing order, [v] left unchanged: the
    NaNs in input order, then the negatives, then the zeros ([-0.] and
    [0.]) in input order, then the positives.  This is, bit for bit on
    every input, what a stable sort by [<] with the NaNs moved first
    gives, and at every index it compares equal under [Float.compare]
    to [Array.sort Float.compare] applied to a copy of [v] (the two are
    bit-identical without NaN or [-0.]).

    An LSD radix sort on the values' IEEE-754 bit patterns: a fixed
    number of linear passes on every input, none of them boxing.  Each
    call allocates the result and one [int] key per nonzero, non-NaN
    value; when more than 32 values share a sign it also allocates a
    scratch key array of the same length and a 1,024-counter histogram.
    Nothing is kept between calls. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[v0; v1; ...]] with 6 significant digits. *)

(** Read-only index/value views of sparse vectors, built once per round
    from a dense vector so the sparse-aware {!Mat} kernels
    ([quad_sparse], [rank_one_rescale_sparse]) can
    skip the zero coordinates without rescanning.  Views alias nothing:
    the index and value arrays are freshly gathered copies, so later
    mutation of the source vector does not affect them. *)
module Sparse : sig
  type dense = t

  type t = private { dim : int; idx : int array; value : float array }
  (** [idx] holds the positions of the nonzero entries in increasing
      order; [value.(k)] is the entry at [idx.(k)].  Entries that are
      exactly [0.] (either sign) are never included. *)

  val default_max_density : float
  (** [0.125] — the same 8·nnz ≤ n rule the dense kernels use for
      their internal zero-skipping fast path. *)

  val of_dense : ?max_density:float -> dense -> t option
  (** Gather the nonzero entries of a dense vector, or [None] when
      more than [max_density] (default {!default_max_density}) of the
      coordinates are nonzero — the signal that the dense kernels will
      be at least as fast as the gathered ones.  Raises
      [Invalid_argument] if [max_density ≤ 0]. *)

  val gather : dense -> t
  (** Unconditional gather (no density threshold) — used for
      intermediate vectors whose support matters even when it is
      large, e.g. the ellipsoid cut direction [b = M·x/√(xᵀMx)]. *)

  val dim : t -> int

  val nnz : t -> int

  val density : t -> float
  (** [nnz / dim]; [0.] for the empty vector. *)

  val to_dense : t -> dense

  val dot_dense : t -> dense -> float
  (** [dot_dense s y] is [Σₖ value.(k)·y.(idx.(k))] in ascending index
      order — bit-identical to [Vec.dot (to_dense s) y] on finite data
      (the skipped terms are ±0 and the running sum is never −0, so
      dropping them is exact). *)
end
