(** Synthetic Avazu-style mobile-ad click stream (App 3).

    The paper prices ad impressions under the logistic model over the
    Avazu CTR dataset (404M samples), one-hot encoding the categorical
    fields with the hashing trick and learning θ* with FTRL-Proximal.
    The pricing dynamics only depend on the fitted sparse logistic
    model and the hashed feature stream, which this generator
    reproduces at a tractable volume (DESIGN.md §3):

    - 9 categorical fields (banner position, site, site category, app,
      app category, device model, device type, connection type, hour)
      with Zipf-distributed value popularity;
    - a sparse ground-truth CTR model: a handful of field values carry
      strong positive or negative log-odds, everything else is noise —
      so FTRL recovers a θ* with few non-zeros, as the paper reports
      (21 at n = 128, 23 at n = 1024);
    - a global click-through base rate of ≈17%, like the real logs. *)

type impression = {
  fields : (string * string) list;  (** (field, value) pairs *)
  clicked : bool;
}

val field_names : string array

val draw : Dm_prob.Rng.t -> impression
(** One labelled impression: its fields, then its click.  A stream
    drawn one impression at a time consumes the generator exactly as
    {!generate} does, so a consumer can encode each impression as it
    is drawn instead of holding the whole raw stream. *)

val generate : Dm_prob.Rng.t -> rounds:int -> impression array
(** [rounds] labelled impressions, made by {!draw} one after another
    (the real dataset has 404M; the experiments here train on a few
    hundred thousand).  Raises [Invalid_argument] when [rounds < 1]. *)

val encode : dim:int -> impression -> Dm_ml.Hashing.feature list
(** One-hot hashing of every field into [dim] buckets — the paper's
    "n serves as the modulus after hashing". *)

val true_ctr : impression -> float
(** The generator's ground-truth click probability for an impression —
    exposed for calibration tests only; the pricing experiments use
    the FTRL-fitted model exactly as the paper does. *)
