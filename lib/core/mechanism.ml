module Serial = Dm_linalg.Serial

type variant = { use_reserve : bool; delta : float }

let check_delta delta =
  (* [not (delta >= 0.)] rather than [delta < 0.]: NaN answers false to
     both comparisons, so the former also rejects it. *)
  if not (delta >= 0.) || delta = infinity then
    invalid_arg "Mechanism: uncertainty buffer must be finite and non-negative"

let pure = { use_reserve = false; delta = 0. }

let with_reserve = { use_reserve = true; delta = 0. }

let with_uncertainty ~delta =
  check_delta delta;
  { use_reserve = false; delta }

let with_reserve_and_uncertainty ~delta =
  check_delta delta;
  { use_reserve = true; delta }

let variant_name = function
  | { use_reserve = false; delta = 0. } -> "pure version"
  | { use_reserve = false; _ } -> "with uncertainty"
  | { use_reserve = true; delta = 0. } -> "with reserve price"
  | { use_reserve = true; _ } -> "with reserve price and uncertainty"

type config = {
  variant : variant;
  epsilon : float;
  allow_conservative_cuts : bool;
  sparse_cuts : bool;
}

let config ?(allow_conservative_cuts = false) ?(sparse_cuts = true) ~variant
    ~epsilon () =
  if not (epsilon > 0.) || epsilon = infinity then
    invalid_arg "Mechanism.config: epsilon must be finite and positive";
  check_delta variant.delta;
  { variant; epsilon; allow_conservative_cuts; sparse_cuts }

type robust_config = {
  explore_every : int;
  drift_window : int;
  drift_trigger : int;
  reinflate_radius : float;
}

(* The drift window is a bitmask over the last [drift_window] posted
   rounds (LSB = most recent), so it must fit a native int. *)
let max_drift_window = 62

let robust_config ?(drift_window = 32) ?(drift_trigger = 4) ~explore_every
    ~reinflate_radius () =
  if explore_every < 1 then
    invalid_arg "Mechanism.robust_config: explore_every must be >= 1";
  if drift_window < 1 || drift_window > max_drift_window then
    invalid_arg
      (Printf.sprintf "Mechanism.robust_config: drift_window outside [1,%d]"
         max_drift_window);
  if drift_trigger < 1 || drift_trigger > drift_window then
    invalid_arg
      "Mechanism.robust_config: drift_trigger outside [1,drift_window]";
  if not (reinflate_radius > 0.) || reinflate_radius = infinity then
    invalid_arg
      "Mechanism.robust_config: reinflate_radius must be finite and positive";
  { explore_every; drift_window; drift_trigger; reinflate_radius }

(* Two consecutive accepted probes force a restart regardless of the
   window count: a probe acceptance is far stronger evidence than a
   floor rejection (v landed ε past the whole knowledge set, not just
   δ below it), and probes are too sparse for the window to ever
   accumulate [drift_trigger] of them. *)
let probe_streak_trigger = 2

type robust_state = {
  rcfg : robust_config;
  mutable since_explore : int;
      (* conservative rounds since the last exploratory post *)
  mutable recent : int;
      (* contradiction bits over the last [drift_window] posted rounds *)
  mutable filled : int;
  mutable probe_streak : int;  (* consecutive accepted probes *)
  mutable shade : float;
      (* price shading below the conservative floor, adapted online
         from floor rejections — the distribution-free answer to
         valuation noise whose lower tail outruns the sub-Gaussian δ *)
  mutable restarts : int;
}

type t = {
  cfg : config;
  robust : robust_state option;
  proj : (Dm_linalg.Mat.t * float) option;
      (* rank-k mode: the k×n orthonormal-row projection P and the
         index-space misspecification bound err ≥ sup_x |x_⊥ᵀθ*| *)
  mutable ell : Ellipsoid.t;
  mutable exploratory : int;
  mutable conservative : int;
  mutable skipped : int;
  mutable spare : Dm_linalg.Mat.t option;
      (* retired shape buffer, reused as the next cut's destination *)
  mutable spare_center : Dm_linalg.Vec.t option;
      (* retired center buffer, ping-ponged with the live one by the
         dense cut path under the same escape rule as [spare] *)
  mutable exposed : bool;
      (* the current ellipsoid escaped through [ellipsoid]: its shape
         and center may be retained by the caller, so neither must be
         recycled *)
  u_buf : Dm_linalg.Vec.t;
      (* projected mode: the k-buffer P·x lands in; [[||]] when dense *)
  b_buf : Dm_linalg.Vec.t;
  neg_buf : Dm_linalg.Vec.t;
      (* transient cut scratch (direction b, negated direction): a cut
         consumes them without retaining either, so they are safe to
         recycle even while [exposed] *)
  mutable memo_x : Dm_linalg.Vec.t;
  mutable memo_u : Dm_linalg.Vec.t;
      (* projected mode only: the (x, P·x) pair from the last [decide],
         keyed by physical equality ([memo_x == x]; empty = no memo,
         which the length guard distinguishes from a genuine [[||]]
         input since empty arrays share one representation) so
         [observe] reuses the k-vector instead of paying the O(k·n)
         projection twice per round.  Two flat fields rather than an
         option pair, so storing a memo allocates nothing. *)
}

let no_memo : Dm_linalg.Vec.t = [||]

let create cfg ell =
  let d = Ellipsoid.dim ell in
  {
    cfg;
    robust = None;
    proj = None;
    ell;
    exploratory = 0;
    conservative = 0;
    skipped = 0;
    spare = None;
    spare_center = None;
    exposed = false;
    u_buf = no_memo;
    b_buf = Dm_linalg.Vec.zeros d;
    neg_buf = Dm_linalg.Vec.zeros d;
    memo_x = no_memo;
    memo_u = no_memo;
  }

let check_err err =
  if not (err >= 0.) || err = infinity then
    invalid_arg "Mechanism: projection error bound must be finite and non-negative"

let create_projected cfg ~projection ~err ell =
  check_err err;
  let k = Dm_linalg.Mat.rows projection in
  if k < 1 then invalid_arg "Mechanism.create_projected: empty projection";
  if Ellipsoid.dim ell <> k then
    invalid_arg
      (Printf.sprintf
         "Mechanism.create_projected: ellipsoid dim %d does not match \
          projection rank %d"
         (Ellipsoid.dim ell) k);
  { (create cfg ell) with
    proj = Some (projection, err);
    u_buf = Dm_linalg.Vec.zeros k;
  }

let fresh_robust_state rcfg =
  {
    rcfg;
    since_explore = 0;
    recent = 0;
    filled = 0;
    probe_streak = 0;
    shade = 0.;
    restarts = 0;
  }

let create_robust rcfg cfg ell =
  { (create cfg ell) with robust = Some (fresh_robust_state rcfg) }

let projection t = t.proj

let robust_config_of t = Option.map (fun rs -> rs.rcfg) t.robust

let robust_restarts t =
  match t.robust with None -> 0 | Some rs -> rs.restarts

let popcount =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0

let robust_drift_level t =
  match t.robust with None -> 0 | Some rs -> popcount rs.recent

let robust_shade t =
  match t.robust with None -> 0. | Some rs -> rs.shade

(* In projected mode every price guard widens by the misspecification
   bound: the observable index is uᵀθ_P = xᵀθ* − x_⊥ᵀθ*, so treating
   the unobserved tail exactly like the paper's valuation noise δ keeps
   every cut sound (Algorithm 2's argument verbatim with δ := δ+err). *)
let effective_delta t =
  match t.proj with
  | None -> t.cfg.variant.delta
  | Some (_, err) -> t.cfg.variant.delta +. err

let project_feature t x =
  match t.proj with
  | None -> x
  | Some (p, _) ->
      if t.memo_x == x && Array.length x > 0 then t.memo_u
      else begin
        let u = Dm_linalg.Mat.project ~into:t.u_buf p x in
        t.memo_x <- x;
        t.memo_u <- u;
        u
      end

let ellipsoid t =
  t.exposed <- true;
  t.ell

let projected_feature t ~x =
  match t.proj with
  | None -> None
  | Some _ ->
      if t.memo_x == x && Array.length x > 0 then Some (Array.copy t.memo_u)
      else None

let config_of t = t.cfg

type kind = Exploratory | Conservative

type decision =
  | Skip
  | Post of { price : float; kind : kind; lower : float; upper : float }

(* Direct float-array loop: [Array.for_all Float.is_finite] would box
   every element, putting O(n) minor words on the steady-state decide
   path the arena is meant to keep allocation-free. *)
let check_finite_vec name (x : Dm_linalg.Vec.t) =
  let n = Array.length x in
  let i = ref 0 in
  while
    !i < n
    &&
    let v = Array.unsafe_get x !i in
    v -. v = 0.
  do
    incr i
  done;
  if !i < n then invalid_arg (name ^ ": non-finite feature vector")

let decide t ~x ~reserve =
  check_finite_vec "Mechanism.decide" x;
  let { variant = { use_reserve; delta = _ }; epsilon; _ } = t.cfg in
  let delta = effective_delta t in
  (* A NaN reserve would silently disable both the skip test and the
     price floor; −∞ (no reserve) and +∞ (unsellable) are fine. *)
  if use_reserve && Float.is_nan reserve then
    invalid_arg "Mechanism.decide: NaN reserve";
  let q = if use_reserve then reserve else neg_infinity in
  let u = project_feature t x in
  let { Ellipsoid.lower; upper; mid; half_width } = Ellipsoid.bounds t.ell ~x:u in
  if use_reserve && q >= upper +. delta then Skip
  else if 2. *. half_width > epsilon then
    Post { price = Float.max q mid; kind = Exploratory; lower; upper }
  else
    let probe_due =
      match t.robust with
      | Some rs -> rs.since_explore >= rs.rcfg.explore_every
      | None -> false
    in
    if probe_due then
      (* Periodic explore round: price just above the knowledge set's
         upper bound.  Under the paper's model the buyer rejects and
         both cut positions fall outside the ellipsoid (no-op), so the
         probe only costs the round's sale; an acceptance proves the
         market value sits above the set — upward drift, or a set that
         heavy-tailed exploration noise carved too low — and feeds the
         drift statistic in [observe].  The ε/4 gap keeps the probe
         sensitive to biases well below the exploration threshold
         while staying clear of the p̄ + δ model boundary. *)
      Post
        { price = Float.max q (upper +. delta +. (0.25 *. epsilon));
          kind = Exploratory; lower; upper }
    else
      (* The robust variant shades the conservative floor by the
         current adaptive discount: under valuation noise whose lower
         tail outruns the sub-Gaussian δ, the floor itself draws
         rejections that each forfeit a whole sale, and trading a
         slightly lower price for a much higher sell-through is the
         distribution-free play.  [shade] stays 0 on a stream matching
         the model (see [robust_observe]). *)
      let shade =
        match t.robust with Some rs -> rs.shade | None -> 0.
      in
      Post
        { price = Float.max q (lower -. delta -. shade); kind = Conservative;
          lower; upper }

(* Cross-tenant batch serving.  The context hoists everything that is
   per-fleet rather than per-round: the transposed projection the
   blocked batch kernel streams, and the gather/scatter panels (sized
   to the batch on first use, re-sized only when the batch size
   changes, so a steady-state flush allocates nothing). *)
type batch = {
  bpt : (Dm_linalg.Mat.t * Dm_linalg.Mat.t) option;
      (* projected fleet: the shared P (compared physically against
         each served mechanism) and its transpose; None = dense fleet *)
  mutable xs_panel : Dm_linalg.Mat.t;  (* B×n gather panel *)
  mutable u_panel : Dm_linalg.Mat.t;  (* B×k projected panel *)
}

let batch t =
  match t.proj with
  | None ->
      {
        bpt = None;
        xs_panel = Dm_linalg.Mat.zeros 0 0;
        u_panel = Dm_linalg.Mat.zeros 0 0;
      }
  | Some (p, _) ->
      {
        bpt = Some (p, Dm_linalg.Mat.transpose p);
        xs_panel = Dm_linalg.Mat.zeros 0 (Dm_linalg.Mat.cols p);
        u_panel = Dm_linalg.Mat.zeros 0 (Dm_linalg.Mat.rows p);
      }

let decide_batch ctx mechs ~xs ~reserves =
  let b = Array.length mechs in
  if b = 0 then invalid_arg "Mechanism.decide_batch: empty batch";
  if Array.length xs <> b || Array.length reserves <> b then
    invalid_arg "Mechanism.decide_batch: batch length mismatch";
  (* Each mechanism may appear at most once per batch: projections are
     state-independent, but a repeated mechanism would have its second
     decision computed against pre-observe state — not what a B=1
     interleaving of decide/observe rounds produces. *)
  for i = 0 to b - 1 do
    for j = i + 1 to b - 1 do
      if mechs.(i) == mechs.(j) then
        invalid_arg "Mechanism.decide_batch: duplicate mechanism in batch"
    done
  done;
  match ctx.bpt with
  | None ->
      Array.iter
        (fun m ->
          match m.proj with
          | Some _ ->
              invalid_arg
                "Mechanism.decide_batch: dense context serving a projected \
                 mechanism"
          | None -> ())
        mechs;
      Array.init b (fun i -> decide mechs.(i) ~x:xs.(i) ~reserve:reserves.(i))
  | Some (p, pt) ->
      Array.iter
        (fun m ->
          match m.proj with
          | Some (p', _) when p' == p -> ()
          | _ ->
              invalid_arg
                "Mechanism.decide_batch: mechanism does not share the batch \
                 projection")
        mechs;
      if Dm_linalg.Mat.rows ctx.xs_panel <> b then begin
        ctx.xs_panel <-
          Dm_linalg.Mat.zeros b (Dm_linalg.Mat.cols ctx.xs_panel);
        ctx.u_panel <- Dm_linalg.Mat.zeros b (Dm_linalg.Mat.cols ctx.u_panel)
      end;
      ignore (Dm_linalg.Mat.pack_rows ~into:ctx.xs_panel xs);
      ignore (Dm_linalg.Mat.project_batch ~into:ctx.u_panel ~pt ctx.xs_panel);
      Array.init b (fun i ->
          let m = mechs.(i) in
          (* Seed the projection memo from the panel row, then run the
             ordinary per-request decide: [project_feature] hits the
             memo, so the decision takes the rank-k path with the
             batch-computed (bit-identical) projection. *)
          Dm_linalg.Mat.unpack_row ctx.u_panel i ~into:m.u_buf;
          m.memo_x <- xs.(i);
          m.memo_u <- m.u_buf;
          match decide m ~x:xs.(i) ~reserve:reserves.(i) with
          | d -> d
          | exception e ->
              (* never leave a memo seeded from an input [decide]
                 rejected *)
              m.memo_x <- no_memo;
              raise e)

(* Re-inflate the knowledge set: a fresh ball of radius [radius] at
   the current center, clipped to ‖c‖ ≤ reinflate_radius/2 so a
   full-radius restart is guaranteed to recapture any θ* with
   ‖θ*‖ ≤ reinflate_radius/2 wherever the stale set wandered —
   callers tracking ‖θ*‖ ≤ R pass [reinflate_radius = 2R]. *)
let robust_restart t rs ~radius =
  let r = rs.rcfg.reinflate_radius in
  let c = t.ell.Ellipsoid.center in
  let nrm = Dm_linalg.Vec.norm2 c in
  let center =
    if nrm <= r /. 2. then Array.copy c
    else Dm_linalg.Vec.scale (r /. 2. /. nrm) c
  in
  let shape =
    Dm_linalg.Mat.scaled_identity (Ellipsoid.dim t.ell) (radius *. radius)
  in
  t.ell <- Ellipsoid.make ~center ~shape;
  t.spare <- None;
  t.spare_center <- None;
  t.exposed <- false;
  t.memo_x <- no_memo;
  t.memo_u <- no_memo;
  rs.since_explore <- 0;
  rs.recent <- 0;
  rs.filled <- 0;
  rs.probe_streak <- 0;
  rs.shade <- 0.;
  rs.restarts <- rs.restarts + 1

(* The drift statistic: a posted round contradicts the knowledge set
   when the response lands outside what any θ in the set could produce
   under |noise| ≤ δ — an acceptance at or above p̄+δ (the probe), or a
   rejection at or below p̲−δ (the conservative floor).  Enough
   contradictions inside the sliding window trigger a restart. *)
let robust_observe t rs ~kind ~accepted ~price ~lower ~upper =
  (match kind with
  | Exploratory -> rs.since_explore <- 0
  | Conservative -> rs.since_explore <- rs.since_explore + 1);
  let delta = effective_delta t in
  let is_probe = price >= upper +. delta in
  let at_floor = price <= lower -. delta in
  let contradiction = (accepted && is_probe) || ((not accepted) && at_floor) in
  if is_probe then
    rs.probe_streak <- (if accepted then rs.probe_streak + 1 else 0);
  (* Adapt the floor shading from floor-round outcomes only (a price
     dominated by the reserve says nothing about the floor).  The
     asymmetric steps put the equilibrium rejection rate near
     down/(up+down) ≈ 6%: on a model-matching stream floor rejections
     are (T-horizon-)rare and the shade decays to 0, while a heavy
     lower tail walks it up until rejections are rare again. *)
  (match kind with
  | Conservative when at_floor ->
      let epsilon = t.cfg.epsilon in
      rs.shade <-
        (if accepted then Float.max 0. (rs.shade -. (epsilon /. 256.))
         else Float.min epsilon (rs.shade +. (epsilon /. 16.)))
  | Conservative | Exploratory -> ());
  let mask = (1 lsl rs.rcfg.drift_window) - 1 in
  rs.recent <- ((rs.recent lsl 1) lor Bool.to_int contradiction) land mask;
  rs.filled <- min rs.rcfg.drift_window (rs.filled + 1);
  (* Two restart tiers, picked by what the evidence proves.  A window
     full of floor rejections means the set is globally stale (a
     regime switch can move θ* anywhere) — re-inflate to the full
     configured radius.  A probe streak only proves the market value
     sits a fraction of ε {e above} the set: the truth is nearby, so a
     small ball around the current center relearns it in a handful of
     cheap near-truth cuts instead of a full exploration phase.  If
     the small ball still misses, the probes fire again and the next
     soft restart recenters closer — and a badly stale set falls back
     to the rejection window anyway. *)
  let r = rs.rcfg.reinflate_radius in
  if popcount rs.recent >= rs.rcfg.drift_trigger then
    robust_restart t rs ~radius:r
  else if rs.probe_streak >= probe_streak_trigger then
    robust_restart t rs
      ~radius:(Float.min r (Float.max (8. *. t.cfg.epsilon) (r /. 4.)))

let observe t ~x decision ~accepted =
  let { allow_conservative_cuts; _ } = t.cfg in
  let delta = effective_delta t in
  match decision with
  | Skip -> t.skipped <- t.skipped + 1
  | Post { price; kind; lower; upper } ->
      let cuts =
        match kind with
        | Exploratory ->
            t.exploratory <- t.exploratory + 1;
            true
        | Conservative ->
            t.conservative <- t.conservative + 1;
            allow_conservative_cuts
      in
      if cuts then begin
        (* Ping-pong the shape and center buffer pairs: the outgoing
           ellipsoid's matrix and center become the next cut's
           destinations — unless a caller holds a reference to them
           (see [ellipsoid]), in which case the cut allocates fresh and
           the exposed buffers are dropped.  The transient scratch
           ([b_buf], [neg_buf]) is never retained by a cut, so it is
           recycled unconditionally.  The in-place sparse path
           ([mutate]) may instead consume the current shape buffer
           outright; it is only permitted while no caller can observe
           the mutation. *)
        let into = if t.exposed then None else t.spare in
        let center_into = if t.exposed then None else t.spare_center in
        let mutate = t.cfg.sparse_cuts && not t.exposed in
        let u = project_feature t x in
        let result =
          if accepted then
            (* p ≤ v = φ(x)ᵀθ* + δ_t  ⇒  φ(x)ᵀθ* ≥ p − δ *)
            Ellipsoid.cut_above ?into ~b_into:t.b_buf ?center_into
              ~neg_into:t.neg_buf ~mutate t.ell ~x:u ~price:(price -. delta)
          else
            (* p > v  ⇒  φ(x)ᵀθ* ≤ p + δ *)
            Ellipsoid.cut_below ?into ~b_into:t.b_buf ?center_into ~mutate t.ell
              ~x:u ~price:(price +. delta)
        in
        match result with
        | Ellipsoid.Cut ell' ->
            if ell'.Ellipsoid.shape == t.ell.Ellipsoid.shape then begin
              (* Sparse in-place cut: the shape buffer carried over, so
                 the spare/exposed bookkeeping is untouched — but the
                 center is a fresh copy, so the old one retires.  The
                 sparse path never runs while [exposed]. *)
              t.spare_center <- Some t.ell.Ellipsoid.center;
              t.ell <- ell'
            end
            else begin
              t.spare <-
                (if t.exposed then None else Some t.ell.Ellipsoid.shape);
              t.spare_center <-
                (if t.exposed then None else Some t.ell.Ellipsoid.center);
              t.exposed <- false;
              t.ell <- ell'
            end
        | Ellipsoid.Too_shallow | Ellipsoid.Empty -> ()
      end;
      (match t.robust with
      | Some rs -> robust_observe t rs ~kind ~accepted ~price ~lower ~upper
      | None -> ())

let step t ~x ~reserve ~market_index =
  let decision = decide t ~x ~reserve in
  let accepted =
    match decision with
    | Skip -> false
    | Post { price; _ } -> price <= market_index
  in
  observe t ~x decision ~accepted;
  (decision, accepted)

let exploratory_rounds t = t.exploratory

let conservative_rounds t = t.conservative

let skipped_rounds t = t.skipped

let binary_magic = "dm-mech3"

let binary_magic_v4 = "dm-mech4"

let binary_magic_v5 = "dm-mech5"

(* Same ceiling as the binary ellipsoid codec: a forged dimension must
   not trigger a huge allocation before the length check. *)
let max_proj_dim = 1 lsl 20

let snapshot_binary t =
  let buf =
    Buffer.create (64 + (8 * Ellipsoid.dim t.ell * (Ellipsoid.dim t.ell + 1)))
  in
  Buffer.add_string buf
    (match (t.robust, t.proj) with
    | Some _, _ -> binary_magic_v5
    | None, None -> binary_magic
    | None, Some _ -> binary_magic_v4);
  Serial.add_u8 buf (Bool.to_int t.cfg.variant.use_reserve);
  Serial.add_f64 buf t.cfg.variant.delta;
  Serial.add_u8 buf (Bool.to_int t.cfg.allow_conservative_cuts);
  Serial.add_u8 buf (Bool.to_int t.cfg.sparse_cuts);
  Serial.add_f64 buf t.cfg.epsilon;
  Serial.add_u64 buf t.exploratory;
  Serial.add_u64 buf t.conservative;
  Serial.add_u64 buf t.skipped;
  (match t.robust with
  | None -> ()
  | Some rs ->
      Serial.add_u32 buf rs.rcfg.explore_every;
      Serial.add_u32 buf rs.rcfg.drift_window;
      Serial.add_u32 buf rs.rcfg.drift_trigger;
      Serial.add_f64 buf rs.rcfg.reinflate_radius;
      Serial.add_u64 buf rs.since_explore;
      Serial.add_u64 buf rs.recent;
      Serial.add_u32 buf rs.filled;
      Serial.add_u32 buf rs.probe_streak;
      Serial.add_f64 buf rs.shade;
      Serial.add_u64 buf rs.restarts);
  (match t.proj with
  | None -> ()
  | Some (p, err) ->
      Serial.add_u32 buf (Dm_linalg.Mat.rows p);
      Serial.add_u32 buf (Dm_linalg.Mat.cols p);
      Serial.add_f64 buf err;
      Array.iter (Serial.add_f64 buf) p.Dm_linalg.Mat.data);
  Buffer.add_string buf (Ellipsoid.serialize_binary t.ell);
  Buffer.contents buf

(* Every [restore] error is prefixed "Mechanism.restore: " and names
   the absolute byte offset of the offending field, so corrupt-snapshot
   reports surfaced by crash recovery are actionable without
   hexdumping the file. *)
let fail fmt = Printf.ksprintf (fun m -> Error ("Mechanism.restore: " ^ m)) fmt

exception Restore_failure of string

(* Robust-block validation; the error message is unprefixed so the
   caller can name the byte offset. *)
let robust_state_of_fields ~explore_every ~drift_window ~drift_trigger
    ~reinflate_radius ~since_explore ~recent ~filled ~probe_streak ~shade
    ~restarts =
  match
    robust_config ~drift_window ~drift_trigger ~explore_every
      ~reinflate_radius ()
  with
  | exception Invalid_argument msg -> Error msg
  | rcfg ->
      if since_explore < 0 then Error "negative since_explore"
      else if recent < 0 || recent land lnot ((1 lsl drift_window) - 1) <> 0
      then Error "contradiction bits outside the drift window"
      else if filled < 0 || filled > drift_window then
        Error "window fill outside [0, drift_window]"
      else if probe_streak < 0 || probe_streak >= probe_streak_trigger then
        Error "probe streak outside [0, probe_streak_trigger)"
      else if not (Float.is_finite shade) || shade < 0. then
        Error "shade must be finite and non-negative"
      else if restarts < 0 then Error "negative restart counter"
      else
        Ok { rcfg; since_explore; recent; filled; probe_streak; shade; restarts }

(* Final assembly: validate the config, match the projection rank
   against the ellipsoid dimension, build the mechanism. *)
let assemble ~use_reserve ~delta ~allow ~sparse_cuts ~epsilon ~proj ~robust ~ell
    ~exploratory ~conservative ~skipped =
  match proj with
  | Some (p, _) when Ellipsoid.dim ell <> Dm_linalg.Mat.rows p ->
      fail "ellipsoid dim %d does not match projection rank %d"
        (Ellipsoid.dim ell) (Dm_linalg.Mat.rows p)
  | _ -> (
      match
        config ~allow_conservative_cuts:allow ~sparse_cuts
          ~variant:{ use_reserve; delta } ~epsilon ()
      with
      | exception Invalid_argument msg -> fail "%s" msg
      | cfg ->
          let d = Ellipsoid.dim ell in
          Ok
            {
              cfg;
              robust;
              proj;
              ell;
              exploratory;
              conservative;
              skipped;
              spare = None;
              spare_center = None;
              exposed = false;
              u_buf =
                (match proj with
                | Some _ -> Dm_linalg.Vec.zeros d
                | None -> no_memo);
              b_buf = Dm_linalg.Vec.zeros d;
              neg_buf = Dm_linalg.Vec.zeros d;
              memo_x = no_memo;
              memo_u = no_memo;
            })

let restore_binary ~projected ~robust img =
  let failf fmt = Printf.ksprintf (fun m -> raise (Restore_failure m)) fmt in
  let r = Serial.reader ~pos:(String.length binary_magic) img in
  let flag what =
    let off = r.Serial.pos in
    match Serial.take_u8 r with
    | 0 -> false
    | 1 -> true
    | b -> failf "byte %d: bad %s flag (%d)" off what b
  in
  try
    let use_reserve = flag "use_reserve" in
    let delta = Serial.take_f64 r in
    let allow = flag "allow_conservative_cuts" in
    let sparse_cuts = flag "sparse_cuts" in
    let epsilon = Serial.take_f64 r in
    let exploratory = Serial.take_u64 r in
    let conservative = Serial.take_u64 r in
    let skipped = Serial.take_u64 r in
    let robust =
      if not robust then None
      else begin
        let off = r.Serial.pos in
        let explore_every = Serial.take_u32 r in
        let drift_window = Serial.take_u32 r in
        let drift_trigger = Serial.take_u32 r in
        let reinflate_radius = Serial.take_f64 r in
        let since_explore = Serial.take_u64 r in
        let recent = Serial.take_u64 r in
        let filled = Serial.take_u32 r in
        let probe_streak = Serial.take_u32 r in
        let shade = Serial.take_f64 r in
        let restarts = Serial.take_u64 r in
        match
          robust_state_of_fields ~explore_every ~drift_window ~drift_trigger
            ~reinflate_radius ~since_explore ~recent ~filled ~probe_streak
            ~shade ~restarts
        with
        | Ok rs -> Some rs
        | Error msg -> failf "byte %d: %s" off msg
      end
    in
    let proj =
      if not projected then None
      else begin
        let off = r.Serial.pos in
        let rows = Serial.take_u32 r in
        let cols = Serial.take_u32 r in
        if rows < 1 || rows > max_proj_dim then
          failf "byte %d: bad projection rank (%d)" off rows;
        if cols < 1 || cols > max_proj_dim then
          failf "byte %d: bad projection dim (%d)" off cols;
        let erroff = r.Serial.pos in
        let err = Serial.take_f64 r in
        if not (err >= 0.) || err = infinity then
          failf "byte %d: projection error bound must be finite and \
                 non-negative"
            erroff;
        if Serial.remaining r < 8 * rows * cols then
          raise (Serial.Short r.Serial.pos);
        let dataoff = r.Serial.pos in
        (* [Mat.init] fills row-major ascending, matching the writer. *)
        let p = Dm_linalg.Mat.init rows cols (fun _ _ -> Serial.take_f64 r) in
        if not (Array.for_all Float.is_finite p.Dm_linalg.Mat.data) then
          failf "byte %d: non-finite projection entry" dataoff;
        Some (p, err)
      end
    in
    match Ellipsoid.deserialize_binary ~pos:r.Serial.pos img with
    | Error msg -> fail "ellipsoid: %s" msg
    | Ok ell ->
        assemble ~use_reserve ~delta ~allow ~sparse_cuts ~epsilon ~proj
          ~robust ~ell ~exploratory ~conservative ~skipped
  with
  | Restore_failure m -> Error ("Mechanism.restore: " ^ m)
  | Serial.Short off -> fail "truncated at byte %d" off

let restore img =
  let starts_with magic =
    let m = String.length magic in
    String.length img >= m && String.sub img 0 m = magic
  in
  if starts_with binary_magic then
    restore_binary ~projected:false ~robust:false img
  else if starts_with binary_magic_v4 then
    restore_binary ~projected:true ~robust:false img
  else if starts_with binary_magic_v5 then
    restore_binary ~projected:false ~robust:true img
  else
    fail "byte 0: unknown magic (want %s, %s or %s)" binary_magic
      binary_magic_v4 binary_magic_v5

let te_upper_bound ~radius ~feature_bound ~dim ~epsilon =
  if
    (not (radius > 0.))
    || (not (feature_bound > 0.))
    || dim < 1
    || not (epsilon > 0.)
  then
    invalid_arg "Mechanism.te_upper_bound: invalid parameters";
  let n = float_of_int dim in
  20. *. n *. n
  *. log (20. *. radius *. feature_bound *. feature_bound *. (n +. 1.) /. epsilon)
