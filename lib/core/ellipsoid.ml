module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Chol = Dm_linalg.Chol
module Eigen = Dm_linalg.Eigen
module Serial = Dm_linalg.Serial

type t = {
  dim : int;
  center : Vec.t;
  shape : Mat.t;
  scale : float;
  mutable log_vol : float;
  mutable cuts_since_sync : int;
}

(* [log_vol] caches ½·log det A; NaN means "not yet computed" so that
   [make] (and deserialization) stay O(n²) — the O(n³) Cholesky runs
   lazily on the first [log_volume_factor] read.  Each cut advances the
   cache by a closed-form O(1) delta; after [resync_interval] deltas a
   read triggers a full recomputation to bound float drift.

   The true shape is A = scale·M with M in [shape].  Dense cut paths
   fold the Löwner–John [factor] into M and leave [scale] untouched, so
   any ellipsoid that never takes the sparse fast path has
   [scale = 1.] exactly and every formula below degenerates to the
   plain dense arithmetic bit-for-bit ([1.0 *. x], [x /. 1.0] and
   [sqrt 1.0 = 1.0] are all IEEE-exact).  The sparse fast path instead
   multiplies [scale] in O(1) and rank-one-updates only M's
   support × support block; [fold_scale] periodically folds the scalar
   back into M to bound its drift and dynamic range. *)
let resync_interval = 1000

(* The sparse path folds [scale] back into M (an O(n²) pass, amortized
   over [resync_interval] cuts by riding the same counter as the
   volume-cache resync) whenever the scalar leaves this range or the
   cut count crosses a resync boundary. *)
let scale_floor = 1e-9

let scale_ceil = 1e9

(* Below this dimension [bounds] skips the sparse-view attempt: the
   nonzero scan plus gather costs more than the O(n²) quadratic form
   it would save (measured: the ~20-dim fig5c dense-support round
   slows ~60% with the scan, while at n ≥ 64 the sparse form wins by
   orders of magnitude).  [cut_below]'s mutate path is not gated — a
   cut is O(n²) either way, so the scan there is noise. *)
let sparse_bounds_floor = 64

let make ~center ~shape =
  let n = Vec.dim center in
  let r, c = Mat.dims shape in
  if r <> n || c <> n then invalid_arg "Ellipsoid.make: dimension mismatch";
  if n < 1 then invalid_arg "Ellipsoid.make: empty dimension";
  for i = 0 to n - 1 do
    if not (Float.is_finite center.(i)) then
      invalid_arg "Ellipsoid.make: non-finite center entry"
  done;
  (* Symmetry is exact, not approximate: the sparse cut reads M·x as
     Mᵀ·x, which has M·x's bits only while M(i, j) and M(j, i) agree
     bit for bit (a ±0 pair counts as equal, which both kernels absorb
     exactly).  [ball] starts symmetric and both rank-one kernels and
     the scale fold keep it so.  The same pass refuses non-finite
     entries: a NaN answers false to every comparison, so it would
     pass the symmetry and diagonal tests. *)
  let data = shape.Mat.data in
  for i = 0 to n - 1 do
    let d = data.((i * n) + i) in
    if not (Float.is_finite d) then
      invalid_arg "Ellipsoid.make: non-finite shape entry";
    if not (d > 0.) then
      invalid_arg "Ellipsoid.make: shape has a non-positive diagonal";
    for j = i + 1 to n - 1 do
      let a = data.((i * n) + j) and b = data.((j * n) + i) in
      if not (Float.is_finite a && Float.is_finite b) then
        invalid_arg "Ellipsoid.make: non-finite shape entry";
      if a <> b then invalid_arg "Ellipsoid.make: shape not symmetric"
    done
  done;
  { dim = n; center; shape; scale = 1.; log_vol = Float.nan; cuts_since_sync = 0 }

let ball ~dim ~radius =
  if not (radius > 0.) then
    invalid_arg "Ellipsoid.ball: radius must be positive";
  let t =
    make ~center:(Vec.zeros dim)
      ~shape:(Mat.scaled_identity dim (radius *. radius))
  in
  (* ½·log det(r²·I) = dim·log r, exactly, in O(n). *)
  t.log_vol <- float_of_int dim *. log radius;
  t

let of_box ~lo ~hi =
  let n = Vec.dim lo in
  if Vec.dim hi <> n then invalid_arg "Ellipsoid.of_box: dimension mismatch";
  let r2 = ref 0. in
  for i = 0 to n - 1 do
    if not (lo.(i) <= hi.(i)) then
      invalid_arg "Ellipsoid.of_box: empty box or NaN bound";
    r2 := !r2 +. Float.max (lo.(i) *. lo.(i)) (hi.(i) *. hi.(i))
  done;
  if not (!r2 > 0.) then invalid_arg "Ellipsoid.of_box: degenerate box";
  ball ~dim:n ~radius:(sqrt !r2)

let dim t = t.dim

let scale t = t.scale

type bounds = { lower : float; upper : float; mid : float; half_width : float }

let bounds t ~x =
  if Vec.dim x <> t.dim then invalid_arg "Ellipsoid.bounds: dimension mismatch";
  (* xᵀAx = scale·(xᵀMx); the gathered quadratic form is bit-identical
     to the dense one, so sparse streams get the O(nnz²) kernel with no
     observable difference.  The same view reads xᵀc in O(nnz), as
     [cut_below_sparse] does: it equals [Vec.dot] bit for bit while the
     center is finite, which [make] checks. *)
  let sx =
    if t.dim >= sparse_bounds_floor then Vec.Sparse.of_dense x else None
  in
  let qm =
    match sx with
    | Some sx -> Mat.quad_sparse t.shape sx
    | None -> Mat.quad t.shape x
  in
  let q = t.scale *. qm in
  let half_width = if q <= 0. then 0. else sqrt q in
  let mid =
    match sx with
    | Some sx -> Vec.Sparse.dot_dense sx t.center
    | None -> Vec.dot x t.center
  in
  { lower = mid -. half_width; upper = mid +. half_width; mid; half_width }

let width t ~x = 2. *. (bounds t ~x).half_width

let contains ?(slack = 1e-9) t point =
  if Vec.dim point <> t.dim then
    invalid_arg "Ellipsoid.contains: dimension mismatch";
  let d = Vec.sub point t.center in
  match Chol.solve t.shape d with
  | y -> Vec.dot d y /. t.scale <= 1. +. slack
  | exception Chol.Not_positive_definite _ -> false

type cut_result = Cut of t | Too_shallow | Empty

(* The new center is retained by the returned ellipsoid: [center_into]
   transfers ownership of the buffer, so the caller must ping-pong two
   buffers (and stop recycling any that escaped).  Both cut paths call
   this only once the cut is certain, so a [Too_shallow] or [Empty]
   exit never writes it. *)
let new_center ?center_into t ~b =
  match center_into with
  | None -> Vec.copy t.center
  | Some c ->
      if Array.length c <> t.dim then
        invalid_arg "Ellipsoid.cut_below: center_into dimension mismatch";
      if c == t.center then
        invalid_arg "Ellipsoid.cut_below: center_into aliases the center";
      if c == b then
        invalid_arg "Ellipsoid.cut_below: center_into aliases b_into";
      Array.blit t.center 0 c 0 t.dim;
      c

let check_b_into ~x b =
  if b == x then
    invalid_arg "Ellipsoid.cut_below: b_into aliases the direction"

(* Deep/central/shallow cut keeping {θ | xᵀθ ≤ price}, following
   Grötschel–Lovász–Schrijver (the paper's Lines 14–21).  Valid for
   α ∈ (−1/n, 1); α ≤ −1/n cannot shrink the ellipsoid and α ≥ 1
   leaves (at most) a single point.

   The shape update A' = factor·(A − β·b·bᵀ) runs as one fused
   streaming pass ({!Mat.rank_one_rescale}), optionally into a
   caller-supplied buffer.  Because b = A·x/√(xᵀAx) satisfies
   bᵀA⁻¹b = 1, the determinant has the closed form
   det A' = factorⁿ·(1−β)·det A, giving an O(1) delta for the cached
   ½·log det (n = 1 contributes log((1−α)/2)).

   In the scalar-scaled representation A = s·M the same update reads
   A' = (factor·s)·(M − β·b̃·b̃ᵀ) with b̃ = M·x/√(xᵀMx) = b/√s: the
   factor multiplies the scalar in O(1) and the rank-one part touches
   only the support × support block of b̃ — the sparse fast path below,
   taken when the caller permits in-place mutation ([mutate]) and the
   cut direction is sparse enough to pay. *)
let cut_below_dense ?into ?b_into ?center_into t ~x ~price =
  (* M·x first, then xᵀMx read from it: Σ over xᵢ ≠ 0 of xᵢ·(M·x)ᵢ in
     ascending i is the pooled [Mat.quad]'s reduction, bit-identical to
     [bounds]'s quadratic form, so one O(n²) pass serves both.  The
     scratch buffer, when given, holds a transient the caller may
     recycle every cut: [b] is consumed by the rank-one update below
     and never retained by the returned ellipsoid. *)
  let b =
    match b_into with
    | None -> Mat.matvec t.shape x
    | Some b ->
        check_b_into ~x b;
        Mat.matvec ~into:b t.shape x
  in
  let qm = ref 0. in
  for i = 0 to t.dim - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then qm := !qm +. (xi *. Array.unsafe_get b i)
  done;
  let q = t.scale *. !qm in
  if q <= 0. then Too_shallow
  else begin
    let half_width = sqrt q in
    let mid = Vec.dot x t.center in
    let n = float_of_int t.dim in
    let alpha = (mid -. price) /. half_width in
    if alpha >= 1. then Empty
    else if alpha <= -1. /. n then Too_shallow
    else begin
      (* b = A·x / √(xᵀAx) = scale·(M·x) / √(xᵀAx). *)
      Vec.scale_inplace (t.scale /. half_width) b;
      let center = new_center ?center_into t ~b in
      Vec.axpy (-.(1. +. (n *. alpha)) /. (n +. 1.)) b center;
      let shape, dlog =
        if t.dim = 1 then begin
          (* Interval arithmetic: the kept interval has half-width
             r·(1−α)/2, so A scales by ((1−α)/2)². *)
          let f = (1. -. alpha) /. 2. in
          (Mat.rank_one_rescale ?into t.shape ~beta:0. ~b ~factor:(f *. f), log f)
        end
        else begin
          let beta =
            2. *. (1. +. (n *. alpha)) /. ((n +. 1.) *. (1. +. alpha))
          in
          let factor = n *. n *. (1. -. (alpha *. alpha)) /. ((n *. n) -. 1.) in
          (* Folding factor·(A − β·b·bᵀ) into M at fixed scale divides
             the rank-one coefficient by scale: M' = factor·(M − (β/s)·b·bᵀ). *)
          ( Mat.rank_one_rescale ?into t.shape
              ~beta:(-.(beta /. t.scale))
              ~b ~factor,
            0.5 *. ((n *. log factor) +. log1p (-.beta)) )
        end
      in
      Cut
        {
          t with
          center;
          shape;
          log_vol = t.log_vol +. dlog;
          cuts_since_sync = t.cuts_since_sync + 1;
        }
    end
  end

let cut_below_sparse ?b_into ?center_into t ~x ~sx ~price =
  (* M·x computed as Mᵀ·x: M is bit-exactly symmetric (see [make]), so
     streaming the nnz contiguous rows of the support yields M·x's bits
     while reading O(nnz·n) adjacent entries, where gathering nnz
     scattered columns from every row touches every page of M.  [m] is
     the caller's scratch when given — a transient, like the dense
     path's [b]. *)
  let m =
    match b_into with
    | None -> Mat.matvec_t t.shape x
    | Some b ->
        check_b_into ~x b;
        Mat.matvec_t ~into:b t.shape x
  in
  (* xᵀMx as matvec-then-dot — the same reduction order as the pooled
     quadratic form, O(nnz) extra on top of the matvec we need anyway. *)
  let qm = Vec.Sparse.dot_dense sx m in
  let q = t.scale *. qm in
  if q <= 0. then Too_shallow
  else begin
    let half_width = sqrt q in
    let mid = Vec.Sparse.dot_dense sx t.center in
    let n = float_of_int t.dim in
    let alpha = (mid -. price) /. half_width in
    if alpha >= 1. then Empty
    else if alpha <= -1. /. n then Too_shallow
    else begin
      let beta = 2. *. (1. +. (n *. alpha)) /. ((n +. 1.) *. (1. +. alpha)) in
      let factor = n *. n *. (1. -. (alpha *. alpha)) /. ((n *. n) -. 1.) in
      (* b̃ = M·x / √(xᵀMx), scaled where M·x landed; the A-space
         direction is b = √scale·b̃. *)
      Vec.scale_inplace (1. /. sqrt qm) m;
      let btilde = m in
      let center = new_center ?center_into t ~b:btilde in
      Vec.axpy
        (-.(1. +. (n *. alpha)) /. (n +. 1.) *. sqrt t.scale)
        btilde center;
      let sb = Vec.Sparse.gather btilde in
      let scale' =
        Mat.rank_one_rescale_sparse t.shape ~beta:(-.beta) ~b:sb ~factor
          ~scale:t.scale
      in
      let dlog = 0.5 *. ((n *. log factor) +. log1p (-.beta)) in
      let cuts = t.cuts_since_sync + 1 in
      let scale' =
        if
          scale' < scale_floor || scale' > scale_ceil
          || cuts mod resync_interval = 0
        then begin
          Mat.scale_inplace scale' t.shape;
          1.
        end
        else scale'
      in
      Cut
        {
          t with
          center;
          scale = scale';
          log_vol = t.log_vol +. dlog;
          cuts_since_sync = cuts;
        }
    end
  end

let cut_below ?into ?b_into ?center_into ?(mutate = false) t ~x ~price =
  if Vec.dim x <> t.dim then
    invalid_arg "Ellipsoid.cut_below: dimension mismatch";
  match if mutate && t.dim > 1 then Vec.Sparse.of_dense x else None with
  | Some sx -> cut_below_sparse ?b_into ?center_into t ~x ~sx ~price
  | None -> cut_below_dense ?into ?b_into ?center_into t ~x ~price

let cut_above ?into ?b_into ?center_into ?neg_into ?mutate t ~x ~price =
  (* [-1. *. xᵢ] is exactly [Vec.neg], so the scratch path posts the
     same direction bits as the allocating one. *)
  let nx =
    match neg_into with
    | None -> Vec.neg x
    | Some nx ->
        if Array.length nx <> Array.length x then
          invalid_arg "Ellipsoid.cut_above: neg_into dimension mismatch";
        if nx == x then
          invalid_arg "Ellipsoid.cut_above: neg_into aliases the direction";
        for i = 0 to Array.length x - 1 do
          Array.unsafe_set nx i (-1. *. Array.unsafe_get x i)
        done;
        nx
  in
  cut_below ?into ?b_into ?center_into ?mutate t ~x:nx ~price:(-.price)

let apply t = function Cut t' -> t' | Too_shallow | Empty -> t

let alpha t ~x ~price =
  let { mid; half_width; _ } = bounds t ~x in
  if half_width <= 0. then invalid_arg "Ellipsoid.alpha: degenerate direction";
  (mid -. price) /. half_width

(* ½·log det A = ½·log det M + (n/2)·log scale; the scale term is only
   added when scale ≠ 1 so pure-dense histories reproduce the old
   bits exactly. *)
let half_log_det t =
  let lv = 0.5 *. Chol.log_det t.shape in
  if t.scale = 1. then lv
  else lv +. (0.5 *. float_of_int t.dim *. log t.scale)

let log_volume_factor t =
  if Float.is_nan t.log_vol || t.cuts_since_sync >= resync_interval then begin
    t.log_vol <- half_log_det t;
    t.cuts_since_sync <- 0
  end;
  t.log_vol

let volume_drift t =
  if Float.is_nan t.log_vol then 0.
  else abs_float (t.log_vol -. half_log_det t)

let axis_widths t =
  Vec.map
    (fun l -> sqrt (Float.max 0. (t.scale *. l)))
    (Eigen.eigenvalues t.shape)

let binary_magic = "dm-ell/3"

let serialize_binary t =
  let buf = Buffer.create (40 + (8 * t.dim * (t.dim + 1))) in
  Buffer.add_string buf binary_magic;
  Serial.add_u32 buf t.dim;
  Serial.add_f64 buf t.scale;
  Serial.add_u32 buf t.cuts_since_sync;
  (* The raw bit pattern, so the NaN "cache unset" sentinel survives. *)
  Serial.add_f64 buf t.log_vol;
  Array.iter (Serial.add_f64 buf) t.center;
  Array.iter (Serial.add_f64 buf) t.shape.Mat.data;
  Buffer.contents buf

(* A u32 dimension larger than this would overflow [dim * dim * 8]
   allocations; no real snapshot comes close. *)
let max_binary_dim = 1 lsl 20

let deserialize_binary ?(pos = 0) s =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let r = Serial.reader ~pos s in
  try
    if not (Serial.expect r binary_magic) then
      fail "byte %d: bad magic (want %s)" pos binary_magic
    else
      let at = r.Serial.pos in
      let dim = Serial.take_u32 r in
      if dim < 1 then fail "byte %d: non-positive dimension" at
      else if dim > max_binary_dim then fail "byte %d: implausible dimension" at
      else
        let at = r.Serial.pos in
        let scale = Serial.take_f64 r in
        if not (Float.is_finite scale && scale > 0.) then
          fail "byte %d: non-finite or non-positive scale" at
        else
          let cuts_since_sync = Serial.take_u32 r in
          let at = r.Serial.pos in
          let log_vol = Serial.take_f64 r in
          (* Check the length before allocating: a forged [dim] must
             not buy a [dim²] array out of a short image. *)
          if Serial.remaining r < 8 * dim * (dim + 1) then
            raise (Serial.Short r.Serial.pos);
          if Float.is_finite log_vol || Float.is_nan log_vol then
            let read_row ~what n =
              let off = r.Serial.pos in
              let a = Array.init n (fun _ -> Serial.take_f64 r) in
              match Array.find_index (fun v -> not (Float.is_finite v)) a with
              | Some i ->
                  Error
                    (Printf.sprintf "byte %d: non-finite %s entry at index %d"
                       (off + (8 * i)) what i)
              | None -> Ok a
            in
            match read_row ~what:"center" dim with
            | Error _ as e -> e
            | Ok center -> (
                let shape_off = r.Serial.pos in
                match read_row ~what:"shape" (dim * dim) with
                | Error _ as e -> e
                | Ok flat -> (
                    let shape =
                      Mat.init dim dim (fun i j -> flat.((i * dim) + j))
                    in
                    match make ~center ~shape with
                    | e ->
                        e.log_vol <- log_vol;
                        e.cuts_since_sync <- cuts_since_sync;
                        Ok { e with scale }
                    | exception Invalid_argument msg ->
                        fail "byte %d (shape): %s" shape_off msg))
          else fail "byte %d: infinite log-volume cache" at
  with Serial.Short off -> fail "truncated at byte %d" off

let pp ppf t =
  if t.scale = 1. then
    Format.fprintf ppf "@[<v>ellipsoid dim=%d@,center=%a@,shape=@,%a@]" t.dim
      Vec.pp t.center Mat.pp t.shape
  else
    Format.fprintf ppf
      "@[<v>ellipsoid dim=%d@,center=%a@,scale=%.6g@,shape=@,%a@]" t.dim
      Vec.pp t.center t.scale Mat.pp t.shape
