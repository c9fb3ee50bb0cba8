type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.

let scaled_identity n a =
  let m = zeros n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- a
  done;
  m

let identity n = scaled_identity n 1.

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: no rows";
  let cols = Array.length a.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
    a;
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m =
  Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let diag_of_vec v =
  let n = Array.length v in
  let m = zeros n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- v.(i)
  done;
  m

let rows m = m.rows

let cols m = m.cols

let dims m = (m.rows, m.cols)

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let diag m =
  let n = min m.rows m.cols in
  Array.init n (fun i -> get m i i)

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let acc = ref 0. in
  for i = 0 to m.rows - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let elementwise name f a b =
  check_same name a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = elementwise "add" ( +. ) a b

let sub a b = elementwise "sub" ( -. ) a b

let scale a m = { m with data = Array.map (fun x -> a *. x) m.data }

let scale_inplace a m =
  let data = m.data in
  for k = 0 to Array.length data - 1 do
    Array.unsafe_set data k (a *. Array.unsafe_get data k)
  done

(* The kernels below use unsafe accesses: dimensions are validated up
   front and every index is a product/sum of loop bounds derived from
   them.  They are the pricing hot path (Sec. III-C1's O(n²) budget)
   and run 10⁵ times per experiment at n up to 1024.

   Determinism contract: every kernel computes each output element
   with a fixed reduction order that does not depend on how the work
   is scheduled, so the tiled/pooled paths below are bit-identical to
   their serial counterparts at any worker count.  Row tiles fan out
   over the default {!Pool} once the row count reaches
   [parallel_threshold]; below it (or with no pool installed, or from
   inside another pool task) the same loop runs inline. *)

let parallel_threshold = 512

let row_chunk = 64

(* Column-range chunk for the transposed kernels ([matvec_t],
   [project_t]): each task owns a disjoint slice of the output vector,
   wide enough that the per-row inner loops amortize the task-claim
   cost and the streamed row segments stay contiguous. *)
let col_chunk = 512

let over_range ~gate ~chunk n body =
  match Pool.get_default () with
  | Some p when gate && Pool.size p > 1 -> Pool.parallel_for p ~chunk n body
  | _ -> body 0 n

let over_rows n body =
  over_range ~gate:(n >= parallel_threshold) ~chunk:row_chunk n body

(* The dot-per-row kernels ([matvec], [project], [quad], [matmul_tt])
   run [row_block] rows per pass: each row keeps its own accumulator
   and the rows share one load of x[j].  A row still adds its terms
   one at a time, in ascending j, to its own accumulator — exactly the
   one-row loop's order — so blocking changes no bits.  It only
   interleaves independent add chains, where one row alone waits on
   the latency of every add before it.  Rows left over after the last
   full block run one at a time.  The blocked loops below are written
   out for exactly four rows. *)
let row_block = 4

(* Row-fan-out chunk for the tall-skinny kernels: with only k ≪ 512
   rows the standard [row_chunk] would put the whole matrix in one
   task, so shrink the chunk until roughly 16 tasks exist, rounded up
   to whole [row_block]s so that pooled tasks run the blocked loop
   too.  The chunk size never affects output bits — only which worker
   computes which rows. *)
let fan_chunk rows =
  let c = max 1 (min row_chunk ((rows + 15) / 16)) in
  (c + row_block - 1) / row_block * row_block

(* y[yo + r·ys] ← Σⱼ data[base + r·len + j]·x[xo + j], j ascending, for
   the four consecutive rows r = 0..3 of length [len]. *)
let dot4_into data base len x xo y yo ys =
  let b1 = base + len in
  let b2 = b1 + len in
  let b3 = b2 + len in
  let a0 = ref 0. in
  let a1 = ref 0. in
  let a2 = ref 0. in
  let a3 = ref 0. in
  for j = 0 to len - 1 do
    let xj = Array.unsafe_get x (xo + j) in
    a0 := !a0 +. (Array.unsafe_get data (base + j) *. xj);
    a1 := !a1 +. (Array.unsafe_get data (b1 + j) *. xj);
    a2 := !a2 +. (Array.unsafe_get data (b2 + j) *. xj);
    a3 := !a3 +. (Array.unsafe_get data (b3 + j) *. xj)
  done;
  Array.unsafe_set y yo !a0;
  Array.unsafe_set y (yo + ys) !a1;
  Array.unsafe_set y (yo + (2 * ys)) !a2;
  Array.unsafe_set y (yo + (3 * ys)) !a3

(* The one-row remainder of [dot4_into]. *)
let dot_into data base len x xo y yo =
  let acc = ref 0. in
  for j = 0 to len - 1 do
    acc :=
      !acc +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x (xo + j))
  done;
  Array.unsafe_set y yo !acc

(* Indices of the nonzero entries of [x], or [None] when [x] is dense
   enough that gathering would not pay.  Skipping an exactly-zero term
   never changes a row sum's bits for finite data: the skipped term is
   ±0, the running sum is never −0 (it starts at +0, and +0 + ±0 and
   x + (−x) both round to +0), and adding ±0 to such a sum is exact. *)
let sparse_support x =
  let n = Array.length x in
  let nnz = ref 0 in
  for j = 0 to n - 1 do
    if Array.unsafe_get x j <> 0. then incr nnz
  done;
  if !nnz * 8 > n then None
  else begin
    let idx = Array.make (max 1 !nnz) 0 in
    let k = ref 0 in
    for j = 0 to n - 1 do
      if Array.unsafe_get x j <> 0. then begin
        Array.unsafe_set idx !k j;
        incr k
      end
    done;
    Some (Array.sub idx 0 !nnz)
  end

(* Shared P·x body: each output row reduces in ascending column order
   (over the sparse support or all columns — exact either way, see
   [sparse_support]), [row_block] rows per pass, so any [gate]/[chunk]
   yields the same bits.  [y] is fully overwritten; no pre-zeroing
   needed. *)
let matvec_into ~gate ~chunk y m x =
  let data = m.data in
  let cols = m.cols in
  match sparse_support x with
  | Some idx ->
      let nnz = Array.length idx in
      over_range ~gate ~chunk m.rows (fun lo hi ->
          let i = ref lo in
          while !i + row_block <= hi do
            let b0 = !i * cols in
            let b1 = b0 + cols in
            let b2 = b1 + cols in
            let b3 = b2 + cols in
            let a0 = ref 0. in
            let a1 = ref 0. in
            let a2 = ref 0. in
            let a3 = ref 0. in
            for k = 0 to nnz - 1 do
              let j = Array.unsafe_get idx k in
              let xj = Array.unsafe_get x j in
              a0 := !a0 +. (Array.unsafe_get data (b0 + j) *. xj);
              a1 := !a1 +. (Array.unsafe_get data (b1 + j) *. xj);
              a2 := !a2 +. (Array.unsafe_get data (b2 + j) *. xj);
              a3 := !a3 +. (Array.unsafe_get data (b3 + j) *. xj)
            done;
            Array.unsafe_set y !i !a0;
            Array.unsafe_set y (!i + 1) !a1;
            Array.unsafe_set y (!i + 2) !a2;
            Array.unsafe_set y (!i + 3) !a3;
            i := !i + row_block
          done;
          for i = !i to hi - 1 do
            let base = i * cols in
            let acc = ref 0. in
            for k = 0 to nnz - 1 do
              let j = Array.unsafe_get idx k in
              acc :=
                !acc
                +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
            done;
            Array.unsafe_set y i !acc
          done)
  | None ->
      over_range ~gate ~chunk m.rows (fun lo hi ->
          let i = ref lo in
          while !i + row_block <= hi do
            dot4_into data (!i * cols) cols x 0 y !i 1;
            i := !i + row_block
          done;
          for i = !i to hi - 1 do
            dot_into data (i * cols) cols x 0 y i
          done)

let matvec ?into m x =
  if Array.length x <> m.cols then
    invalid_arg "Mat.matvec: dimension mismatch";
  let y =
    match into with
    | None -> Array.make m.rows 0.
    | Some y ->
        if Array.length y <> m.rows then
          invalid_arg "Mat.matvec: into dimension mismatch";
        if y == x then invalid_arg "Mat.matvec: into aliases the input";
        y
  in
  matvec_into ~gate:(m.rows >= parallel_threshold) ~chunk:row_chunk y m x;
  y

let project ?into p x =
  if Array.length x <> p.cols then
    invalid_arg "Mat.project: dimension mismatch";
  let y =
    match into with
    | None -> Array.make p.rows 0.
    | Some y ->
        if Array.length y <> p.rows then
          invalid_arg "Mat.project: into dimension mismatch";
        if y == x then invalid_arg "Mat.project: into aliases the input";
        y
  in
  (* Unlike [matvec], the fan-out gate also fires on the column count:
     a tall-skinny k×n projection with k ≪ 512 still carries k·n ≥
     512·k flops worth of work once n ≥ 512. *)
  matvec_into
    ~gate:(p.rows >= parallel_threshold || p.cols >= parallel_threshold)
    ~chunk:(fan_chunk p.rows) y p x;
  y

let pack_rows ?into vs =
  let b = Array.length vs in
  if b = 0 then invalid_arg "Mat.pack_rows: no rows";
  let n = Array.length vs.(0) in
  Array.iter
    (fun v ->
      if Array.length v <> n then invalid_arg "Mat.pack_rows: ragged rows")
    vs;
  let panel =
    match into with
    | None -> zeros b n
    | Some p ->
        if p.rows <> b || p.cols <> n then
          invalid_arg "Mat.pack_rows: into dimension mismatch";
        p
  in
  for i = 0 to b - 1 do
    Array.blit vs.(i) 0 panel.data (i * n) n
  done;
  panel

let unpack_row m i ~into =
  if i < 0 || i >= m.rows then invalid_arg "Mat.unpack_row: row out of range";
  if Array.length into <> m.cols then
    invalid_arg "Mat.unpack_row: into dimension mismatch";
  Array.blit m.data (i * m.cols) into 0 m.cols

let project_batch ?into ~pt xs =
  if xs.cols <> pt.rows then invalid_arg "Mat.project_batch: dimension mismatch";
  let b = xs.rows and n = xs.cols and k = pt.cols in
  let u =
    match into with
    | None -> zeros b k
    | Some u ->
        if u.rows <> b || u.cols <> k then
          invalid_arg "Mat.project_batch: into dimension mismatch";
        if u.data == xs.data || u.data == pt.data then
          invalid_arg "Mat.project_batch: into aliases an input";
        u
  in
  let xdata = xs.data and tdata = pt.data and udata = u.data in
  (* U = X·Pᵀ as an i-l-j pass, blocked at three levels: an outer
     [row_chunk]-row block of the panel keeps its u rows cache-resident
     across the whole shared dimension (a large batch would otherwise
     re-stream the u panel once per Pᵀ tile), a [row_chunk]-row tile of
     Pᵀ is reused across every panel row of the block (the [matmul]
     body shape), and the shared dimension is register-blocked eight
     wide, so each u[i,j] load/store round-trip covers eight FMAs and
     the k chains u[i,0..k−1] are independent — throughput-bound.  The
     dot-per-row form ({!project}) interleaves only [row_block] chains
     but packs nothing: at k = 32, n = 4096 the two measured about even
     per row (EXPERIMENTS.md §"Four rows per pass").  Each u[i,j] still
     reduces over l ascending (tiles ascend, the eight-wide sums are
     left-associated, l ascends within and across blocks), i.e. the
     same term sequence as {!project}'s row reduction with the factors
     commuted — float multiplication is exactly commutative.  A block
     all of whose x[l] are ±0 is skipped, and a partially-zero block
     keeps its ±0 terms: both are exact, by the [sparse_support]
     argument (the accumulator starts at +0 and can never round to −0,
     so adding a ±0 term never changes its bits) — so row i is
     bit-identical to [project p vs.(i)] at any worker count and any
     batch size. *)
  over_range
    ~gate:(b >= parallel_threshold || n >= parallel_threshold)
    ~chunk:(fan_chunk b) b
    (fun blo bhi ->
      Array.fill udata (blo * k) ((bhi - blo) * k) 0.;
      let ilo = ref blo in
      while !ilo < bhi do
        let ihi = min bhi (!ilo + row_chunk) in
        let llo = ref 0 in
        while !llo < n do
          let lhi = min n (!llo + row_chunk) in
          for i = !ilo to ihi - 1 do
            let xbase = i * n in
            let ubase = i * k in
            let l = ref !llo in
            while !l + 7 < lhi do
              let xb = xbase + !l in
              let xl0 = Array.unsafe_get xdata xb
              and xl1 = Array.unsafe_get xdata (xb + 1)
              and xl2 = Array.unsafe_get xdata (xb + 2)
              and xl3 = Array.unsafe_get xdata (xb + 3)
              and xl4 = Array.unsafe_get xdata (xb + 4)
              and xl5 = Array.unsafe_get xdata (xb + 5)
              and xl6 = Array.unsafe_get xdata (xb + 6)
              and xl7 = Array.unsafe_get xdata (xb + 7) in
              if
                xl0 <> 0. || xl1 <> 0. || xl2 <> 0. || xl3 <> 0. || xl4 <> 0.
                || xl5 <> 0. || xl6 <> 0. || xl7 <> 0.
              then begin
                let t0 = !l * k in
                let t1 = t0 + k in
                let t2 = t1 + k in
                let t3 = t2 + k in
                let t4 = t3 + k in
                let t5 = t4 + k in
                let t6 = t5 + k in
                let t7 = t6 + k in
                for j = 0 to k - 1 do
                  Array.unsafe_set udata (ubase + j)
                    (Array.unsafe_get udata (ubase + j)
                    +. (xl0 *. Array.unsafe_get tdata (t0 + j))
                    +. (xl1 *. Array.unsafe_get tdata (t1 + j))
                    +. (xl2 *. Array.unsafe_get tdata (t2 + j))
                    +. (xl3 *. Array.unsafe_get tdata (t3 + j))
                    +. (xl4 *. Array.unsafe_get tdata (t4 + j))
                    +. (xl5 *. Array.unsafe_get tdata (t5 + j))
                    +. (xl6 *. Array.unsafe_get tdata (t6 + j))
                    +. (xl7 *. Array.unsafe_get tdata (t7 + j)))
                done
              end;
              l := !l + 8
            done;
            while !l < lhi do
              let xl = Array.unsafe_get xdata (xbase + !l) in
              if xl <> 0. then begin
                let tbase = !l * k in
                for j = 0 to k - 1 do
                  Array.unsafe_set udata (ubase + j)
                    (Array.unsafe_get udata (ubase + j)
                    +. (xl *. Array.unsafe_get tdata (tbase + j)))
                done
              end;
              incr l
            done
          done;
          llo := lhi
        done;
        ilo := ihi
      done);
  u

(* Sparse-aware kernels over a prebuilt {!Vec.Sparse} view.  They are
   serial: their work is O(nnz²), below the flop count where pool
   dispatch pays, and the pricing hot loop that calls them runs one
   round at a time anyway.  Reduction orders match the dense kernels'
   (ascending index within each output element, the exactly-zero terms
   skipped — exact for finite data, see [sparse_support]), so on the
   same input the sparse and dense kernels agree bit-for-bit. *)

let quad_sparse m (sx : Vec.Sparse.t) =
  if m.rows <> m.cols then invalid_arg "Mat.quad_sparse: not square";
  if sx.Vec.Sparse.dim <> m.rows then
    invalid_arg "Mat.quad_sparse: dimension mismatch";
  let data = m.data in
  let n = m.rows in
  let idx = sx.Vec.Sparse.idx and v = sx.Vec.Sparse.value in
  let nnz = Array.length idx in
  (* O(nnz²): only the support × support block contributes.  Outer and
     inner indices ascend, matching both the serial [quad] (which
     row-skips on xᵢ = 0 and adds exact ±0 terms for the zero columns)
     and its pooled matvec-then-dot branch. *)
  let acc = ref 0. in
  for a = 0 to nnz - 1 do
    let base = n * Array.unsafe_get idx a in
    let rowacc = ref 0. in
    for b = 0 to nnz - 1 do
      rowacc :=
        !rowacc
        +. (Array.unsafe_get data (base + Array.unsafe_get idx b)
           *. Array.unsafe_get v b)
    done;
    acc := !acc +. (Array.unsafe_get v a *. !rowacc)
  done;
  !acc

let rank_one_rescale_sparse m ~beta ~b ~factor ~scale =
  if m.rows <> m.cols then invalid_arg "Mat.rank_one_rescale_sparse: not square";
  if b.Vec.Sparse.dim <> m.rows then
    invalid_arg "Mat.rank_one_rescale_sparse: dimension mismatch";
  let data = m.data in
  let n = m.rows in
  let idx = b.Vec.Sparse.idx and v = b.Vec.Sparse.value in
  let nnz = Array.length idx in
  (* In the scalar-scaled representation A = scale·M, the ellipsoid
     update A' = factor·(A + beta·b_A·b_Aᵀ) with b_A = √scale·b is
     M := M + beta·b·bᵀ (touching only the support × support block —
     O(nnz²) entries instead of the O(n²) a fused dense rescale pays)
     and the O(1) scalar multiply returned to the caller.  The update
     term keeps {!rank_one_rescale}'s beta·(bᵢ·bⱼ) association, so M
     stays bit-exactly symmetric. *)
  for a = 0 to nnz - 1 do
    let base = n * Array.unsafe_get idx a in
    let bi = Array.unsafe_get v a in
    for c = 0 to nnz - 1 do
      let j = Array.unsafe_get idx c in
      Array.unsafe_set data (base + j)
        (Array.unsafe_get data (base + j)
        +. (beta *. (bi *. Array.unsafe_get v c)))
    done
  done;
  factor *. scale

(* Shared Pᵀ·x body: each task owns the column range [lo, hi) of the
   output and walks the rows in ascending order, streaming the
   contiguous row segment [base+lo, base+hi) — row-major accumulation,
   never a column-stride walk.  Every output element y[j] therefore
   reduces over i ascending with the exact xᵢ = 0 skip, independent of
   scheduling, matching the historical serial [matvec_t] bit-for-bit. *)
let tmatvec_into ~gate y m x =
  let data = m.data in
  let cols = m.cols and rows = m.rows in
  over_range ~gate ~chunk:col_chunk cols (fun lo hi ->
      Array.fill y lo (hi - lo) 0.;
      for i = 0 to rows - 1 do
        let xi = Array.unsafe_get x i in
        if xi <> 0. then begin
          let base = i * cols in
          for j = lo to hi - 1 do
            Array.unsafe_set y j
              (Array.unsafe_get y j +. (Array.unsafe_get data (base + j) *. xi))
          done
        end
      done)

let matvec_t ?into m x =
  if Array.length x <> m.rows then
    invalid_arg "Mat.matvec_t: dimension mismatch";
  let y =
    match into with
    | None -> Array.make m.cols 0.
    | Some y ->
        if Array.length y <> m.cols then
          invalid_arg "Mat.matvec_t: into dimension mismatch";
        if y == x then invalid_arg "Mat.matvec_t: into aliases the input";
        y
  in
  tmatvec_into ~gate:(m.cols >= parallel_threshold) y m x;
  y

let project_t ?into p y =
  if Array.length y <> p.rows then
    invalid_arg "Mat.project_t: dimension mismatch";
  let out =
    match into with
    | None -> Array.make p.cols 0.
    | Some o ->
        if Array.length o <> p.cols then
          invalid_arg "Mat.project_t: into dimension mismatch";
        if o == y then invalid_arg "Mat.project_t: into aliases the input";
        o
  in
  tmatvec_into ~gate:(p.cols >= parallel_threshold) out p y;
  out

let matmul_tt a b =
  if a.cols <> b.cols then invalid_arg "Mat.matmul_tt: dimension mismatch";
  let n = a.cols and q = b.rows in
  let c = zeros a.rows q in
  let adata = a.data and bdata = b.data and cdata = c.data in
  (* c[i,j] = ⟨row i of a, row j of b⟩: both operands stream
     contiguously, and each output element is one ascending-index dot
     product, [row_block] rows of [a] per pass against one row of [b]
     — neither the blocking nor the fan-out over rows of [a] changes
     the bits.  The gate fires on either dimension of [a]: tall-skinny
     batches (few rows, n ≥ 512 shared dimension) and tall sample
     matrices (rows ≥ 512) both carry enough flops. *)
  over_range
    ~gate:(a.rows >= parallel_threshold || a.cols >= parallel_threshold)
    ~chunk:(fan_chunk a.rows) a.rows
    (fun ilo ihi ->
      let i = ref ilo in
      while !i + row_block <= ihi do
        let abase = !i * n and cbase = !i * q in
        for j = 0 to q - 1 do
          dot4_into adata abase n bdata (j * n) cdata (cbase + j) q
        done;
        i := !i + row_block
      done;
      for i = !i to ihi - 1 do
        let abase = i * n and cbase = i * q in
        for j = 0 to q - 1 do
          dot_into adata abase n bdata (j * n) cdata (cbase + j)
        done
      done);
  c

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: dimension mismatch";
  let c = zeros a.rows b.cols in
  let q = a.cols and p = b.cols in
  let adata = a.data and bdata = b.data and cdata = c.data in
  (* i-k-j with the k loop cache-blocked: a tile of [row_chunk] rows of
     [b] is reused across every row of the chunk.  Each c[i,j] still
     accumulates its k terms in ascending order (tiles are visited
     ascending, k ascending within a tile), so the result is
     bit-identical to the unblocked serial loop at any worker count. *)
  over_rows a.rows (fun ilo ihi ->
      let klo = ref 0 in
      while !klo < q do
        let khi = min q (!klo + row_chunk) in
        for i = ilo to ihi - 1 do
          let abase = i * q in
          let cbase = i * p in
          for k = !klo to khi - 1 do
            let aik = Array.unsafe_get adata (abase + k) in
            if aik <> 0. then begin
              let bbase = k * p in
              for j = 0 to p - 1 do
                Array.unsafe_set cdata (cbase + j)
                  (Array.unsafe_get cdata (cbase + j)
                  +. (aik *. Array.unsafe_get bdata (bbase + j)))
              done
            end
          done
        done;
        klo := khi
      done);
  c

let outer u v =
  init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let rank_one_update m beta b =
  if m.rows <> m.cols || Array.length b <> m.rows then
    invalid_arg "Mat.rank_one_update: dimension mismatch";
  let n = m.rows in
  let data = m.data in
  over_rows n (fun lo hi ->
      for i = lo to hi - 1 do
        let bi = beta *. Array.unsafe_get b i in
        if bi <> 0. then begin
          let base = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set data (base + j)
              (Array.unsafe_get data (base + j) +. (bi *. Array.unsafe_get b j))
          done
        end
      done)

let rank_one_rescale ?into m ~beta ~b ~factor =
  if m.rows <> m.cols || Array.length b <> m.rows then
    invalid_arg "Mat.rank_one_rescale: dimension mismatch";
  let n = m.rows in
  let dst =
    match into with
    | None -> zeros n n
    | Some d ->
        if d.rows <> n || d.cols <> n then
          invalid_arg "Mat.rank_one_rescale: into dimension mismatch";
        if d.data == m.data then
          invalid_arg "Mat.rank_one_rescale: into aliases the input";
        d
  in
  let src = m.data and out = dst.data in
  (* The update term is beta·(bᵢ·bⱼ), associated so that float
     multiplication's exact commutativity makes the output exactly
     symmetric whenever [m] is — no symmetrization pass needed. *)
  over_rows n (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * n in
        let bi = Array.unsafe_get b i in
        if bi <> 0. then
          for j = 0 to n - 1 do
            Array.unsafe_set out (base + j)
              (factor
              *. (Array.unsafe_get src (base + j)
                 +. (beta *. (bi *. Array.unsafe_get b j))))
          done
        else
          for j = 0 to n - 1 do
            Array.unsafe_set out (base + j)
              (factor *. Array.unsafe_get src (base + j))
          done
      done);
  dst

(* The first index j ≥ i with x[j] ≠ 0, or [n] when there is none. *)
let rec next_nonzero x i n =
  if i >= n then n
  else if Array.unsafe_get x i <> 0. then i
  else next_nonzero x (i + 1) n

let quad m x =
  if m.rows <> m.cols || Array.length x <> m.rows then
    invalid_arg "Mat.quad: dimension mismatch";
  let n = m.rows in
  let pooled =
    n >= parallel_threshold
    &&
    match Pool.get_default () with Some p -> Pool.size p > 1 | None -> false
  in
  if pooled then begin
    (* y = m·x over the pool, then a serial dot in index order with the
       same xᵢ = 0 skip as the serial branch below: per-element
       reduction orders match, so both branches are bit-identical for
       finite data (the skipped ±0 terms are exact — see
       [sparse_support]). *)
    let y = matvec m x in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let xi = Array.unsafe_get x i in
      if xi <> 0. then acc := !acc +. (xi *. Array.unsafe_get y i)
    done;
    !acc
  end
  else begin
    (* Rows with xᵢ = 0 are skipped; the next four rows with xᵢ ≠ 0
       form a block whose row sums share one pass over x, and the
       block adds xᵢ·(row sum) to [acc] in ascending i — the same
       additions, in the same order, as one row at a time.  Every sum
       lives in a local float, so the pass allocates nothing. *)
    let data = m.data in
    let acc = ref 0. in
    let i = ref (next_nonzero x 0 n) in
    let blocks = ref true in
    while !blocks do
      let i0 = !i in
      let i1 = next_nonzero x (i0 + 1) n in
      let i2 = next_nonzero x (i1 + 1) n in
      let i3 = next_nonzero x (i2 + 1) n in
      if i3 < n then begin
        let b0 = i0 * n and b1 = i1 * n and b2 = i2 * n and b3 = i3 * n in
        let r0 = ref 0. in
        let r1 = ref 0. in
        let r2 = ref 0. in
        let r3 = ref 0. in
        for j = 0 to n - 1 do
          let xj = Array.unsafe_get x j in
          r0 := !r0 +. (Array.unsafe_get data (b0 + j) *. xj);
          r1 := !r1 +. (Array.unsafe_get data (b1 + j) *. xj);
          r2 := !r2 +. (Array.unsafe_get data (b2 + j) *. xj);
          r3 := !r3 +. (Array.unsafe_get data (b3 + j) *. xj)
        done;
        acc := !acc +. (Array.unsafe_get x i0 *. !r0);
        acc := !acc +. (Array.unsafe_get x i1 *. !r1);
        acc := !acc +. (Array.unsafe_get x i2 *. !r2);
        acc := !acc +. (Array.unsafe_get x i3 *. !r3);
        i := next_nonzero x (i3 + 1) n
      end
      else blocks := false
    done;
    (* Fewer than four rows with xᵢ ≠ 0 are left. *)
    while !i < n do
      let base = !i * n in
      let rowacc = ref 0. in
      for j = 0 to n - 1 do
        rowacc :=
          !rowacc +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
      done;
      acc := !acc +. (Array.unsafe_get x !i *. !rowacc);
      i := next_nonzero x (!i + 1) n
    done;
    !acc
  end

let symmetrize_inplace m =
  if m.rows <> m.cols then invalid_arg "Mat.symmetrize_inplace: not square";
  let n = m.rows in
  let data = m.data in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ij = (i * n) + j and ji = (j * n) + i in
      let avg =
        0.5 *. (Array.unsafe_get data ij +. Array.unsafe_get data ji)
      in
      Array.unsafe_set data ij avg;
      Array.unsafe_set data ji avg
    done
  done

let is_symmetric ?(tol = 1e-9) m =
  m.rows = m.cols
  &&
  let n = m.rows in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if abs_float (m.data.((i * n) + j) -. m.data.((j * n) + i)) > tol then
        ok := false
    done
  done;
  !ok

let max_abs m =
  Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0. m.data

let frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to Array.length a.data - 1 do
    if abs_float (a.data.(k) -. b.data.(k)) > tol then ok := false
  done;
  !ok

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "|@[<hov>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf "@ ";
      Format.fprintf ppf "%10.4g" (get m i j)
    done;
    Format.fprintf ppf "@]|"
  done;
  Format.fprintf ppf "@]"
