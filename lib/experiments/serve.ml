module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Broker = Dm_market.Broker
module Ellipsoid = Dm_market.Ellipsoid
module Mechanism = Dm_market.Mechanism
module Journal = Dm_store.Journal
module Fleet_store = Dm_store.Fleet
module Batcher = Dm_store.Fleet.Batcher

let radius = 2.
let theta_frac = 0.9
let epsilon = 0.1
let batch_sizes = [ 1; 8; 64; 256 ]

(* Scale tiers pick the market dimensions, not the horizon: the
   serving-path comparison is only meaningful when the projection
   kernel dominates the round, so full scale prices at n = 4096 with
   k = 32 — the fig5c_hd ambient dimension fitted at exactly its
   planted rank — and the smoke tiers shrink both together. *)
let dims scale =
  if scale >= 0.5 then (4_096, 32)
  else if scale >= 0.1 then (1_024, 32)
  else (256, 16)

let fleet_sizes scale = if scale >= 0.5 then [ 8; 64; 256 ] else [ 8; 64 ]
let scaled_total scale = max 256 (int_of_float (1_024. *. scale))

let cell_seed seed salt = (seed * 1_000_003) + (salt * 7_919)

(* Modified Gram–Schmidt over Gaussian rows: the shared projection must
   have orthonormal rows so that in-rowspace features price exactly
   (P·Pᵀ = I makes xᵀθ* equal uᵀθ_P, hence err = 0 is legitimate). *)
let orthonormal_rows rng ~k ~n =
  let rows = Array.init k (fun _ -> Dist.normal_vec rng ~dim:n) in
  for i = 0 to k - 1 do
    for j = 0 to i - 1 do
      let c = Vec.dot rows.(i) rows.(j) in
      Vec.axpy (-.c) rows.(j) rows.(i)
    done;
    rows.(i) <- Vec.normalize rows.(i)
  done;
  Mat.init k n (fun i j -> rows.(i).(j))

type req = { tenant : int; t : int; x : Vec.t; v : float }

(* One fleet's inputs from a single sequential stream (so they are a
   pure function of (seed, tenants) whatever the jobs value): the
   shared orthonormal projection, one half-normal in-subspace θ* per
   tenant, and a round-robin request stream of unit in-subspace
   features with their realized market values. *)
let gen_inputs ~seed ~n ~k ~tenants ~total =
  let rng = Rng.create (cell_seed seed tenants) in
  let basis = orthonormal_rows rng ~k ~n in
  let thetas =
    Array.init tenants (fun _ ->
        let w = Vec.map Float.abs (Dist.normal_vec rng ~dim:k) in
        let t = Mat.project_t basis w in
        Vec.scale (theta_frac *. radius /. Vec.norm2 t) t)
  in
  let reqs =
    Array.init total (fun i ->
        let tenant = i mod tenants in
        let z = Vec.map Float.abs (Dist.normal_vec rng ~dim:k) in
        let x = Vec.normalize (Mat.project_t basis z) in
        { tenant; t = i / tenants; x; v = Vec.dot x thetas.(tenant) })
  in
  (basis, reqs)

let make_mech ~basis ~k _tn =
  Mechanism.create_projected
    (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
    ~projection:basis ~err:0.
    (Ellipsoid.ball ~dim:k ~radius)

(* Journaled events carry [u = P·x], the mechanism's rank-k sufficient
   statistic ({!Mechanism.projected_feature}), not the raw feature:
   with err = 0 the state evolution on x is bit-identical to a dense
   k-dim mechanism's on u, so the k-dim record replays exactly — and
   journal bandwidth is decoupled from the ambient dimension (a 4096-dim
   frame is ~49 KB, its 64-dim statistic under 1 KB), which is what
   lets the group commit amortize fsyncs instead of drowning in
   per-round byte throughput.  [run_config] proves the sufficiency
   claim per run: it replays the log into fresh dense k-dim mechanisms
   and compares ellipsoid state bitwise against the served fleet. *)
let event_of (r : req) (d : Mechanism.decision) ~u ~accepted : Broker.event =
  match d with
  | Mechanism.Skip ->
      {
        Broker.t = r.t; x = u; reserve = 0.; kind = Broker.Skipped;
        price_index = Float.nan; lower = Float.nan; upper = Float.nan;
        posted = None; accepted = false; payment = 0.;
      }
  | Mechanism.Post { price; kind; lower; upper } ->
      let kind =
        match kind with
        | Mechanism.Exploratory -> Broker.Exploratory
        | Mechanism.Conservative -> Broker.Conservative
      in
      {
        Broker.t = r.t; x = u; reserve = 0.; kind; price_index = price;
        lower; upper; posted = Some price; accepted;
        payment = (if accepted then price else 0.);
      }

(* Bitwise digest of a mechanism's knowledge-set state (scale, center,
   shape): the cross-config identity unit.  A projected mechanism and
   the dense k-dim mechanism replayed from its journal digest equal iff
   their ellipsoids match bit-for-bit — and unlike [snapshot_binary]
   the digest does not encode the shared k×n projection again per
   tenant (~5 MB each at full scale). *)
let state_digest m =
  let e = Mechanism.ellipsoid m in
  let dim = Vec.dim e.Ellipsoid.center in
  let buf = Buffer.create (8 * (1 + dim + (dim * dim))) in
  Buffer.add_int64_le buf (Int64.bits_of_float e.Ellipsoid.scale);
  Array.iter
    (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v))
    e.Ellipsoid.center;
  for i = 0 to Mat.rows e.Ellipsoid.shape - 1 do
    for j = 0 to Mat.cols e.Ellipsoid.shape - 1 do
      Buffer.add_int64_le buf
        (Int64.bits_of_float (Mat.get e.Ellipsoid.shape i j))
    done
  done;
  Buffer.contents buf

type stats = {
  tenants : int;
  b : int;
  total : int;
  ns_round : float;
  decide_ns : float;
  mech_words : float;  (** minor words per round, decide+observe only *)
  loop_words : float;  (** minor words per round, whole serving loop *)
  fsyncs : int;
  journal : string;  (** the tagged log, re-encoded in global order *)
  snaps : string array;  (** final per-tenant knowledge-state digests *)
  recover_ok : bool;
      (** snapshotted tenants restore through {!Fleet_store.recover}
          to the served mechanisms' exact binary snapshots *)
  replay_ok : bool;
      (** scratch tenants, rebuilt by {!Fleet_store.recover} replaying
          the k-dim log into dense mechanisms, match the served fleet's
          ellipsoid state bitwise *)
}

(* One (fleet size, batch size) serving run.  B = 1 is the pre-batching
   reference path — plain sequential [Mechanism.decide] and a group
   commit armed every append — so the other columns' identity checks
   compare the fused kernel against genuine unbatched serving. *)
let run_config ~tag ~tenants ~k ~basis ~b (reqs : req array) =
  Runner.with_scratch_dir ("serve_tmp-" ^ tag) @@ fun dir ->
  (* Size the group-commit buffer to hold a whole decide batch of
     k-dim frames, otherwise buffer-full commits fire inside the batch
     and [latency_appends = b] never governs the fsyncs. *)
  let commit_bytes = b * (128 + (12 * k)) in
  let fleet =
    Fleet_store.create ~commit_bytes ~latency_appends:b ~snapshot_every:0 ~dir
      ~tenants ()
  in
  let mechs = Array.init tenants (make_mech ~basis ~k) in
  let ctx = Mechanism.batch mechs.(0) in
  let batcher = Batcher.create ~capacity:b ~latency_rounds:b in
  let total = Array.length reqs in
  (* Arena warm-up excluded from the allocation figure: the first two
     cuts of each tenant allocate its ping-pong shape/center buffers,
     and the first two batches size the gather/scatter panels. *)
  let warmup = min total (max (2 * tenants) (2 * b)) in
  let served = ref 0 in
  let decide_s = ref 0. in
  let mech_w = ref 0. and measured = ref 0 in
  let acc_buf = Array.make (min b total) false in
  let flush batch =
    let nb = Array.length batch in
    let xs = Array.map (fun r -> r.x) batch in
    let ms = Array.map (fun r -> mechs.(r.tenant)) batch in
    let reserves = Array.make nb 0. in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let ds =
      if b = 1 then
        Array.map (fun r -> Mechanism.decide mechs.(r.tenant) ~x:r.x ~reserve:0.) batch
      else Mechanism.decide_batch ctx ms ~xs ~reserves
    in
    decide_s := !decide_s +. (Unix.gettimeofday () -. t0);
    for i = 0 to nb - 1 do
      let r = batch.(i) in
      let d = ds.(i) in
      let accepted =
        match d with
        | Mechanism.Post { price; _ } -> price <= r.v
        | Mechanism.Skip -> false
      in
      acc_buf.(i) <- accepted;
      Mechanism.observe mechs.(r.tenant) ~x:r.x d ~accepted
    done;
    let w1 = Gc.minor_words () in
    if !served >= warmup then begin
      mech_w := !mech_w +. (w1 -. w0);
      measured := !measured + nb
    end;
    for i = 0 to nb - 1 do
      let r = batch.(i) in
      (* The decide above memoized this request's projection; copy it
         out before the next batch overwrites the mechanism's buffer. *)
      let u =
        match Mechanism.projected_feature mechs.(r.tenant) ~x:r.x with
        | Some u -> u
        | None -> Array.copy r.x
      in
      Fleet_store.append fleet ~tenant:r.tenant
        (event_of r ds.(i) ~u ~accepted:acc_buf.(i))
    done;
    served := !served + nb
  in
  let w_start = Gc.minor_words () in
  let t_start = Unix.gettimeofday () in
  Array.iter
    (fun r -> match Batcher.add batcher r with Some bt -> flush bt | None -> ())
    reqs;
  (match Batcher.flush batcher with Some bt -> flush bt | None -> ());
  Fleet_store.sync fleet;
  let loop_s = Unix.gettimeofday () -. t_start in
  let loop_w = Gc.minor_words () -. w_start in
  let fsyncs = Fleet_store.fsync_count fleet in
  (* Snapshot a stride of tenants (always including 0, never all): the
     snapshotted ones exercise the snapshot round-trip, and the rest
     recover from scratch — {!Fleet_store.recover} replaying the k-dim
     log into dense k-dim mechanisms, the production path for the
     sufficiency claim in [event_of]'s comment. *)
  let snap_stride = max 2 (tenants / 8) in
  for tn = 0 to tenants - 1 do
    if tn mod snap_stride = 0 then Fleet_store.snapshot fleet ~tenant:tn mechs.(tn)
  done;
  Fleet_store.close fleet;
  let snaps = Array.map state_digest mechs in
  let journal =
    match Fleet_store.read_dir ~dir with
    | Error msg -> failwith ("Serve.run_config: " ^ msg)
    | Ok (_, Fleet_store.Torn _) ->
        failwith "Serve.run_config: unexpected torn tail"
    | Ok (tagged, Fleet_store.Clean) ->
        let buf = Buffer.create 65_536 in
        List.iter
          (fun (tn, e) -> Buffer.add_string buf (Journal.encode_event ~tenant:tn e))
          tagged;
        Buffer.contents buf
  in
  let recover_ok, replay_ok =
    let dense _tn =
      Mechanism.create
        (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
        (Ellipsoid.ball ~dim:k ~radius)
    in
    match Fleet_store.recover ~initial:dense ~dir ~tenants () with
    | Error _ -> (false, false)
    | Ok (recs, torn) when torn || Array.length recs <> tenants ->
        (false, false)
    | Ok (recs, _) ->
        let rec_ok = ref true and rep_ok = ref true in
        Array.iteri
          (fun tn (r : Fleet_store.recovery) ->
            match r.Fleet_store.mechanism with
            | None ->
                rec_ok := false;
                rep_ok := false
            | Some m ->
                if tn mod snap_stride = 0 then begin
                  if
                    r.Fleet_store.replayed <> 0
                    || not
                         (String.equal
                            (Mechanism.snapshot_binary m)
                            (Mechanism.snapshot_binary mechs.(tn)))
                  then rec_ok := false
                end
                else if
                  r.Fleet_store.replayed = 0
                  || not (String.equal (state_digest m) snaps.(tn))
                then rep_ok := false)
          recs;
        (!rec_ok, !rep_ok)
  in
  {
    tenants;
    b;
    total;
    ns_round = loop_s *. 1e9 /. float_of_int total;
    decide_ns = !decide_s *. 1e9 /. float_of_int total;
    mech_words =
      (if !measured = 0 then 0. else !mech_w /. float_of_int !measured);
    loop_words = loop_w /. float_of_int total;
    fsyncs;
    journal;
    snaps;
    recover_ok;
    replay_ok;
  }

let report ?pool ?(scale = 1.) ?(seed = 42) ?(jobs = 1) ppf =
  let n, k = dims scale in
  let total = scaled_total scale in
  let fleets = Array.of_list (fleet_sizes scale) in
  (* Input generation fans out over jobs (one independent cell per
     fleet size); the timed serving configs then run sequentially so
     the B columns of one fleet are comparable wall-clock. *)
  let inputs =
    Runner.map ?pool ~jobs
      (fun tenants ->
        let basis, reqs = gen_inputs ~seed ~n ~k ~tenants ~total in
        (tenants, basis, reqs))
      fleets
  in
  let results =
    Array.to_list inputs
    |> List.concat_map (fun (tenants, basis, reqs) ->
           List.filter (fun b -> b <= tenants) batch_sizes
           |> List.map (fun b ->
                  run_config
                    ~tag:(Printf.sprintf "T%d-B%d" tenants b)
                    ~tenants ~k ~basis ~b reqs))
  in
  let ref_of tenants =
    List.find (fun s -> s.tenants = tenants && s.b = 1) results
  in
  let identical s =
    let r = ref_of s.tenants in
    String.equal s.journal r.journal
    && Array.for_all2 String.equal s.snaps r.snaps
  in
  let rows =
    List.map
      (fun s ->
        let r = ref_of s.tenants in
        [
          string_of_int s.tenants;
          string_of_int s.b;
          Printf.sprintf "%.0f" s.ns_round;
          Printf.sprintf "%.0f" (1e9 /. s.ns_round);
          Printf.sprintf "%.0f" s.decide_ns;
          Printf.sprintf "%.1f" s.mech_words;
          Printf.sprintf "%.1f" s.loop_words;
          Printf.sprintf "%.1f"
            (float_of_int s.fsyncs *. 1_000. /. float_of_int s.total);
          Printf.sprintf "%.2fx" (r.ns_round /. s.ns_round);
          (if s.b = 1 then "ref" else if identical s then "yes" else "NO");
          (if s.recover_ok then "yes" else "NO");
          (if s.replay_ok then "yes" else "NO");
        ])
      results
  in
  Table.print ppf
    ~title:
      (Printf.sprintf
         "serve: batched fleet serving at n = %d, k = %d, %d rounds per \
          config (journal records the rank-k projected statistic; \
          group-commit latency aligned to B; timing and alloc columns vary \
          run to run, identity columns are deterministic)"
         n k total)
    ~header:
      [
        "tenants"; "B"; "ns/round"; "rounds/s"; "decide ns/r"; "mech w/r";
        "loop w/r"; "fsync/kr"; "speedup"; "identical"; "recover"; "replay";
      ]
    rows;
  let batched = List.filter (fun s -> s.b > 1) results in
  let id_ok = List.filter identical batched |> List.length in
  let rec_ok =
    List.filter (fun s -> s.recover_ok && s.replay_ok) results |> List.length
  in
  (match
     List.fold_left
       (fun acc s ->
         if s.b = 64 then
           match acc with
           | Some (t0, _) when t0 > s.tenants -> acc
           | _ -> Some (s.tenants, (ref_of s.tenants).ns_round /. s.ns_round)
         else acc)
       None batched
   with
  | Some (t, sp) ->
      Format.fprintf ppf
        "B=64 speedup over unbatched serving: %.2fx at %d tenants (n = %d, \
         k = %d).@."
        sp t n k
  | None -> ());
  let all_ok = id_ok = List.length batched && rec_ok = List.length results in
  Format.fprintf ppf
    "serve summary: %d/%d batched configs bit-identical to B=1 and %d/%d \
     recover+replay round-trips state-preserving — %s@.@."
    id_ok (List.length batched) rec_ok (List.length results)
    (if all_ok then "OK" else "CHECK FAILED")

let microbench ?(scale = 1.) ?(seed = 42) () =
  let n, k = dims scale in
  let tenants = 64 in
  let total = scaled_total scale in
  let basis, reqs = gen_inputs ~seed ~n ~k ~tenants ~total in
  let s = run_config ~tag:"micro-B64" ~tenants ~k ~basis ~b:64 reqs in
  if not (s.recover_ok && s.replay_ok) then
    failwith "Serve.microbench: recovery drifted";
  [
    (Printf.sprintf "serve/batch_decide B64 n%d k%d" n k, s.decide_ns);
    ("serve/round_alloc minor_words", s.mech_words);
    ("gc/serve_loop minor_words", s.loop_words);
  ]
