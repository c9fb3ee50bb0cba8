(* The journaled serving path: 64 tenants share one orthonormal k×n
   basis, requests arrive round-robin, every decision is journaled to a
   group-commit fleet store and a request completes when the fsync
   covering its record returns.  Two phases share one fleet: an open
   loop with Poisson arrivals at a fixed rate (latency under load, timed
   from each request's due time), and a saturated phase issuing requests
   back to back (a closed loop: throughput and service latency, timed
   from issue).  Recovery runs last. *)

module Vec = Dm_linalg.Vec
module Mat = Dm_linalg.Mat
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Broker = Dm_market.Broker
module Ellipsoid = Dm_market.Ellipsoid
module Mechanism = Dm_market.Mechanism
module Regret = Dm_market.Regret
module Fleet = Dm_store.Fleet
module Batcher = Dm_store.Fleet.Batcher

let n = 4_096
let k = 32
let tenants = 64
let radius = 2.
let epsilon = 0.1

(* A prime above the tenant count: with round-robin tenants and
   vectors taken in pool order, a tenant's consecutive requests sit 64
   pool slots apart and never reuse a vector, so the projection memo
   (keyed on the physical vector) cannot skip a projection. *)
let pool_size = 1_031

(* Requests before this index are arena and page-cache warm-up and stay
   out of the latency percentiles. *)
let warmup = 1_024

type inputs = {
  basis : Mat.t;
  pool : Vec.t array;  (** immutable features in the basis's row space *)
  values : float array array;  (** [values.(v).(tenant)] = pool v · θ*_tenant *)
  offset : int;  (** pool slot of request 0 *)
}

type fleet_state = { mechs : Mechanism.t array; ctx : Mechanism.batch }

(* Modified Gram–Schmidt over Gaussian rows: in-rowspace features then
   price exactly with err = 0. *)
let orthonormal_rows rng =
  let rows = Array.init k (fun _ -> Dist.normal_vec rng ~dim:n) in
  for i = 0 to k - 1 do
    for j = 0 to i - 1 do
      Vec.axpy (-.Vec.dot rows.(i) rows.(j)) rows.(j) rows.(i)
    done;
    rows.(i) <- Vec.normalize rows.(i)
  done;
  Mat.init k n (fun i j -> rows.(i).(j))

let in_subspace rng basis =
  Mat.project_t basis (Vec.map Float.abs (Dist.normal_vec rng ~dim:k))

let make_inputs ~seed =
  let market = Rng.create (Paper_loop.sub_seed Paper_loop.market_seed 500) in
  let basis = orthonormal_rows market in
  let thetas =
    Array.init tenants (fun _ ->
        let t = in_subspace market basis in
        Vec.scale (0.9 *. radius /. Vec.norm2 t) t)
  in
  let rng = Rng.create (Paper_loop.sub_seed seed 501) in
  let pool =
    Array.init pool_size (fun _ -> Vec.normalize (in_subspace rng basis))
  in
  let values = Array.map (fun x -> Array.map (Vec.dot x) thetas) pool in
  { basis; pool; values; offset = Rng.int rng pool_size }

let new_fleet inputs =
  let mechs =
    Array.init tenants (fun _ ->
        Mechanism.create_projected
          (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
          ~projection:inputs.basis ~err:0.
          (Ellipsoid.ball ~dim:k ~radius))
  in
  { mechs; ctx = Mechanism.batch mechs.(0) }

let setup ~seed () =
  let inputs = make_inputs ~seed in
  (inputs, new_fleet inputs)

let tenant_of i = i mod tenants
let slot_of inputs i = (inputs.offset + i) mod pool_size

let dense_mech _ =
  Mechanism.create
    (Mechanism.config ~variant:Mechanism.pure ~epsilon ())
    (Ellipsoid.ball ~dim:k ~radius)

(* The journal carries u = P·x, the mechanism's rank-k sufficient
   statistic at err = 0, so the log replays into dense k-dim state. *)
let event_of ~t (d : Mechanism.decision) ~u ~accepted : Broker.event =
  match d with
  | Mechanism.Skip ->
      {
        Broker.t; x = u; reserve = 0.; kind = Broker.Skipped;
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
        Broker.t; x = u; reserve = 0.; kind; price_index = price; lower;
        upper; posted = Some price; accepted;
        payment = (if accepted then price else 0.);
      }

(* Bitwise image of a mechanism's knowledge set (scale, center, shape).
   Reading the ellipsoid changes buffer reuse, so it is only called
   after the timed phases. *)
let state_digest m =
  let e = Mechanism.ellipsoid m in
  let dim = Vec.dim e.Ellipsoid.center in
  let buf = Buffer.create (8 * (1 + dim + (dim * dim))) in
  let add v = Buffer.add_int64_le buf (Int64.bits_of_float v) in
  add e.Ellipsoid.scale;
  Array.iter add e.Ellipsoid.center;
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      add (Mat.get e.Ellipsoid.shape i j)
    done
  done;
  Buffer.contents buf

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

(* Sleep until ~200 µs before [due], then spin: sleeping all the way
   would add the scheduler's wake-up slack to every arrival. *)
let wait_until due =
  let slack = due - Pass.now () - 200_000 in
  if slack > 0 then Unix.sleepf (float_of_int slack /. 1e9);
  while Pass.now () < due do
    ()
  done

(* The two phases alternate in [segments] rounds (open, then saturated)
   so that a slow spell of the machine lasting a few seconds spoils only
   some of the saturated segments, which are the throughput windows. *)
let segments = 8

let run ~trace ~dir ~seed ~b ~rate ~open_seg ~sat_seg inputs fleet_state =
  let { mechs; ctx } = fleet_state in
  let seg_len = open_seg + sat_seg in
  let total = segments * seg_len in
  let p = Pass.create ~trace ~capacity:((7 * total) + 64) ~windows:segments in
  let fleet =
    Fleet.create ~commit_bytes:(b * (128 + (12 * k))) ~latency_appends:b
      ~snapshot_every:0 ~dir ~tenants ()
  in
  let batcher = Batcher.create ~capacity:b ~latency_rounds:b in
  let due = Array.make total 0 in
  let quoted = Array.make total 0 in
  let durable = Array.make total 0 in
  let failed = Bytes.make total '\000' in
  let rounds = Array.make tenants 0 in
  let b_mechs = Array.make b mechs.(0) in
  let b_xs = Array.make b inputs.pool.(0) in
  let b_res = Array.make b 0. in
  let accepted = Array.make b false in
  let pending = Array.make b 0 and pending_at = Array.make b 0 in
  let npending = ref 0 in
  let appends = ref 0 and append_ns = ref 0 in
  let commits = ref 0 and commit_ns = ref 0 in
  let durable_wait_ns = ref 0 in
  let batch_wait_ns = ref 0 and flushes = ref 0 in
  let one = [| 0 |] in
  let x_of i = inputs.pool.(slot_of inputs i) in
  let mark_durable at =
    for j = 0 to !npending - 1 do
      durable.(pending.(j)) <- at;
      durable_wait_ns := !durable_wait_ns + (at - pending_at.(j))
    done;
    npending := 0
  in
  let flush batch =
    let nb = Array.length batch in
    let f0 = Pass.now () in
    let fid = Pass.enter p ~name:Pass.flush ~req:(-1) ~parent:(-1) ~start:f0 in
    let stage = ref Pass.decide in
    (match
       let ds =
         if b = 1 then
           let i = batch.(0) in
           [| Mechanism.decide mechs.(tenant_of i) ~x:(x_of i) ~reserve:0. |]
         else begin
           for j = 0 to nb - 1 do
             b_mechs.(j) <- mechs.(tenant_of batch.(j));
             b_xs.(j) <- x_of batch.(j)
           done;
           if nb = b then
             Mechanism.decide_batch ctx b_mechs ~xs:b_xs ~reserves:b_res
           else
             Mechanism.decide_batch ctx (Array.sub b_mechs 0 nb)
               ~xs:(Array.sub b_xs 0 nb) ~reserves:(Array.sub b_res 0 nb)
         end
       in
       let tq = Pass.now () in
       Pass.span p ~name:Pass.decide ~req:(-1) ~parent:fid ~start:f0 ~stop:tq;
       let t = ref tq in
       for j = 0 to nb - 1 do
         let i = batch.(j) in
         quoted.(i) <- tq;
         stage := Pass.buyer;
         let v = inputs.values.(slot_of inputs i).(tenant_of i) in
         let d = ds.(j) in
         let acc, regret =
           match d with
           | Mechanism.Skip ->
               (false, Regret.skipped ~reserve:Float.neg_infinity ~market_value:v)
           | Mechanism.Post { price; _ } ->
               (price <= v, Regret.posted ~market_value:v ~price ())
         in
         accepted.(j) <- acc;
         p.regret <- p.regret +. regret;
         p.value <- p.value +. v;
         Pass.count_decision p d;
         let tb = Pass.now () in
         Pass.span p ~name:Pass.buyer ~req:i ~parent:fid ~start:!t ~stop:tb;
         stage := Pass.observe;
         Mechanism.observe mechs.(tenant_of i) ~x:(x_of i) d ~accepted:acc;
         t := Pass.now ();
         Pass.span p ~name:Pass.observe ~req:i ~parent:fid ~start:tb ~stop:!t
       done;
       for j = 0 to nb - 1 do
         let i = batch.(j) in
         let tn = tenant_of i in
         stage := Pass.journal;
         let u =
           match Mechanism.projected_feature mechs.(tn) ~x:(x_of i) with
           | Some u -> u
           | None -> Array.copy (x_of i)
         in
         let e = event_of ~t:rounds.(tn) ds.(j) ~u ~accepted:accepted.(j) in
         let before = Fleet.fsync_count fleet in
         let ta = Pass.now () in
         Fleet.append fleet ~tenant:tn e;
         let te = Pass.now () in
         Pass.span p ~name:Pass.journal ~req:i ~parent:fid ~start:ta ~stop:te;
         rounds.(tn) <- rounds.(tn) + 1;
         pending.(!npending) <- i;
         pending_at.(!npending) <- te;
         incr npending;
         if Fleet.fsync_count fleet > before then begin
           incr commits;
           commit_ns := !commit_ns + (te - ta);
           mark_durable te
         end
         else begin
           incr appends;
           append_ns := !append_ns + (te - ta)
         end
       done
     with
    | () -> ()
    | exception _ ->
        p.errors.(!stage) <- p.errors.(!stage) + 1;
        Array.iter (fun i -> Bytes.set failed i '\001') batch);
    Pass.leave p fid ~stop:(Pass.now ())
  in
  let issue i ti =
    p.attempted <- p.attempted + 1;
    if b = 1 then begin
      one.(0) <- i;
      flush one
    end
    else
      match Batcher.add batcher i with
      | None ->
          Pass.span p ~name:Pass.batcher ~req:i ~parent:(-1) ~start:ti
            ~stop:(Pass.now ())
      | Some batch ->
          let tf = Pass.now () in
          Pass.span p ~name:Pass.batcher ~req:i ~parent:(-1) ~start:ti ~stop:tf;
          Array.iter (fun r -> batch_wait_ns := !batch_wait_ns + (tf - due.(r))) batch;
          incr flushes;
          flush batch
  in
  let final_flush () =
    (if b > 1 then
       let t0 = Pass.now () in
       match Batcher.flush batcher with
       | None -> ()
       | Some batch ->
           let tf = Pass.now () in
           Pass.span p ~name:Pass.batcher ~req:(-1) ~parent:(-1) ~start:t0 ~stop:tf;
           Array.iter (fun r -> batch_wait_ns := !batch_wait_ns + (tf - due.(r))) batch;
           incr flushes;
           flush batch);
    let before = Fleet.fsync_count fleet in
    let t0 = Pass.now () in
    Fleet.sync fleet;
    let t1 = Pass.now () in
    Pass.span p ~name:Pass.journal ~req:(-1) ~parent:(-1) ~start:t0 ~stop:t1;
    if Fleet.fsync_count fleet > before then begin
      incr commits;
      commit_ns := !commit_ns + (t1 - t0)
    end;
    mark_durable t1
  in
  let scheds =
    Array.init segments (fun s ->
        Arrivals.poisson ~seed:(Paper_loop.sub_seed seed (600 + s)) ~rate
          ~count:open_seg)
  in
  let lags = Array.make (segments * open_seg) 0. in
  let backlog_max = ref 0 in
  Pass.check p "no tenant is sent the same vector twice in a row"
    (let ok = ref true in
     for i = tenants to total - 1 do
       if slot_of inputs i = slot_of inputs (i - tenants) then ok := false
     done;
     !ok);
  Pass.gc_start p;
  let t_start = Pass.now () in
  for s = 0 to segments - 1 do
    let first = s * seg_len and sched = scheds.(s) in
    let base = Pass.now () in
    let arrived = ref 0 in
    for j = 0 to open_seg - 1 do
      let i = first + j in
      let d = base + sched.(j) in
      due.(i) <- d;
      let w0 = Pass.now () in
      wait_until d;
      let ti = Pass.now () in
      Pass.span p ~name:Pass.wait ~req:i ~parent:(-1) ~start:w0 ~stop:ti;
      lags.((s * open_seg) + j) <- float_of_int (ti - d) /. 1e3;
      while !arrived < open_seg && base + sched.(!arrived) <= ti do
        incr arrived
      done;
      backlog_max := max !backlog_max (!arrived - j);
      issue i ti
    done;
    let t_sat = Pass.now () in
    for i = first + open_seg to first + seg_len - 1 do
      let ti = Pass.now () in
      due.(i) <- ti;
      issue i ti
    done;
    p.rates.(s) <- float_of_int sat_seg /. (float_of_int (Pass.now () - t_sat) /. 1e9)
  done;
  final_flush ();
  let t_end = Pass.now () in
  Pass.gc_stop p;
  p.loop_ns <- t_end - t_start;
  (* Closed-loop samples come from the saturated segments, one window
     each; open-loop samples from the open segments, minus the warm-up
     at the start of the run. *)
  let drop = min warmup (open_seg / 2) in
  let samples ~closed =
    let q = Array.make total 0. and c = Array.make total 0. and n = ref 0 in
    for s = 0 to segments - 1 do
      if closed then p.lat_marks.(s) <- !n;
      let first = (s * seg_len) + (if closed then open_seg else 0) in
      let last = (s * seg_len) + (if closed then seg_len else open_seg) in
      for i = max first (if closed then 0 else drop) to last - 1 do
        if Bytes.get failed i = '\000' then begin
          q.(!n) <- float_of_int (quoted.(i) - due.(i)) /. 1e3;
          c.(!n) <- float_of_int (durable.(i) - due.(i)) /. 1e3;
          incr n
        end
      done
    done;
    if closed then p.lat_marks.(segments) <- !n;
    (Array.sub q 0 !n, Array.sub c 0 !n)
  in
  let q, c = samples ~closed:true in
  p.quote_us <- q;
  p.complete_us <- c;
  let q, c = samples ~closed:false in
  p.open_quote_us <- q;
  p.open_complete_us <- c;
  let failed_count () =
    let c = ref 0 in
    Bytes.iter (fun ch -> if ch <> '\000' then incr c) failed;
    !c
  in
  (* Durability: the group-commit rule gives exactly one fsync per B
     appended records, so every durability timestamp above is exact. *)
  let appended = Fleet.appended fleet in
  let fsyncs = Fleet.fsync_count fleet in
  Pass.check p
    (Printf.sprintf "fsync_count %d = ceil(%d appended / B=%d)" fsyncs appended b)
    (fsyncs = (appended + b - 1) / b && appended = total - failed_count ());
  Fleet.close fleet;
  let bytes = dir_bytes dir in
  let served = Array.map state_digest mechs in
  let bad_tenant = Array.make tenants false in
  let recover_s =
    Array.init 3 (fun _ ->
        let t0 = Pass.now () in
        let r = Fleet.recover ~initial:dense_mech ~dir ~tenants () in
        let t1 = Pass.now () in
        Pass.span p ~name:Pass.recover ~req:(-1) ~parent:(-1) ~start:t0 ~stop:t1;
        (match r with
        | Error _ | Ok (_, true) -> Array.fill bad_tenant 0 tenants true
        | Ok (recs, false) ->
            Array.iteri
              (fun tn (rc : Fleet.recovery) ->
                match rc.Fleet.mechanism with
                | Some m
                  when rc.Fleet.next_round = rounds.(tn)
                       && String.equal (state_digest m) served.(tn) ->
                    ()
                | _ -> bad_tenant.(tn) <- true)
              recs);
        float_of_int (t1 - t0) /. 1e9)
  in
  Pass.check p "clean tail; every tenant recovers to the served state bitwise"
    (not (Array.exists Fun.id bad_tenant));
  for i = 0 to total - 1 do
    if bad_tenant.(tenant_of i) then Bytes.set failed i '\001'
  done;
  if not (fsyncs = (appended + b - 1) / b) then Bytes.fill failed 0 total '\001';
  p.failed <- failed_count ();
  rm_rf dir;
  let per_req x = x /. float_of_int total in
  let mean_us ns c = if c = 0 then 0. else float_of_int ns /. float_of_int c /. 1e3 in
  let recover_med = Quantile.median recover_s in
  p.extra <-
    [
      ("recover_s", recover_med);
      ("recover.us_per_record", recover_med *. 1e6 /. float_of_int (max 1 appended));
      ("journal.append_us", mean_us !append_ns !appends);
      ("journal.commit_us", mean_us !commit_ns !commits);
      ("journal.commits_per_kreq", per_req (float_of_int fsyncs *. 1e3));
      ("journal.bytes_per_req", per_req (float_of_int bytes));
      ("journal.durable_wait_us", mean_us !durable_wait_ns appended);
      ("batcher.wait_us", if b = 1 then 0. else mean_us !batch_wait_ns total);
      ( "batcher.fill",
        if !flushes = 0 then 0.
        else float_of_int total /. float_of_int (!flushes * b) );
      ("harness.gen_lag_p99_us", Quantile.nearest_rank (Quantile.sorted lags) 0.99);
      ("harness.backlog_max", float_of_int !backlog_max);
    ];
  p

(* Isolated replays of the projection kernels on the run's own inputs
   (traced runs only; not part of any loop time), on whatever default
   pool is installed; [suffix] tells the two apart in the report. *)
let kernel_replays ~suffix inputs =
  let reps = 1_024 in
  let into = Vec.zeros k in
  let t0 = Pass.now () in
  for i = 0 to reps - 1 do
    ignore (Mat.project ~into inputs.basis (inputs.pool.(slot_of inputs i)))
  done;
  let project_us = float_of_int (Pass.now () - t0) /. 1e3 /. float_of_int reps in
  let pt = Mat.transpose inputs.basis in
  let batches = reps / tenants in
  let panel = Mat.zeros tenants n and out = Mat.zeros tenants k in
  let ns = ref 0 in
  for bi = 0 to batches - 1 do
    ignore
      (Mat.pack_rows ~into:panel
         (Array.init tenants (fun j -> inputs.pool.(slot_of inputs ((bi * tenants) + j)))));
    let t0 = Pass.now () in
    ignore (Mat.project_batch ~into:out ~pt panel);
    ns := !ns + (Pass.now () - t0)
  done;
  [
    ("kernel.project" ^ suffix ^ "_us", project_us);
    ( "kernel.project_batch" ^ suffix ^ "_us",
      float_of_int !ns /. 1e3 /. float_of_int batches );
  ]
