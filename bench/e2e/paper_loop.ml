(* The paper's closed loop, App 1 and App 3: one broker prices one
   query at a time and the generator issues the next query only after
   the previous one is observed.  Markets run one after another. *)

module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Dp = Dm_privacy.Dp
module Comp = Dm_privacy.Compensation
module Movielens = Dm_synth.Movielens
module Linear_query = Dm_synth.Linear_query
module Avazu = Dm_synth.Avazu
module Hashing = Dm_ml.Hashing
module Model = Dm_market.Model
module Mechanism = Dm_market.Mechanism
module Feature = Dm_market.Feature
module Broker = Dm_market.Broker
module Regret = Dm_market.Regret
module Noisy_query = Dm_apps.Noisy_query
module Impression = Dm_apps.Impression

type market = {
  model : Model.t;
  mech : Mechanism.t;
  fresh : unit -> Mechanism.t;  (** [mech]'s initial state, for the replay *)
  gen : unit -> float;
      (** generator: draw the next query (kept by the market) and
          return its index-space noise *)
  phi : unit -> Vec.t * float;
      (** broker: feature vector and value-space reserve of the drawn
          query *)
}

let sub_seed seed i = (seed * 1_000_003) + (i * 7_919)

(* Markets (hidden weights, owner corpus, hashed model, basis) come from
   this fixed seed and only the traffic from --seed: runs on different
   seeds then price the same markets, so what varies between them is the
   stream of requests and not how hard the market is to learn. *)
let market_seed = 1

(* App 1 (Fig. 5(a)): Algorithm 2 with reserve and δ = 0.01 over
   n = 100 compensation features.  The market is built for the paper's
   10⁵-round horizon (which fixes ε and σ) whatever prefix a run plays. *)
let app1_market ~seed m =
  let nq =
    Noisy_query.make ~seed:(sub_seed market_seed m) ~dim:100 ~rounds:100_000 ()
  in
  let variant =
    Mechanism.with_reserve_and_uncertainty ~delta:nq.Noisy_query.delta
  in
  let owners = nq.Noisy_query.owners and dim = nq.Noisy_query.dim in
  let data_ranges = Movielens.data_ranges nq.Noisy_query.corpus in
  let contracts = Movielens.contracts nq.Noisy_query.corpus in
  let qrng = Rng.create (sub_seed seed (100 + m)) in
  let nrng = Rng.create (sub_seed seed (200 + m)) in
  let query =
    ref (Dp.make_query ~weights:(Vec.zeros owners) ~noise_scale:1.)
  in
  {
    model = nq.Noisy_query.model;
    mech = Noisy_query.mechanism nq variant;
    fresh = (fun () -> Noisy_query.mechanism nq variant);
    gen =
      (fun () ->
        query := Linear_query.draw qrng ~dist:Linear_query.Mixed ~owners;
        Dist.normal nrng ~mean:0. ~std:nq.Noisy_query.sigma);
    phi =
      (fun () ->
        let leakages = Dp.leakage !query ~data_ranges in
        Feature.of_compensations ~dim (Comp.per_owner ~contracts ~leakages));
  }

let app1_setup ~seed ~markets () () = Array.init markets (app1_market ~seed)

(* App 3 (Fig. 5(c), sparse case): θ* from FTRL over hashed Avazu-style
   impressions, then the pure variant at ε = n²/T for T = 10⁵ over
   fresh impressions, one-hot hashed into n = 1024 buckets. *)
let app3_dim = 1_024

let app3_setup ~seed ~markets ~train_rounds () =
  let imp =
    Impression.make ~train_rounds ~seed:(sub_seed market_seed 0) ~dim:app3_dim
      ~rounds:1 ()
  in
  let model = Impression.model imp Impression.Sparse in
  let epsilon = float_of_int (app3_dim * app3_dim) /. 100_000. in
  let mechanism () =
    Impression.mechanism ~epsilon imp Impression.Sparse Mechanism.pure
  in
  fun () ->
    Array.init markets (fun m ->
        let rng = Rng.create (sub_seed seed (300 + m)) in
        let cur = ref { Avazu.fields = []; clicked = false } in
        {
          model;
          mech = mechanism ();
          fresh = mechanism;
          gen =
            (fun () ->
              cur := (Avazu.generate rng ~rounds:1).(0);
              0.);
          phi =
            (fun () ->
              (Hashing.to_dense ~dim:app3_dim (Avazu.encode ~dim:app3_dim !cur), 0.));
        })

(* The first rounds of each market, kept for the replay check: inputs
   as sparse (index, value) pairs, plus what the loop decided. *)
type record = {
  idx : int array array;
  vals : float array array;
  q : float array;
  noise : float array;
  posted : float array;  (** value space; NaN on skips *)
  kind : Broker.kind array;
  accepted : bool array;
  regret : float array;
}

let replay_rounds = 10_000

let new_record n =
  {
    idx = Array.make n [||];
    vals = Array.make n [||];
    q = Array.make n 0.;
    noise = Array.make n 0.;
    posted = Array.make n Float.nan;
    kind = Array.make n Broker.Skipped;
    accepted = Array.make n false;
    regret = Array.make n 0.;
  }

let keep rc t x ~q ~noise ~posted ~kind ~accepted ~regret =
  let nnz = Array.fold_left (fun c v -> if v <> 0. then c + 1 else c) 0 x in
  let idx = Array.make nnz 0 and vals = Array.make nnz 0. in
  let k = ref 0 in
  Array.iteri
    (fun i v ->
      if v <> 0. then begin
        idx.(!k) <- i;
        vals.(!k) <- v;
        incr k
      end)
    x;
  rc.idx.(t) <- idx;
  rc.vals.(t) <- vals;
  rc.q.(t) <- q;
  rc.noise.(t) <- noise;
  rc.posted.(t) <- posted;
  rc.kind.(t) <- kind;
  rc.accepted.(t) <- accepted;
  rc.regret.(t) <- regret

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Replays the recorded rounds through [Broker.run] with a fresh
   mechanism: decisions, kinds, outcomes and regret must be
   bit-identical to the loop's. *)
let replay_ok m rc ~n =
  n = 0
  ||
  let dim = Model.index_dim m.model in
  let dense t =
    let x = Vec.zeros dim in
    Array.iteri (fun k i -> x.(i) <- rc.vals.(t).(k)) rc.idx.(t);
    x
  in
  let r =
    Broker.run ~checkpoints:[| n |] ~record_rounds:true
      ~policy:(Broker.Ellipsoid_pricing (m.fresh ()))
      ~model:m.model
      ~noise:(fun t -> rc.noise.(t))
      ~workload:(fun t -> (dense t, rc.q.(t)))
      ~rounds:n ()
  in
  match r.Broker.logs with
  | None -> false
  | Some logs ->
      let ok = ref (Array.length logs = n) in
      Array.iteri
        (fun t (l : Broker.round) ->
          let posted_same =
            match l.Broker.posted with
            | None -> Float.is_nan rc.posted.(t)
            | Some p -> same_float p rc.posted.(t)
          in
          if
            not
              (posted_same && l.Broker.kind = rc.kind.(t)
              && l.Broker.accepted = rc.accepted.(t)
              && same_float l.Broker.regret rc.regret.(t))
          then ok := false)
        logs;
      !ok

(* [lat] counts the latency samples written so far; a failed request
   leaves none. *)
let run_market (p : Pass.t) m ~rounds ~base ~lat ~marks ~wpm ~wbase rc =
  let with_reserve =
    (Mechanism.config_of m.mech).Mechanism.variant.Mechanism.use_reserve
  in
  let n_rec = Array.length rc.q in
  let next = ref 0 in
  for t = 0 to rounds - 1 do
    let req = base + t in
    let stage = ref Pass.gen in
    p.attempted <- p.attempted + 1;
    let t0 = Pass.now () in
    if !next < wpm && t = !next * rounds / wpm then begin
      marks.(wbase + !next) <- t0;
      p.lat_marks.(wbase + !next) <- !lat;
      incr next
    end;
    match
      let noise = m.gen () in
      let t1 = Pass.now () in
      stage := Pass.phi;
      let x, q = m.phi () in
      let t2 = Pass.now () in
      stage := Pass.decide;
      let d =
        Mechanism.decide m.mech ~x ~reserve:(Model.index_of_price m.model q)
      in
      let t3 = Pass.now () in
      stage := Pass.buyer;
      let market_index = Model.index m.model x +. noise in
      let market_value = Model.price_of_index m.model market_index in
      let accepted, posted, kind, regret =
        match d with
        | Mechanism.Skip ->
            (false, Float.nan, Broker.Skipped, Regret.skipped ~reserve:q ~market_value)
        | Mechanism.Post { price; kind; _ } ->
            let pv = Model.price_of_index m.model price in
            let regret =
              if with_reserve then
                Regret.posted ~reserve:q ~market_value ~price:pv ()
              else Regret.posted ~market_value ~price:pv ()
            in
            let kind =
              match kind with
              | Mechanism.Exploratory -> Broker.Exploratory
              | Mechanism.Conservative -> Broker.Conservative
            in
            (price <= market_index, pv, kind, regret)
      in
      p.regret <- p.regret +. regret;
      p.value <- p.value +. market_value;
      Pass.count_decision p d;
      if t < n_rec then keep rc t x ~q ~noise ~posted ~kind ~accepted ~regret;
      let t4 = Pass.now () in
      stage := Pass.observe;
      Mechanism.observe m.mech ~x d ~accepted;
      let t5 = Pass.now () in
      p.quote_us.(!lat) <- float_of_int (t3 - t1) /. 1e3;
      p.complete_us.(!lat) <- float_of_int (t5 - t1) /. 1e3;
      incr lat;
      Pass.span p ~name:Pass.gen ~req ~parent:(-1) ~start:t0 ~stop:t1;
      Pass.span p ~name:Pass.phi ~req ~parent:(-1) ~start:t1 ~stop:t2;
      Pass.span p ~name:Pass.decide ~req ~parent:(-1) ~start:t2 ~stop:t3;
      Pass.span p ~name:Pass.buyer ~req ~parent:(-1) ~start:t3 ~stop:t4;
      Pass.span p ~name:Pass.observe ~req ~parent:(-1) ~start:t4 ~stop:t5
    with
    | () -> ()
    | exception _ ->
        p.errors.(!stage) <- p.errors.(!stage) + 1;
        p.failed <- p.failed + 1
  done

(* Timings are summarized per window of consecutive requests, so that
   a slow spell of the machine only spoils some windows.  A window never
   spans two markets: App 3's markets each explore from scratch, so only
   whole markets are comparable there; App 1's two markets are cut into
   quarters. *)
let windows = 8

let run ~trace ~rounds (markets : market array) =
  let nm = Array.length markets in
  let total = nm * rounds in
  let wpm = max 1 (min rounds (windows / nm)) in
  let nw = nm * wpm in
  let marks = Array.make (nw + 1) 0 in
  let p = Pass.create ~trace ~capacity:((5 * total) + 16) ~windows:nw in
  let n_rec = min rounds replay_rounds in
  let records = Array.init nm (fun _ -> new_record n_rec) in
  let failed_in = Array.make nm 0 in
  p.quote_us <- Array.make total 0.;
  p.complete_us <- Array.make total 0.;
  let lat = ref 0 in
  Pass.gc_start p;
  let t0 = Pass.now () in
  Array.iteri
    (fun i m ->
      let f0 = p.failed in
      run_market p m ~rounds ~base:(i * rounds) ~lat ~marks ~wpm ~wbase:(i * wpm)
        records.(i);
      failed_in.(i) <- p.failed - f0)
    markets;
  let t_end = Pass.now () in
  Pass.gc_stop p;
  p.loop_ns <- t_end - t0;
  marks.(nw) <- t_end;
  p.lat_marks.(nw) <- !lat;
  for w = 0 to nw - 1 do
    let j = w mod wpm in
    let reqs = ((j + 1) * rounds / wpm) - (j * rounds / wpm) in
    p.rates.(w) <- float_of_int reqs /. (float_of_int (marks.(w + 1) - marks.(w)) /. 1e9)
  done;
  p.quote_us <- Array.sub p.quote_us 0 !lat;
  p.complete_us <- Array.sub p.complete_us 0 !lat;
  (* A market whose replay diverges fails every one of its requests. *)
  Array.iteri
    (fun i m ->
      let ok = replay_ok m records.(i) ~n:n_rec in
      Pass.check p (Printf.sprintf "market %d replays bit-identically" i) ok;
      if not ok then p.failed <- p.failed + rounds - failed_in.(i))
    markets;
  p
