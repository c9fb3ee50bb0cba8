module Vec = Dm_linalg.Vec
module Stats = Dm_prob.Stats

type custom_policy = {
  policy_name : string;
  decide : x:Vec.t -> reserve:float -> float option;
  learn : x:Vec.t -> price:float -> accepted:bool -> unit;
  uses_reserve : bool;
}

type policy =
  | Ellipsoid_pricing of Mechanism.t
  | Risk_averse
  | Custom of custom_policy

type kind = Exploratory | Conservative | Skipped | Baseline

type event = {
  t : int;
  x : Vec.t;
  reserve : float;
  kind : kind;
  price_index : float;
  lower : float;
  upper : float;
  posted : float option;
  accepted : bool;
  payment : float;
}

(* Shared audit triple for rounds run without a journal sink, so the
   no-journal hot path allocates nothing extra per round. *)
let no_audit = (Float.nan, Float.nan, Float.nan)

type round = {
  index : int;
  reserve : float;
  market_value : float;
  posted : float option;
  kind : kind;
  accepted : bool;
  revenue : float;
  regret : float;
}

type series = {
  checkpoints : int array;
  cumulative_regret : float array;
  cumulative_value : float array;
  regret_ratio : float array;
}

type result = {
  rounds : int;
  total_regret : float;
  total_value : float;
  total_revenue : float;
  regret_ratio : float;
  series : series;
  market_value_stats : Stats.summary;
  reserve_stats : Stats.summary;
  posted_stats : Stats.summary;
  regret_stats : Stats.summary;
  exploratory : int;
  conservative : int;
  skipped : int;
  accepted_rounds : int;
  logs : round array option;
}

let default_checkpoints ~rounds =
  if rounds < 1 then invalid_arg "Broker.default_checkpoints: empty horizon";
  let target = 200 in
  let ratio = (float_of_int rounds) ** (1. /. float_of_int target) in
  let rec collect acc last x =
    if last >= rounds then List.rev acc
    else
      let next = max (last + 1) (int_of_float (Float.round x)) in
      let next = min next rounds in
      collect (next :: acc) next (x *. ratio)
  in
  Array.of_list (collect [ 1 ] 1 ratio)

let uses_reserve = function
  | Risk_averse -> true
  | Ellipsoid_pricing m -> (Mechanism.config_of m).Mechanism.variant.use_reserve
  | Custom c -> c.uses_reserve

(* The checkpoint-consumption loop assumes strictly increasing 1-based
   rounds; a malformed array would silently drop checkpoints and leave
   zeroed series entries. *)
let resolve_checkpoints ~rounds = function
  | Some c ->
      Array.iteri
        (fun i cp ->
          if cp < 1 || cp > rounds then
            invalid_arg "Broker.run: checkpoint outside [1, rounds]";
          if i > 0 && cp <= c.(i - 1) then
            invalid_arg "Broker.run: checkpoints must be strictly increasing")
        c;
      c
  | None -> default_checkpoints ~rounds

let run ?checkpoints ?(record_rounds = false) ?journal ~policy ~model ~noise
    ~workload ~rounds () =
  if rounds < 1 then invalid_arg "Broker.run: need at least one round";
  let journaling = Option.is_some journal in
  let checkpoints = resolve_checkpoints ~rounds checkpoints in
  let n_checks = Array.length checkpoints in
  let cum_regret_at = Array.make n_checks 0. in
  let cum_value_at = Array.make n_checks 0. in
  let ratio_at = Array.make n_checks 0. in
  let next_check = ref 0 in
  let mv_stats = Stats.online_create () in
  let rs_stats = Stats.online_create () in
  let post_stats = Stats.online_create () in
  let regret_stats = Stats.online_create () in
  let cum_regret = ref 0. in
  let cum_value = ref 0. in
  let cum_revenue = ref 0. in
  let exploratory = ref 0 in
  let conservative = ref 0 in
  let skipped = ref 0 in
  let accepted_rounds = ref 0 in
  let logs = if record_rounds then Some (ref []) else None in
  let with_reserve = uses_reserve policy in
  let theta = model.Model.theta in
  let link = model.Model.link in
  for t = 0 to rounds - 1 do
    let x_raw, q_value = workload t in
    let phi = Model.feature_map model x_raw in
    let delta_t = noise t in
    let market_index = Vec.dot phi theta +. delta_t in
    let market_value = link.Model.g market_index in
    let posted, kind, accepted, audit =
      match policy with
      | Risk_averse ->
          let audit =
            if journaling then (link.Model.g_inv q_value, Float.nan, Float.nan)
            else no_audit
          in
          (Some q_value, Baseline, q_value <= market_value, audit)
      | Custom c -> (
          let reserve_index = link.Model.g_inv q_value in
          match c.decide ~x:phi ~reserve:reserve_index with
          | None -> (None, Skipped, false, no_audit)
          | Some price ->
              let accepted = price <= market_index in
              c.learn ~x:phi ~price ~accepted;
              let audit =
                if journaling then (price, Float.nan, Float.nan) else no_audit
              in
              (Some (link.Model.g price), Baseline, accepted, audit))
      | Ellipsoid_pricing mech ->
          let reserve_index = link.Model.g_inv q_value in
          let decision = Mechanism.decide mech ~x:phi ~reserve:reserve_index in
          let accepted =
            match decision with
            | Mechanism.Skip -> false
            | Mechanism.Post { price; _ } -> price <= market_index
          in
          Mechanism.observe mech ~x:phi decision ~accepted;
          let posted, kind, audit =
            match decision with
            | Mechanism.Skip -> (None, Skipped, no_audit)
            | Mechanism.Post { price; kind = mkind; lower; upper } ->
                let kind =
                  match mkind with
                  | Mechanism.Exploratory -> Exploratory
                  | Mechanism.Conservative -> Conservative
                in
                let audit =
                  if journaling then (price, lower, upper) else no_audit
                in
                (Some (link.Model.g price), kind, audit)
          in
          (posted, kind, accepted, audit)
    in
    let regret =
      match posted with
      | None -> Regret.skipped ~reserve:q_value ~market_value
      | Some p ->
          if with_reserve then
            Regret.posted ~reserve:q_value ~market_value ~price:p ()
          else Regret.posted ~market_value ~price:p ()
    in
    let revenue =
      match posted with
      | Some p when accepted -> p
      | Some _ | None -> 0.
    in
    (match kind with
    | Exploratory -> incr exploratory
    | Conservative -> incr conservative
    | Skipped -> incr skipped
    | Baseline -> ());
    if accepted then incr accepted_rounds;
    cum_regret := !cum_regret +. regret;
    cum_value := !cum_value +. market_value;
    cum_revenue := !cum_revenue +. revenue;
    Stats.online_add mv_stats market_value;
    Stats.online_add rs_stats q_value;
    (match posted with Some p -> Stats.online_add post_stats p | None -> ());
    Stats.online_add regret_stats regret;
    (match journal with
    | Some sink ->
        let price_index, lower, upper = audit in
        sink
          {
            t;
            x = phi;
            reserve = q_value;
            kind;
            price_index;
            lower;
            upper;
            posted;
            accepted;
            payment = revenue;
          }
    | None -> ());
    (match logs with
    | Some cell ->
        cell :=
          {
            index = t;
            reserve = q_value;
            market_value;
            posted;
            kind;
            accepted;
            revenue;
            regret;
          }
          :: !cell
    | None -> ());
    while !next_check < n_checks && checkpoints.(!next_check) = t + 1 do
      cum_regret_at.(!next_check) <- !cum_regret;
      cum_value_at.(!next_check) <- !cum_value;
      ratio_at.(!next_check) <-
        (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
      incr next_check
    done
  done;
  {
    rounds;
    total_regret = !cum_regret;
    total_value = !cum_value;
    total_revenue = !cum_revenue;
    regret_ratio =
      (if !cum_value > 0. then !cum_regret /. !cum_value else 0.);
    series =
      {
        checkpoints;
        cumulative_regret = cum_regret_at;
        cumulative_value = cum_value_at;
        regret_ratio = ratio_at;
      };
    market_value_stats = Stats.summarize mv_stats;
    reserve_stats = Stats.summarize rs_stats;
    posted_stats = Stats.summarize post_stats;
    regret_stats = Stats.summarize regret_stats;
    exploratory = !exploratory;
    conservative = !conservative;
    skipped = !skipped;
    accepted_rounds = !accepted_rounds;
    logs = Option.map (fun cell -> Array.of_list (List.rev !cell)) logs;
  }
