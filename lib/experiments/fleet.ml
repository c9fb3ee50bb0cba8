module Broker = Dm_market.Broker
module Mechanism = Dm_market.Mechanism
module Pool = Dm_linalg.Pool
module Rng = Dm_prob.Rng
module Journal = Dm_store.Journal
module Fleet_store = Dm_store.Fleet

let dim = 4
let full_tenants = 1_000
let tenant_rounds = 240
let snapshot_every = 100

let scaled_tenants scale =
  max 8 (int_of_float (Float.round (scale *. float_of_int full_tenants)))

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> failwith ("Fleet.report: " ^ msg)

(* Per-tenant market spec, derived from [Rng.split] children of the
   root stream *before* any dispatch, in tenant order — the standard
   contract that keeps every downstream phase a pure function of
   (seed, scale) whatever the jobs value. *)
let make_specs ~seed ~tenants =
  let root = Rng.create seed in
  let variants = Array.of_list Replay_market.variants in
  let specs = Array.make tenants (0, variants.(0)) in
  for i = 0 to tenants - 1 do
    let child = Rng.split root in
    specs.(i) <-
      (Rng.int child 0x3FFF_FFFF, variants.(i mod Array.length variants))
  done;
  specs

let make_setup tseed =
  Replay_market.make_setup ~dim ~seed:tseed ~rounds:tenant_rounds ()

type _ Effect.t += Journal_event : Broker.event -> unit Effect.t

(* Cooperative round-robin host: every tenant's [Broker.run] executes
   as a fiber that yields at its journal sink ([Journal_event]); the
   scheduler resumes fibers FIFO, so the ~10³ markets genuinely
   interleave round-by-round on one domain and the shared journal
   sees a deterministic round-robin global append order.  [emit i e]
   runs at perform time, i.e. in that global order. *)
let host ~emit (runs : (unit -> 'a) array) : 'a array =
  let open Effect.Deep in
  let n = Array.length runs in
  let out = Array.make n None in
  let runq = Queue.create () in
  let start i () =
    match_with
      (fun () -> out.(i) <- Some (runs.(i) ()))
      ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Journal_event e ->
                Some
                  (fun (k : (a, _) continuation) ->
                    emit i e;
                    Queue.add (fun () -> continue k ()) runq)
            | _ -> None);
      }
  in
  for i = 0 to n - 1 do
    Queue.add (start i) runq
  done;
  while not (Queue.is_empty runq) do
    (Queue.pop runq) ()
  done;
  Array.map Option.get out

(* One tenant's [Broker.run] as a host fiber: identical stream and
   policy to its solo reference, with the journal sink routed through
   the effect. *)
let tenant_run ~setup ~mech ~rounds () =
  Broker.run
    ~journal:(fun e -> Effect.perform (Journal_event e))
    ~policy:(Broker.Ellipsoid_pricing mech)
    ~model:setup.Replay_market.model ~noise:setup.Replay_market.noise
    ~workload:setup.Replay_market.workload ~rounds ()

let result_identical (a : Broker.result) (b : Broker.result) =
  let bits = Replay_market.bits in
  Replay_market.series_identical a.Broker.series b.Broker.series
  && bits a.Broker.total_regret = bits b.Broker.total_regret
  && bits a.Broker.total_value = bits b.Broker.total_value

let report ?pool ?(scale = 1.) ?(seed = 42) ?(jobs = 1) ppf =
  let tenants = scaled_tenants scale in
  let specs = make_specs ~seed ~tenants in
  let frng = Rng.create (seed + 7919) in
  let crash_round =
    let base = (tenant_rounds * 3 / 5) + Rng.int frng 7 - 3 in
    max (snapshot_every + 1) (min (tenant_rounds - 1) base)
  in
  let keep = Rng.float frng in
  let junk =
    String.init (1 + Rng.int frng 24) (fun _ -> Char.chr (Rng.int frng 256))
  in
  let go pool =
    (* Phase 1 — solo references, one independent cell per tenant:
       the uninterrupted [Broker.run] result plus its encoded journal
       stream (for the on-disk round-trip check below). *)
    let refs =
      Runner.map ?pool ~jobs
        (fun (tenant, (tseed, (_, variant))) ->
          let setup = make_setup tseed in
          let mech = Replay_market.mechanism setup variant in
          let buf = Buffer.create 4096 in
          let res =
            Broker.run
              ~journal:(fun e ->
                Buffer.add_string buf (Journal.encode_event ~tenant e))
              ~policy:(Broker.Ellipsoid_pricing mech)
              ~model:setup.Replay_market.model ~noise:setup.Replay_market.noise
              ~workload:setup.Replay_market.workload ~rounds:tenant_rounds ()
          in
          (res, Buffer.contents buf))
        (Array.mapi (fun i spec -> (i, spec)) specs)
    in
    (* Phase 2 — the live fleet: all tenants interleaved on the shared
       group-commit journal, then compared to their solo runs and the
       log read back and re-encoded against the solo streams. *)
    let live, fsyncs_live, appended_live =
      Runner.with_scratch_dir "fleet_tmp-live" @@ fun dir_live ->
      let fleet =
        Fleet_store.create ~segment_bytes:(256 * 1024) ~latency_appends:2048
          ~snapshot_every ~dir:dir_live ~tenants ()
      in
      let mechs =
        Array.map
          (fun (tseed, (_, variant)) ->
            Replay_market.mechanism (make_setup tseed) variant)
          specs
      in
      let runs =
        Array.mapi
          (fun i (tseed, _) ->
            tenant_run ~setup:(make_setup tseed) ~mech:mechs.(i)
              ~rounds:tenant_rounds)
          specs
      in
      let results =
        host
          ~emit:(fun i e -> Fleet_store.sink fleet ~tenant:i ~mech:mechs.(i) e)
          runs
      in
      Fleet_store.close fleet;
      let fsyncs = Fleet_store.fsync_count fleet in
      let appended = Fleet_store.appended fleet in
      let tagged, tail = ok_or_fail (Fleet_store.read_dir ~dir:dir_live) in
      let tail_clean = match tail with Fleet_store.Clean -> true | _ -> false in
      let streams = Array.init tenants (fun _ -> Buffer.create 4096) in
      List.iter
        (fun (tn, e) ->
          Buffer.add_string streams.(tn) (Journal.encode_event ~tenant:tn e))
        tagged;
      let per_tenant =
        Array.mapi
          (fun i res ->
            let live_ok = result_identical res (fst refs.(i)) in
            let log_ok =
              tail_clean
              && String.equal (Buffer.contents streams.(i)) (snd refs.(i))
            in
            (live_ok, log_ok))
          results
      in
      (per_tenant, fsyncs, appended)
    in
    (* Phase 3 — kill, recover, compact, resume: the fleet run again
       to a seeded crash round, hard-killed via [simulate_crash], all
       tenants recovered from the shared log + their own snapshots,
       compaction checked state-preserving, and every tenant resumed
       over the full horizon through [Recover.resume]. *)
    let resume_ok, compact_all_ok, deleted_segs, snap_round0, replayed0 =
      Runner.with_scratch_dir "fleet_tmp-crash" @@ fun dir_crash ->
      (* Tiny segments and a tight latency bound (eight global rounds)
         so rotation, journal-tail replay beyond the last snapshot and
         compaction are all exercised even at smoke scale. *)
      let fleet =
        Fleet_store.create ~segment_bytes:(64 * 1024)
          ~latency_appends:(tenants * 8) ~snapshot_every ~dir:dir_crash
          ~tenants ()
      in
      let mechs =
        Array.map
          (fun (tseed, (_, variant)) ->
            Replay_market.mechanism (make_setup tseed) variant)
          specs
      in
      let runs =
        Array.mapi
          (fun i (tseed, _) ->
            tenant_run ~setup:(make_setup tseed) ~mech:mechs.(i)
              ~rounds:crash_round)
          specs
      in
      ignore
        (host
           ~emit:(fun i e -> Fleet_store.sink fleet ~tenant:i ~mech:mechs.(i) e)
           runs);
      Fleet_store.simulate_crash fleet ~keep ~junk;
      let initial tn =
        let tseed, (_, variant) = specs.(tn) in
        Replay_market.mechanism (make_setup tseed) variant
      in
      let rec1, _torn1 =
        ok_or_fail (Fleet_store.recover ~initial ~dir:dir_crash ~tenants ())
      in
      let states1 =
        Array.map
          (fun r ->
            Mechanism.snapshot_binary (Option.get r.Fleet_store.mechanism))
          rec1
      in
      let deleted =
        ok_or_fail (Fleet_store.compact ~dir:dir_crash ~tenants)
      in
      let rec2, _torn2 =
        ok_or_fail (Fleet_store.recover ~initial ~dir:dir_crash ~tenants ())
      in
      let compact_ok =
        Array.for_all2
          (fun (r1 : Fleet_store.recovery) (r2 : Fleet_store.recovery) ->
            r1.Fleet_store.next_round = r2.Fleet_store.next_round)
          rec1 rec2
        && Array.for_all2
             (fun s (r2 : Fleet_store.recovery) ->
               String.equal s
                 (Mechanism.snapshot_binary
                    (Option.get r2.Fleet_store.mechanism)))
             states1 rec2
      in
      (* Resume from the post-compaction state, but replay the prefix
         decisions from the pre-compaction audit trail — compaction
         deletes the journal head the snapshots already cover, so only
         [rec1] still holds every round from 0. *)
      let resumed =
        Runner.map ?pool ~jobs
          (fun tn ->
            let tseed, (name, variant) = specs.(tn) in
            let setup = make_setup tseed in
            Recover.resume ~name ~setup ~variant
              ~mech:(Option.get rec2.(tn).Fleet_store.mechanism)
              ~events:rec1.(tn).Fleet_store.events
              ~prefix:rec1.(tn).Fleet_store.next_round ~rounds:tenant_rounds)
          (Array.init tenants Fun.id)
      in
      let resume_ok =
        Array.mapi (fun i res -> result_identical res (fst refs.(i))) resumed
      in
      ( resume_ok,
        compact_ok,
        deleted,
        rec1.(0).Fleet_store.snapshot_round,
        rec1.(0).Fleet_store.replayed )
    in
    (* Per-variant aggregation for the table, plus the grep-able
       whole-fleet verdict. *)
    let n_variants = List.length Replay_market.variants in
    let rows =
      List.mapi
        (fun vi (name, _) ->
          let count = ref 0 and live_n = ref 0 and log_n = ref 0 in
          let res_n = ref 0 in
          Array.iteri
            (fun i (l, g) ->
              if i mod n_variants = vi then begin
                incr count;
                if l then incr live_n;
                if g then incr log_n;
                if resume_ok.(i) then incr res_n
              end)
            live;
          [
            name;
            string_of_int !count;
            Printf.sprintf "%d/%d" !live_n !count;
            Printf.sprintf "%d/%d" !log_n !count;
            Printf.sprintf "%d/%d" !res_n !count;
          ])
        Replay_market.variants
    in
    Table.print ppf
      ~title:
        (Printf.sprintf
           "Broker fleet (tenants = %d, n = %d, T = %d per tenant): live \
            run, shared-journal slice and kill@%d -> recover -> resume, \
            each vs the tenant's solo run"
           tenants dim tenant_rounds crash_round)
      ~header:[ "variant"; "tenants"; "live"; "journal"; "resume" ]
      rows;
    let per_fsync =
      if fsyncs_live = 0 then 0.
      else float_of_int appended_live /. float_of_int fsyncs_live
    in
    Format.fprintf ppf
      "Group commit: %d tenant-rounds, %d fsyncs (%.1f appends/fsync, %.2e \
       fsyncs per tenant-round vs 1.0 for per-tenant fsync journaling).@."
      appended_live fsyncs_live per_fsync
      (if appended_live = 0 then 0.
       else float_of_int fsyncs_live /. float_of_int appended_live);
    Format.fprintf ppf
      "Recovery: snapshot@%d + %d replayed for tenant 0; compaction %s \
       (-%d segment(s)).@."
      snap_round0 replayed0
      (if compact_all_ok then "state-preserving" else "DRIFTED")
      deleted_segs;
    let all_ok = ref 0 in
    Array.iteri
      (fun i (l, g) ->
        if l && g && resume_ok.(i) && compact_all_ok then incr all_ok)
      live;
    Format.fprintf ppf
      "Fleet: %d/%d tenants bit-identical to their solo runs, live and \
       after kill, recover and resume.@.@."
      !all_ok tenants
  in
  match pool with
  | Some _ -> go pool
  | None -> (
      match Pool.get_default () with
      | Some _ -> go None
      | None when jobs > 1 -> Pool.with_pool ~jobs (fun p -> go (Some p))
      | None -> go None)

let journal_amortization ?(seed = 42) ?(tenants = 64) ?(rounds = 300)
    ?(reps = 2) () =
  if tenants < 1 then
    invalid_arg "Fleet.journal_amortization: need at least one tenant";
  if rounds < 1 then
    invalid_arg "Fleet.journal_amortization: need at least one round";
  if reps < 1 then invalid_arg "Fleet.journal_amortization: need at least one rep";
  let specs = make_specs ~seed ~tenants in
  let one tag =
    Runner.with_scratch_dir ("fleet_bench-" ^ tag) @@ fun dir ->
    let setups =
      Array.map
        (fun (tseed, _) ->
          Replay_market.make_setup ~dim ~seed:tseed ~rounds ())
        specs
    in
    let mechs =
      Array.mapi
        (fun i (_, (_, variant)) ->
          Replay_market.mechanism setups.(i) variant)
        specs
    in
    let runs =
      Array.mapi (fun i _ -> tenant_run ~setup:setups.(i) ~mech:mechs.(i) ~rounds)
        specs
    in
    (* No periodic snapshots: like [Recover.journal_overhead], the
       stage isolates the journal path itself.  The final [sync] puts
       the closing group barrier inside the timed window, so the
       figure covers full durability of every round. *)
    let fleet = Fleet_store.create ~snapshot_every:0 ~dir ~tenants () in
    let t0 = Unix.gettimeofday () in
    ignore
      (host ~emit:(fun i e -> Fleet_store.append fleet ~tenant:i e) runs);
    Fleet_store.sync fleet;
    let t1 = Unix.gettimeofday () in
    let fsyncs = Fleet_store.fsync_count fleet in
    let appended = Fleet_store.appended fleet in
    Fleet_store.close fleet;
    ( (t1 -. t0) *. 1e9 /. float_of_int appended,
      float_of_int fsyncs /. float_of_int appended )
  in
  let best_ns = ref infinity in
  let rate = ref 0. in
  for r = 1 to reps do
    let ns, fr = one (string_of_int r) in
    if ns < !best_ns then best_ns := ns;
    rate := fr
  done;
  [
    ("journal/fleet_group", !best_ns);
    ("journal/fleet_fsyncs_per_kround", !rate *. 1000.);
  ]
