module Broker = Dm_market.Broker
module Mechanism = Dm_market.Mechanism
module Pool = Dm_linalg.Pool
module Rng = Dm_prob.Rng
module Journal = Dm_store.Journal
module Fleet_store = Dm_store.Fleet

let dim = 8
let full_rounds = 100_000

let flip_byte path ~offset =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then
        failwith "Recover.flip_byte: short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then
        failwith "Recover.flip_byte: short write")

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> failwith ("Recover.report: " ^ msg)

(* Resume over the full horizon through one [Broker.run], so every
   cumulative sum is accumulated in the reference's exact order: the
   journaled prefix replays its recorded decisions (the mechanism
   already holds their knowledge), live rounds price from the
   recovered state.  Shared with the [Fleet] driver, which resumes
   every tenant of the shared journal this way. *)
let resume ~name ~setup ~variant ~mech ~events:(events : Broker.event array)
    ~prefix ~rounds =
  if Array.length events <> prefix then
    failwith "Recover.resume: journal does not cover the recovered prefix";
  let t = ref 0 in
  let pending = ref None in
  let decide ~x ~reserve =
    let i = !t in
    incr t;
    if i < prefix then
      match events.(i).Broker.kind with
      | Broker.Skipped -> None
      | _ -> Some events.(i).Broker.price_index
    else
      let d = Mechanism.decide mech ~x ~reserve in
      match d with
      | Mechanism.Skip ->
          Mechanism.observe mech ~x d ~accepted:false;
          None
      | Mechanism.Post { price; _ } ->
          pending := Some d;
          Some price
  in
  let learn ~x ~price:_ ~accepted =
    match !pending with
    | Some d ->
        pending := None;
        Mechanism.observe mech ~x d ~accepted
    | None -> ()
  in
  Broker.run
    ~policy:
      (Broker.Custom
         {
           Broker.policy_name = "recovered " ^ name;
           decide;
           learn;
           uses_reserve = variant.Mechanism.use_reserve;
         })
    ~model:setup.Replay_market.model ~noise:setup.Replay_market.noise
    ~workload:setup.Replay_market.workload ~rounds ()

(* One self-contained verification cell.  Everything below is a pure
   function of (seed, rounds, index, variant) — the cell touches only
   its own store directory, so the cells are safe on any domain and
   the rendered bytes cannot depend on the jobs value. *)
let verify_variant ~seed ~rounds index (name, variant) =
  let setup = Replay_market.make_setup ~dim ~seed ~rounds () in
  let fresh () = Replay_market.mechanism setup variant in
  let run ?journal ~policy ~rounds () =
    Broker.run ?journal ~policy ~model:setup.Replay_market.model
      ~noise:setup.Replay_market.noise
      ~workload:setup.Replay_market.workload ~rounds ()
  in
  let reference = run ~policy:(Broker.Ellipsoid_pricing (fresh ())) ~rounds () in
  let frng = Rng.create (seed + (104729 * (index + 1))) in
  let crash_round =
    let base = (rounds * 3 / 5) + Rng.int frng 7 - 3 in
    max 1 (min (rounds - 1) base)
  in
  Runner.with_scratch_dir (Printf.sprintf "store_tmp-%d" index) @@ fun dir ->
  (* A one-tenant store.  Deliberately tiny segments so rotation and
     compaction are exercised even at smoke scale. *)
  let snapshot_every = max 50 (rounds / 8) in
  let store =
    Fleet_store.create ~segment_bytes:4096 ~snapshot_every ~dir ~tenants:1 ()
  in
  let mech_j = fresh () in
  ignore
    (run
       ~journal:(Fleet_store.sink store ~tenant:0 ~mech:mech_j)
       ~policy:(Broker.Ellipsoid_pricing mech_j)
       ~rounds:crash_round ());
  let keep = Rng.float frng in
  let junk =
    String.init (1 + Rng.int frng 24) (fun _ -> Char.chr (Rng.int frng 256))
  in
  Fleet_store.simulate_crash store ~keep ~junk;
  let recover () =
    Result.map
      (fun (recs, torn) -> (recs.(0), torn))
      (Fleet_store.recover ~initial:(fun _ -> fresh ()) ~dir ~tenants:1 ())
  in
  (* Corruption probe: flip one byte inside the first record of the
     first segment — well before the tail — and check recovery refuses
     rather than repricing from damaged history.  Offset 18 = 8-byte
     magic + 8-byte frame header + 2 bytes into the payload. *)
  let first_seg = snd (List.hd (Journal.segments ~dir)) in
  flip_byte first_seg ~offset:18;
  let probe_rejected =
    match recover () with
    | Error msg -> String.contains msg ':'
    | Ok _ -> false
  in
  flip_byte first_seg ~offset:18;
  let rec1, torn = ok_or_fail (recover ()) in
  let mech1 = Option.get rec1.Fleet_store.mechanism in
  let state1 = Mechanism.snapshot_binary mech1 in
  let deleted = ok_or_fail (Fleet_store.compact ~dir ~tenants:1) in
  let rec2, _ = ok_or_fail (recover ()) in
  let mech = Option.get rec2.Fleet_store.mechanism in
  let compact_ok =
    String.equal state1 (Mechanism.snapshot_binary mech)
    && rec2.Fleet_store.next_round = rec1.Fleet_store.next_round
  in
  let resumed =
    resume ~name ~setup ~variant ~mech ~events:rec1.Fleet_store.events
      ~prefix:rec1.Fleet_store.next_round ~rounds
  in
  let identical =
    Replay_market.series_identical reference.Broker.series resumed.Broker.series
    && Replay_market.bits reference.Broker.total_regret
       = Replay_market.bits resumed.Broker.total_regret
    && Replay_market.bits reference.Broker.total_value
       = Replay_market.bits resumed.Broker.total_value
  in
  let row =
    [
      name;
      string_of_int crash_round;
      string_of_int rec1.Fleet_store.snapshot_round;
      string_of_int rec1.Fleet_store.replayed;
      (if torn then "torn" else "clean");
      (if probe_rejected then "rejected" else "ACCEPTED");
      (if compact_ok then Printf.sprintf "ok (-%d seg)" deleted else "DRIFT");
      (if identical then "bit-identical" else "MISMATCH");
    ]
  in
  (row, probe_rejected && compact_ok && identical)

let report ?pool ?(scale = 1.) ?(seed = 42) ?(jobs = 1) ppf =
  let rounds = Replay_market.scaled_rounds scale full_rounds in
  let go pool =
    let cells =
      Array.of_list (List.mapi (fun i v -> (i, v)) Replay_market.variants)
    in
    let results =
      Runner.map ?pool ~jobs
        (fun (i, v) -> verify_variant ~seed ~rounds i v)
        cells
    in
    let rows = Array.to_list (Array.map fst results) in
    Table.print ppf
      ~title:
        (Printf.sprintf
           "Crash recovery (n = %d, T = %d): journaled run killed at \
            crash@, recovered from newest snapshot + journal tail, \
            resumed to T; pre-tail byte flips must be rejected and \
            compaction must not change the recovered state"
           dim rounds)
      ~header:
        [
          "variant"; "crash@"; "snap@"; "replayed"; "tail"; "probe";
          "compaction"; "resume";
        ]
      rows;
    let ok_count =
      Array.fold_left (fun n (_, ok) -> if ok then n + 1 else n) 0 results
    in
    Format.fprintf ppf
      "Crash recovery: %d/%d variants bit-identical to the uninterrupted \
       reference after kill, recover and resume, with the pre-tail probe \
       rejected and compaction state-preserving.@.@."
      ok_count (Array.length cells)
  in
  match pool with
  | Some _ -> go pool
  | None -> (
      match Pool.get_default () with
      | Some _ -> go None (* Runner.map picks the default pool up *)
      | None when jobs > 1 -> Pool.with_pool ~jobs (fun p -> go (Some p))
      | None -> go None)

let journal_overhead ?(seed = 42) ?(reps = 3) ~rounds () =
  if rounds < 1 then
    invalid_arg "Recover.journal_overhead: need at least one round";
  if reps < 1 then invalid_arg "Recover.journal_overhead: need at least one rep";
  let variant = snd (List.hd Replay_market.variants) in
  let time_run ~tag ~rounds ~journaled ~fsync =
    let setup = Replay_market.make_setup ~seed ~rounds () in
    let mech = Replay_market.mechanism setup variant in
    let run ?journal () =
      ignore
        (Broker.run ?journal
           ~policy:(Broker.Ellipsoid_pricing mech)
           ~model:setup.Replay_market.model ~noise:setup.Replay_market.noise
           ~workload:setup.Replay_market.workload ~rounds ())
    in
    if not journaled then begin
      let t0 = Unix.gettimeofday () in
      run ();
      let t1 = Unix.gettimeofday () in
      (t1 -. t0) *. 1e9 /. float_of_int rounds
    end
    else
      Runner.with_scratch_dir ("store_bench-" ^ tag) @@ fun dir ->
      (* No snapshots: the stage isolates the journal sink itself;
         snapshot cadence is a separate cost knob.  The fsync mode
         commits every record, the other keeps the store's default
         group-commit policy. *)
      let store =
        Fleet_store.create
          ?latency_appends:(if fsync then Some 1 else None)
          ~dir ~tenants:1 ()
      in
      let t0 = Unix.gettimeofday () in
      run ~journal:(Fleet_store.append store ~tenant:0) ();
      let t1 = Unix.gettimeofday () in
      Fleet_store.close store;
      (t1 -. t0) *. 1e9 /. float_of_int rounds
  in
  (* Interleaved min-of-reps: one pass per rep over all three modes,
     keeping each mode's best time, so a noisy neighbour perturbing
     one pass cannot skew the off/on ratio. *)
  let best = Array.make 3 infinity in
  for _ = 1 to reps do
    best.(0) <-
      Float.min best.(0)
        (time_run ~tag:"off" ~rounds ~journaled:false ~fsync:false);
    best.(1) <-
      Float.min best.(1)
        (time_run ~tag:"nofsync" ~rounds ~journaled:true ~fsync:false);
    best.(2) <-
      Float.min best.(2)
        (time_run ~tag:"fsync" ~rounds:(min rounds 2000) ~journaled:true
           ~fsync:true)
  done;
  (* The keys keep the names of the artifact this market came from, so
     compare.exe still pairs them with older records. *)
  [
    ("journal/longrun_off", best.(0));
    ("journal/longrun_nofsync", best.(1));
    ("journal/longrun_fsync", best.(2));
  ]
