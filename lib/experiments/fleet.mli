(** Multi-tenant fleet artifact: ~10³ concurrent small markets on one
    shared group-commit journal ({!Dm_store.Fleet}), each verified
    bit-identical to its solo run.

    Per tenant (a {!Replay_market.make_setup} market at n = 4, variant
    cycling through the four of {!Replay_market.variants}, seed split
    off the root stream before dispatch) the driver

    + runs the uninterrupted solo reference and records its encoded
      journal stream ({!Dm_store.Journal.encode_event}) — these cells
      fan out over [jobs]/[pool] via {!Runner.map};
    + hosts {e all} tenants concurrently on one domain through an
      effects-based cooperative scheduler — every tenant's real
      [Broker.run] yields at its journal sink, so the shared journal
      sees a round-robin global append order — writing tenant-tagged
      records through {!Dm_store.Fleet.sink} with periodic per-tenant
      snapshots, and checks each tenant's live result {e and} its
      filtered, re-encoded slice of the shared log against the solo
      run;
    + repeats the hosted run to a seeded crash round, hard-kills it
      ({!Dm_store.Fleet.simulate_crash}), recovers every tenant from
      the shared log + its own snapshots, checks compaction is
      state-preserving, and resumes each tenant to the full horizon
      through {!Recover.resume} — again bit-identical.

    Everything printed is a pure function of (seed, scale), so the
    output is byte-identical at any [jobs] value. *)

val full_tenants : int
(** The unscaled fleet size (10³ tenants at scale 1). *)

val tenant_rounds : int
(** Per-tenant horizon (fixed — scale varies the tenant count, not
    the market length). *)

val scaled_tenants : float -> int
(** Tenant count at a given scale (floor 8, so the smoke scales still
    exercise a genuine multi-tenant interleave). *)

val report :
  ?pool:Dm_linalg.Pool.t ->
  ?scale:float ->
  ?seed:int ->
  ?jobs:int ->
  Format.formatter ->
  unit
(** Run the fleet verification and print the per-variant table, the
    group-commit amortization line (appends per fsync, fsyncs per
    tenant-round), and a summary line of the form
    ["Fleet: N/N tenants bit-identical …"] that the CI smoke greps
    for. *)

val journal_amortization :
  ?seed:int ->
  ?tenants:int ->
  ?rounds:int ->
  ?reps:int ->
  unit ->
  (string * float) list
(** Benchmark helper for the journal stage: time the hosted fleet
    (default 64 tenants) with the group-commit journal attached and
    full durability (closing barrier included), returning
    [("journal/fleet_group", ns per tenant-round)] — minimum over
    [reps] (default 2) passes — and
    [("journal/fleet_fsyncs_per_kround", group fsyncs per 10³
    tenant-rounds)], the amortization record the bench compares to
    the one-fsync-per-round ["journal/longrun_fsync"] baseline. *)
