(** Crash-recovery artifact: kill a journaled market mid-stream,
    recover from disk, resume, and verify the regret series is
    bit-identical to an uninterrupted reference run.

    Per mechanism variant (the four of {!Replay_market.variants}) the
    driver

    + runs the uninterrupted reference over the full horizon;
    + replays the same stream into a one-tenant {!Dm_store.Fleet}
      store (small segments, periodic snapshots) and hard-kills it at
      a seeded crash round — {!Dm_store.Fleet.simulate_crash}
      truncates the active segment at a seeded point past the durable
      watermark and appends seeded torn-tail junk;
    + probes the corruption contract: flips one byte in a pre-tail
      record, checks {!Dm_store.Fleet.recover} refuses with an
      [Error], and restores the byte;
    + recovers (newest snapshot + journal-tail replay), compacts,
      re-recovers, and checks compaction changed nothing;
    + resumes to the full horizon — journaled prefix rounds replay
      their recorded decisions, live rounds come from the recovered
      mechanism — and compares the final regret series bit-for-bit
      with the reference.

    A variant passes only if the probe is rejected, compaction
    preserves the state and the resumed series is bit-identical.
    Every quantity printed is a pure function of [seed] and [scale],
    so the output is byte-identical at any [jobs] value. *)

val full_rounds : int
(** The unscaled horizon (10⁵ rounds at n = 8). *)

val resume :
  name:string ->
  setup:Replay_market.setup ->
  variant:Dm_market.Mechanism.variant ->
  mech:Dm_market.Mechanism.t ->
  events:Dm_market.Broker.event array ->
  prefix:int ->
  rounds:int ->
  Dm_market.Broker.result
(** Resume a recovered market over the full horizon through one
    {!Dm_market.Broker.run}: rounds below [prefix] replay the
    recorded decision of [events] (which must cover exactly the
    prefix, or the call fails), later rounds price live from [mech].
    Accumulation order matches an uninterrupted run exactly, so a
    correct recovery resumes bit-identically.  Shared by this driver
    and {!Fleet}. *)

val report :
  ?pool:Dm_linalg.Pool.t ->
  ?scale:float ->
  ?seed:int ->
  ?jobs:int ->
  Format.formatter ->
  unit
(** Run the four variant cells (in parallel under [jobs]/[pool]: an
    explicit [pool] wins, else the installed default pool, else a
    transient pool of [jobs] domains) and print the verification
    table plus a summary line of the form
    ["… 4/4 variants bit-identical …"] that the CI smoke greps for;
    the count includes only variants that pass all three checks. *)

val journal_overhead :
  ?seed:int -> ?reps:int -> rounds:int -> unit -> (string * float) list
(** Benchmark helper for the journal-overhead stage: time the
    {!Replay_market} market (n = 16, pure variant) for [rounds] rounds
    with journaling off, journaled into a one-tenant store at its default
    group-commit policy, and with [latency_appends = 1] — one fsync
    per record, capped at [min rounds 2000] because it is orders of
    magnitude slower — returning [(name, ns-per-round)] pairs whose
    names carry the ["journal/"] prefix that
    {!Dm_bench.Record.critical_prefixes} watches.  Each mode reports
    its minimum over [reps] (default 3) interleaved passes — the
    standard defence against scheduler noise skewing the off/on
    ratio.  Timings cover the trading loop only (commit and rotation
    fsyncs included, the final close excluded). *)
