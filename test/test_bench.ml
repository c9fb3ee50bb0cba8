(* Unit tests for the perf-record parsing and regression-delta logic
   behind bench/compare.exe (library [Dm_bench_record]).  Fixture
   records are built inline so the threshold flag is exercised both
   ways without touching the filesystem. *)

module Record = Dm_bench_record.Record

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

(* A minimal dm-bench/1 record with one stage-1 artifact, one live
   stage-2 kernel and one skipped (null) kernel. *)
let fixture ~stamp ~fig4 ~matvec =
  Printf.sprintf
    {|{
  "schema": "dm-bench/1",
  "stamp": "%s",
  "scale": 0.05,
  "stage1_wall_clock_s": [
    { "artifact": "fig4", "seconds": %g },
    { "artifact": "longrun", "seconds": 2.0 }
  ],
  "stage2_ns_per_call": [
    { "benchmark": "kernel matvec n1024", "ns": %g },
    { "benchmark": "volume log_det n100", "ns": null }
  ]
}|}
    stamp fig4 matvec

let parse_exn src =
  match Record.of_string src with
  | Ok r -> r
  | Error msg -> Alcotest.failf "expected a record, got: %s" msg

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let v = f ppf in
  Format.pp_print_flush ppf ();
  (v, Buffer.contents buf)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_parse () =
  let r = parse_exn (fixture ~stamp:"20260806-120000" ~fig4:1.5 ~matvec:800.) in
  Alcotest.(check string) "stamp" "20260806-120000" r.Record.stamp;
  check_int "stage1 entries" 2 (List.length r.Record.stage1);
  check_bool "stage1 value" true
    (List.assoc "fig4" r.Record.stage1 = 1.5);
  check_int "stage2 entries" 2 (List.length r.Record.stage2);
  check_bool "null ns parses to None" true
    (List.assoc "volume log_det n100" r.Record.stage2 = None)

let test_parse_errors () =
  let is_error = function Error _ -> true | Ok _ -> false in
  check_bool "truncated input" true (is_error (Record.of_string "{"));
  check_bool "non-object input" true (is_error (Record.of_string "42 43"));
  check_bool "wrong schema" true
    (is_error (Record.of_string {|{ "schema": "dm-bench/9" }|}));
  check_bool "missing schema" true (is_error (Record.of_string {|{ "a": 1 }|}));
  check_bool "missing file" true
    (is_error (Record.load "/nonexistent/BENCH.json"))

let compare_fixtures ~threshold ~old_ns ~new_ns =
  let old_rec = parse_exn (fixture ~stamp:"old" ~fig4:1.0 ~matvec:old_ns) in
  let new_rec = parse_exn (fixture ~stamp:"new" ~fig4:1.0 ~matvec:new_ns) in
  render (fun ppf -> Record.compare_records ppf ~threshold old_rec new_rec)

let test_regression_flagged () =
  (* +50% on one kernel past a +25% threshold: exactly one regression,
     and the table says so. *)
  let total, out = compare_fixtures ~threshold:0.25 ~old_ns:800. ~new_ns:1200. in
  check_int "one regression" 1 total;
  check_bool "verdict printed" true (contains out "REGRESSION");
  check_bool "header names both stamps" true
    (contains out "old (old) vs new (new)")

let test_regression_not_flagged () =
  (* The same +50% under a +60% threshold passes clean. *)
  let total, out = compare_fixtures ~threshold:0.6 ~old_ns:800. ~new_ns:1200. in
  check_int "no regressions" 0 total;
  check_bool "no verdict" true (not (contains out "REGRESSION"));
  (* Exactly at the threshold is not a regression (strict >). *)
  let total, _ = compare_fixtures ~threshold:0.5 ~old_ns:800. ~new_ns:1200. in
  check_int "boundary not flagged" 0 total

let test_improvement () =
  let total, out = compare_fixtures ~threshold:0.25 ~old_ns:800. ~new_ns:400. in
  check_int "no regressions" 0 total;
  check_bool "marked improved" true (contains out "improved")

let test_new_and_removed_entries () =
  (* Disjoint benchmark sets: everything is "new" or "removed", and
     neither ever counts as a regression. *)
  let old_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "old",
          "stage1_wall_clock_s": [ { "artifact": "fig4", "seconds": 1.0 } ],
          "stage2_ns_per_call": [] }|}
  in
  let new_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "new",
          "stage1_wall_clock_s": [ { "artifact": "fig5", "seconds": 99.0 } ],
          "stage2_ns_per_call": [] }|}
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "no regressions" 0 total;
  check_bool "new listed" true (contains out "new");
  check_bool "removed listed" true (contains out "removed")

let test_critical_removal_flagged () =
  (* Dropping a critical sparse_cut, app1 phi or app3 observe kernel
     from the matrix is itself a regression; dropping a non-critical
     one still is not. *)
  check_bool "prefix list names sparse_cut" true
    (List.mem "pricing/sparse_cut" Record.critical_prefixes);
  check_bool "is_critical matches" true
    (Record.is_critical "pricing/sparse_cut n1024 nnz23");
  check_bool "is_critical covers serve" true
    (Record.is_critical "serve/batch_decide B64 n4096 k32");
  check_bool "is_critical covers gc" true
    (Record.is_critical "gc/serve_loop minor_words");
  check_bool "is_critical covers app1 phi" true
    (Record.is_critical "pricing/app1 phi m500 n100");
  check_bool "is_critical covers app1 phi gc" true
    (Record.is_critical "gc/app1_phi minor_words");
  check_bool "is_critical covers app3 observe" true
    (Record.is_critical "pricing/app3 observe n1024");
  check_bool "is_critical covers app3 observe gc" true
    (Record.is_critical "gc/app3_observe minor_words");
  check_bool "is_critical rejects others" true
    (not (Record.is_critical "pricing/fig1 regret curve"));
  let old_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "old",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [
            { "benchmark": "pricing/sparse_cut n1024 nnz23", "ns": 50e3 },
            { "benchmark": "pricing/app1 phi m500 n100", "ns": 40e3 },
            { "benchmark": "pricing/app3 observe n1024", "ns": 20e3 },
            { "benchmark": "pricing/fig1 regret curve", "ns": 900.0 } ] }|}
  in
  let new_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "new",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [] }|}
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "only the critical removals count" 3 total;
  check_bool "flagged as removed regression" true
    (contains out "REGRESSION (removed)");
  (* A critical kernel that is present but slower still goes through
     the ordinary threshold logic. *)
  let fast =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "new2",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [
            { "benchmark": "pricing/sparse_cut n1024 nnz23", "ns": 55e3 },
            { "benchmark": "pricing/app1 phi m500 n100", "ns": 44e3 },
            { "benchmark": "pricing/app3 observe n1024", "ns": 22e3 },
            { "benchmark": "pricing/fig1 regret curve", "ns": 900.0 } ] }|}
  in
  let total, _ =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec fast)
  in
  check_int "within threshold: clean" 0 total

let test_null_kernel_never_flagged () =
  (* A kernel that was skipped (null) on either side cannot regress. *)
  let old_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "old",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [ { "benchmark": "k", "ns": null } ] }|}
  in
  let new_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "new",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [ { "benchmark": "k", "ns": 1e9 } ] }|}
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "no regressions" 0 total;
  (* Its columns render a stable "n/a" — a skipped estimate must never
     read as a number or a bare dash. *)
  check_bool "null side renders n/a" true (contains out "n/a")

let test_one_sided_renders_na () =
  (* A key present only in the new record: old value and delta are both
     "n/a", and the row is "new", not a regression. *)
  let old_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "old",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [] }|}
  in
  let new_rec =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "new",
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [
            { "benchmark": "serve/batch_decide B64 n4096 k32", "ns": 7e4 } ] }|}
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "new key is not a regression" 0 total;
  check_bool "new verdict" true (contains out "new");
  check_bool "missing old renders n/a" true (contains out "n/a");
  (* And the symmetric removal direction: the serve/ key is critical,
     so dropping it flags, with n/a in the vacated columns. *)
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 new_rec old_rec)
  in
  check_int "critical serve removal flags" 1 total;
  check_bool "removal renders n/a" true (contains out "n/a")

(* A record at one configuration: one stage-1 artifact, one timing
   kernel and, with [~critical:true], one critical stage-2 key. *)
let config_fixture ~stamp ~scale ~jobs ~cores ~fig4 ~matvec ~critical =
  Printf.sprintf
    {|{ "schema": "dm-bench/1", "stamp": "%s",
        "scale": %g, "jobs": %d, "jobs_requested": %d, "cores": %d,
        "stage1_wall_clock_s": [ { "artifact": "fig4", "seconds": %g } ],
        "stage2_ns_per_call": [
          { "benchmark": "kernel matvec n1024", "ns": %g }%s ] }|}
    stamp scale jobs jobs cores fig4 matvec
    (if critical then
       {|, { "benchmark": "pricing/sparse_cut n1024 nnz23", "ns": 5e4 }|}
     else "")

let test_same_config_compared () =
  let old_rec =
    parse_exn
      (config_fixture ~stamp:"old" ~scale:0.01 ~jobs:2 ~cores:2 ~fig4:1.0
         ~matvec:800. ~critical:true)
  in
  let new_rec =
    parse_exn
      (config_fixture ~stamp:"new" ~scale:0.01 ~jobs:2 ~cores:2 ~fig4:1.0
         ~matvec:1200. ~critical:true)
  in
  check_bool "fields parsed" true
    (old_rec.Record.scale = Some 0.01
    && old_rec.Record.jobs = Some 2
    && old_rec.Record.cores = Some 2);
  check_bool "same configuration" true
    (Record.config_differences old_rec new_rec = []);
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "the +50% kernel is flagged" 1 total;
  check_bool "no mismatch notice" false (contains out "configurations differ");
  (* A field only one record carries cannot tell them apart. *)
  let no_cores =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "older", "scale": 0.01, "jobs": 2,
          "stage1_wall_clock_s": [], "stage2_ns_per_call": [] }|}
  in
  check_bool "missing cores not compared" true
    (Record.config_differences no_cores new_rec = [])

let test_config_mismatch_skips_timings () =
  (* The committed record's configuration against make ci's smoke, with
     every timing ten times slower: nothing is flagged. *)
  let old_rec =
    parse_exn
      (config_fixture ~stamp:"old" ~scale:0.02 ~jobs:1 ~cores:1 ~fig4:1.0
         ~matvec:800. ~critical:true)
  in
  let new_rec =
    parse_exn
      (config_fixture ~stamp:"new" ~scale:0.01 ~jobs:2 ~cores:2 ~fig4:10.0
         ~matvec:8000. ~critical:true)
  in
  check_int "scale, jobs and cores differ" 3
    (List.length (Record.config_differences old_rec new_rec));
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "10x timings not flagged" 0 total;
  check_bool "mismatch notice" true (contains out "configurations differ");
  check_bool "no timing rows" false (contains out "kernel matvec n1024")

let test_config_mismatch_flags_removed_critical () =
  let old_rec =
    parse_exn
      (config_fixture ~stamp:"old" ~scale:0.02 ~jobs:1 ~cores:1 ~fig4:1.0
         ~matvec:800. ~critical:true)
  in
  let new_rec =
    parse_exn
      (config_fixture ~stamp:"new" ~scale:0.01 ~jobs:2 ~cores:2 ~fig4:1.0
         ~matvec:800. ~critical:false)
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 old_rec new_rec)
  in
  check_int "removed critical key flagged" 1 total;
  check_bool "flagged as removed" true (contains out "REGRESSION (removed)")

(* A record at scale 0.01, jobs 2, cores 2, built by the dune
   [profile] given: one timing kernel and, with [~critical:true], one
   critical stage-2 key. *)
let profile_fixture ~stamp ~profile ~matvec ~critical =
  Printf.sprintf
    {|{ "schema": "dm-bench/1", "stamp": "%s",
        "scale": 0.01, "jobs": 2, "jobs_requested": 2, "cores": 2,
        "profile": "%s",
        "stage1_wall_clock_s": [ { "artifact": "fig4", "seconds": 1 } ],
        "stage2_ns_per_call": [
          { "benchmark": "kernel matvec n1024", "ns": %g }%s ] }|}
    stamp profile matvec
    (if critical then
       {|, { "benchmark": "pricing/sparse_cut n1024 nnz23", "ns": 5e4 }|}
     else "")

let test_profile_mismatch () =
  let dev =
    parse_exn (profile_fixture ~stamp:"dev" ~profile:"dev" ~matvec:800. ~critical:true)
  in
  let release =
    parse_exn
      (profile_fixture ~stamp:"release" ~profile:"release" ~matvec:8000.
         ~critical:true)
  in
  check_bool "profile parsed" true
    (dev.Record.profile = Some "dev" && release.Record.profile = Some "release");
  check_bool "only the profile differs" true
    (Record.config_differences dev release = [ "profile dev vs release" ]);
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 dev release)
  in
  check_int "10x timing across profiles not flagged" 0 total;
  check_bool "mismatch notice" true (contains out "configurations differ");
  check_bool "no timing rows" false (contains out "kernel matvec n1024");
  let dropped =
    parse_exn
      (profile_fixture ~stamp:"release" ~profile:"release" ~matvec:800.
         ~critical:false)
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 dev dropped)
  in
  check_int "removed critical key still flagged" 1 total;
  check_bool "flagged as removed" true (contains out "REGRESSION (removed)");
  (* One profile on both sides: timings compared as before. *)
  let dev2 =
    parse_exn
      (profile_fixture ~stamp:"dev2" ~profile:"dev" ~matvec:1200. ~critical:true)
  in
  check_bool "same profile" true (Record.config_differences dev dev2 = []);
  let total, _ =
    render (fun ppf -> Record.compare_records ppf ~threshold:0.25 dev dev2)
  in
  check_int "the +50% kernel is flagged" 1 total;
  (* Records written before the field existed are not told apart. *)
  let no_profile =
    parse_exn
      (config_fixture ~stamp:"older" ~scale:0.01 ~jobs:2 ~cores:2 ~fig4:1.0
         ~matvec:800. ~critical:true)
  in
  check_bool "missing profile not compared" true
    (no_profile.Record.profile = None
    && Record.config_differences no_profile release = [])

(* Two records of one configuration (scale 0.01, jobs 2, cores 2) with
   a timing key and two count keys. *)
let count_fixture ~stamp ~matvec ~phi_words ~fsyncs =
  Printf.sprintf
    {|{ "schema": "dm-bench/1", "stamp": "%s",
        "scale": 0.01, "jobs": 2, "cores": 2,
        "stage1_wall_clock_s": [],
        "stage2_ns_per_call": [
          { "benchmark": "kernel matvec n1024", "ns": %g },
          { "benchmark": "gc/app1_phi minor_words", "ns": %g },
          { "benchmark": "journal/fleet_fsyncs_per_kround", "ns": %g } ] }|}
    stamp matvec phi_words fsyncs

let compare_counts ~old_words ~new_words ~old_fsyncs ~new_fsyncs ~new_matvec =
  let old_rec =
    parse_exn
      (count_fixture ~stamp:"old" ~matvec:800. ~phi_words:old_words
         ~fsyncs:old_fsyncs)
  in
  let new_rec =
    parse_exn
      (count_fixture ~stamp:"new" ~matvec:new_matvec ~phi_words:new_words
         ~fsyncs:new_fsyncs)
  in
  render (fun ppf -> Record.compare_records ppf ~threshold:1.5 old_rec new_rec)

let test_count_keys () =
  check_bool "minor_words is a count" true
    (Record.is_count "gc/app1_phi minor_words");
  check_bool "serve round alloc is a count" true
    (Record.is_count "serve/round_alloc minor_words");
  check_bool "fsyncs per kround is a count" true
    (Record.is_count "journal/fleet_fsyncs_per_kround");
  check_bool "a timing is not" false (Record.is_count "pricing/app1 phi m500 n100");
  check_bool "nor is the fleet timing" false
    (Record.is_count "journal/fleet_group")

let test_count_rise_flagged () =
  (* +6% words under make ci's +150% timing threshold: the count gate
     (5%) flags it, and so it does a +6% fsync rate. *)
  let total, out =
    compare_counts ~old_words:1000. ~new_words:1060. ~old_fsyncs:1.72
      ~new_fsyncs:1.72 ~new_matvec:800.
  in
  check_int "the +6% count is flagged" 1 total;
  check_bool "verdict printed" true (contains out "REGRESSION");
  check_bool "header names the count bound" true (contains out "counts +5%");
  let total, _ =
    compare_counts ~old_words:1000. ~new_words:1000. ~old_fsyncs:1.72
      ~new_fsyncs:(1.72 *. 1.06) ~new_matvec:800.
  in
  check_int "the +6% fsync rate is flagged" 1 total;
  let total, _ =
    compare_counts ~old_words:1000. ~new_words:1040. ~old_fsyncs:1.72
      ~new_fsyncs:1.72 ~new_matvec:800.
  in
  check_int "+4% is within the count bound" 0 total

let test_count_drop_not_flagged () =
  (* 1,015 → 110 words per call (−89%) is an improvement, not a
     regression. *)
  let total, out =
    compare_counts ~old_words:1015. ~new_words:110. ~old_fsyncs:1.72
      ~new_fsyncs:1.72 ~new_matvec:800.
  in
  check_int "the -89% count is not flagged" 0 total;
  check_bool "marked improved" true (contains out "improved")

let test_count_gate_leaves_timings () =
  (* A timing key still gets the caller's threshold: +100% passes at
     +150%, +200% does not, whatever the counts do. *)
  let total, _ =
    compare_counts ~old_words:1000. ~new_words:1000. ~old_fsyncs:1.72
      ~new_fsyncs:1.72 ~new_matvec:1600.
  in
  check_int "+100% timing within +150%" 0 total;
  let total, _ =
    compare_counts ~old_words:1000. ~new_words:1000. ~old_fsyncs:1.72
      ~new_fsyncs:1.72 ~new_matvec:2400.
  in
  check_int "+200% timing flagged" 1 total;
  (* And counts, like timings, are compared only between records of
     one configuration. *)
  let old_rec =
    parse_exn
      (count_fixture ~stamp:"old" ~matvec:800. ~phi_words:1000. ~fsyncs:1.72)
  in
  let other =
    parse_exn
      {|{ "schema": "dm-bench/1", "stamp": "other",
          "scale": 0.02, "jobs": 1, "cores": 1,
          "stage1_wall_clock_s": [],
          "stage2_ns_per_call": [
            { "benchmark": "kernel matvec n1024", "ns": 800 },
            { "benchmark": "gc/app1_phi minor_words", "ns": 2000 },
            { "benchmark": "journal/fleet_fsyncs_per_kround", "ns": 1.72 } ] }|}
  in
  let total, out =
    render (fun ppf -> Record.compare_records ppf ~threshold:1.5 old_rec other)
  in
  check_int "other configuration: a doubled count is not compared" 0 total;
  check_bool "mismatch notice" true (contains out "configurations differ")

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_bench"
    [
      ( "record",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "compare",
        [
          Alcotest.test_case "regression flagged" `Quick test_regression_flagged;
          Alcotest.test_case "regression not flagged" `Quick
            test_regression_not_flagged;
          Alcotest.test_case "improvement" `Quick test_improvement;
          Alcotest.test_case "new and removed entries" `Quick
            test_new_and_removed_entries;
          Alcotest.test_case "critical removal flagged" `Quick
            test_critical_removal_flagged;
          Alcotest.test_case "null kernel never flagged" `Quick
            test_null_kernel_never_flagged;
          Alcotest.test_case "one-sided keys render n/a" `Quick
            test_one_sided_renders_na;
          Alcotest.test_case "same configuration compared" `Quick
            test_same_config_compared;
          Alcotest.test_case "configuration mismatch skips timings" `Quick
            test_config_mismatch_skips_timings;
          Alcotest.test_case "configuration mismatch flags removed critical"
            `Quick test_config_mismatch_flags_removed_critical;
          Alcotest.test_case "count keys" `Quick test_count_keys;
          Alcotest.test_case "count rise flagged" `Quick test_count_rise_flagged;
          Alcotest.test_case "count drop not flagged" `Quick
            test_count_drop_not_flagged;
          Alcotest.test_case "count gate leaves timings" `Quick
            test_count_gate_leaves_timings;
          Alcotest.test_case "build profile mismatch skips timings" `Quick
            test_profile_mismatch;
        ] );
    ]
