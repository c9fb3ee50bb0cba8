(** BENCH_<stamp>.json perf-record parsing and comparison (schema
    dm-bench/1, written by [bench/main.exe]) — the library behind
    [bench/compare.exe], split out so the regression-threshold logic is
    unit-testable on fixture records. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Minimal reader for the flat records our own emitter writes;
    [Error] carries a message with the failing byte offset. *)

type record = {
  stamp : string;
  scale : float option;  (** [BENCH_SCALE] of the run *)
  jobs : int option;  (** pool size after clamping to [cores] *)
  cores : int option;
      (** [Domain.recommended_domain_count] at run time; [None] in
          records written before the emitter recorded it *)
  profile : string option;
      (** the dune build profile that compiled the bench ([dev] or
          [release]); [None] in records written before the emitter
          recorded it *)
  stage1 : (string * float) list;  (** artifact, wall-clock seconds *)
  stage2 : (string * float option) list;
      (** benchmark, ns/call; [None] when the estimator yielded none *)
}

val of_string : ?path:string -> string -> (record, string) result
(** Parse a record from JSON source; [path] only decorates error
    messages.  Rejects anything whose [schema] is not ["dm-bench/1"]. *)

val load : string -> (record, string) result
(** [of_string] over a file's contents; I/O errors become [Error]. *)

val critical_prefixes : string list
(** Benchmark-name prefixes whose disappearance from a newer record
    counts as a regression (currently the [pricing/sparse_cut] kernels,
    the [pricing/app1 phi] feature map, App 3's [pricing/app3 observe]
    rounds, the [journal/] overhead
    entries, the [hd/] projected-pricing kernels, the [stress/]
    degradation entries, the batched-serving [serve/] and the [gc/]
    counters, and the [auction/] clearing kernels) — a refactor that
    silently drops a perf-sensitive kernel from the bench matrix
    should fail the compare, not pass it by vacuity. *)

val is_critical : string -> bool
(** Whether a stage-2 benchmark name matches {!critical_prefixes}. *)

val count_threshold : float
(** [0.05]: the bound on a count key's rise, the 5% that
    BENCHMARK.json gives [alloc_words_per_req].  Counts repeat exactly
    for one configuration, so the timing threshold would hide a
    doubling. *)

val is_count : string -> bool
(** Whether a stage-2 key is a count rather than a timing: the
    [… minor_words] allocation keys and
    [journal/fleet_fsyncs_per_kround]. *)

val config_differences : record -> record -> string list
(** One line per configuration field ([scale], [jobs], [cores],
    [profile]) that both records carry with different values; a field
    missing from either record is not compared.  Timings are comparable
    only when the list is empty. *)

val compare_section :
  Format.formatter ->
  title:string ->
  unit:string ->
  threshold:float ->
  ?critical:(string -> bool) ->
  ?timings:bool ->
  (string * float option) list ->
  (string * float option) list ->
  int
(** [compare_section ppf ~title ~unit ~threshold old new] prints the
    per-benchmark delta table and returns how many entries got slower
    by more than the [threshold] fraction, or, for the keys
    {!is_count} accepts, rose by more than {!count_threshold}.
    Entries present in only
    one record are listed as new/removed; removed entries are flagged
    as regressions iff [critical] (default: never) accepts their
    name.  Every column that has no measurement to show — a one-sided
    key, or a null estimate on either record — renders a stable
    ["n/a"], never a number.  With [~timings:false] (default [true])
    only the removed entries are listed and counted: the rows of keys
    present in the new record, and their threshold checks, are
    skipped. *)

val compare_records :
  Format.formatter -> threshold:float -> record -> record -> int
(** Both sections of two records plus the header line; returns the
    total regression count.  When the records' configurations differ
    ({!config_differences} is not empty) it says so, skips every
    timing row and counts only removed critical keys; count keys are
    rows like the timings, held to {!count_threshold}.  [compare.exe]
    exits 1 when the count is positive, otherwise 2 when the
    configurations differ, otherwise 0. *)
