(* Compare two BENCH_<stamp>.json perf records (schema dm-bench/1,
   written by bench/main.exe) and flag regressions.

     dune exec bench/compare.exe -- OLD.json NEW.json [--threshold F]

   Prints per-benchmark deltas for both sections (stage-1 wall-clock
   and stage-2 ns/call).  Entries present in only one record are
   listed; only the removal of a critical key is flagged.  Exit
   status:

     0  no regression;
     1  a benchmark got slower by more than the threshold fraction
        (default 0.25, i.e. +25%), a count key (minor words, fsyncs per
        round) rose by more than 5%, or a critical key was removed;
     2  no regression, but the records were taken at a different
        scale, jobs or core count, so their timings were not compared;
     3  bad arguments or an unreadable record.

   All the parsing and delta logic lives in Dm_bench_record.Record so
   the test suite can exercise it on fixture records. *)

module Record = Dm_bench_record.Record

let fatal fmt =
  Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 3) fmt

let () =
  let threshold = ref 0.25 in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0. -> threshold := f
        | _ -> fatal "--threshold expects a positive number, got %s" v);
        parse_args rest
    | arg :: rest ->
        paths := arg :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !paths with
    | [ a; b ] -> (a, b)
    | _ -> fatal "usage: compare OLD.json NEW.json [--threshold F]"
  in
  let load path =
    match Record.load path with Ok r -> r | Error msg -> fatal "%s" msg
  in
  let old_rec = load old_path and new_rec = load new_path in
  let ppf = Format.std_formatter in
  let total = Record.compare_records ppf ~threshold:!threshold old_rec new_rec in
  if total > 0 then begin
    Format.fprintf ppf "@.%d benchmark(s) regressed past the threshold@." total;
    exit 1
  end
  else if Record.config_differences old_rec new_rec <> [] then begin
    Format.fprintf ppf
      "@.no removed critical keys; timings not compared (configurations \
       differ)@.";
    exit 2
  end
  else Format.fprintf ppf "@.no regressions@."
