(* dmbench: end-to-end and per-layer benchmark of the pricing library.

   One process generates a seeded workload, drives the library through
   its public functions, checks the outputs and prints every metric as
   "metric <name> <value> <unit>" lines, ending with one JSON line.

     dmbench.exe --workload NAME [--seed S] [--seconds X] [--trace 0|1]
     dmbench.exe --all | --smoke | --repeat N ...

   The run length is a request count proportional to --seconds (the
   nominal size of each workload at 20), never a measured duration, so
   two builds given the same arguments do identical work.  With
   --trace 1 the workload runs twice, untraced then traced, and the
   JSON line carries the per-layer metrics; otherwise it carries the
   end-to-end metrics of the untraced run.  README.md lists both. *)

module Pool = Dm_linalg.Pool

(* The JSON line of an untraced run carries these; a traced run carries
   [per_layer].  BENCHMARK.json names the same two lists.  Throughput
   and the latency medians are those of a run's best window (README.md
   says why); the whole-run tails are per-layer. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "req/s");
    ("quote_p50_us", "us");
    ("complete_p50_us", "us");
    ("regret_ratio", "ratio");
    ("heap_peak_mb", "MB");
    ("alloc_words_per_req", "words");
  ]

(* Layers timed by spans: calls, self time per request, per-call p99
   and exceptions raised. *)
let span_layers =
  [
    ("phi", Pass.phi);
    ("batcher", Pass.batcher);
    ("decide", Pass.decide);
    ("observe", Pass.observe);
    ("journal", Pass.journal);
    ("recover", Pass.recover);
    ("buyer", Pass.buyer);
  ]

let per_layer =
  List.concat_map
    (fun (l, _) ->
      [
        (l ^ ".calls", "count");
        (l ^ ".busy_us", "us");
        (l ^ ".p99_us", "us");
        (l ^ ".errors", "count");
      ])
    span_layers
  @ [
      ("quote_p99_us", "us");
      ("complete_p99_us", "us");
      ("open.quote_p50_us", "us");
      ("open.quote_p99_us", "us");
      ("open.complete_p50_us", "us");
      ("open.complete_p99_us", "us");
      ("batcher.wait_us", "us");
      ("batcher.fill", "ratio");
      ("kernel.project_us", "us");
      ("kernel.project_batch_us", "us");
      ("kernel.project_2d_us", "us");
      ("kernel.project_batch_2d_us", "us");
      ("observe.max_us", "us");
      ("mechanism.explore_frac", "ratio");
      ("mechanism.skip_frac", "ratio");
      ("journal.append_us", "us");
      ("journal.commit_us", "us");
      ("journal.commits_per_kreq", "count");
      ("journal.bytes_per_req", "bytes");
      ("journal.durable_wait_us", "us");
      ("recover.us_per_record", "us");
      ("recover_s", "s");
      ("gc.minor_words_per_req", "words");
      ("gc.promoted_words_per_req", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("harness.busy_us", "us");
      ("harness.residual_pct", "%");
      ("harness.trace_overhead_pct", "%");
      ("harness.gen_lag_p99_us", "us");
      ("harness.backlog_max", "count");
    ]

type run = {
  workload : string;
  setup_s : float;
  plain : Pass.t;  (** untraced *)
  traced : Pass.t option;
  kernels : (string * float) list;
}

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

let workloads = [ "app1-n100"; "app3-n1024"; "serve-b1"; "serve-b64" ]

let count per_second seconds = max 1 (int_of_float (Float.round (per_second *. seconds)))

(* Everything runs on the main domain, which also runs the load
   generator; no pool is installed, so the kernels run inline.  On a
   2-vCPU virtual machine a second domain makes every timing depend on
   whether the host lets that vCPU run: with a 2-domain pool the
   serve-b1 throughput of six interleaved runs spanned 25%, with one
   domain 7.5% (README.md).  The parallel kernels are still measured:
   the traced run replays the projection on a 2-domain pool as well. *)
let replay_domains = min 2 (Domain.recommended_domain_count ())

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Pool.set_default (Some pool);
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default None;
      Pool.shutdown pool)
    f

let paper ~workload ~setup ~rounds ~trace =
  let (inst, markets), setup_s =
    Pass.timed_setup (fun () ->
        let inst = setup () in
        (inst, inst ()))
  in
  let plain = Paper_loop.run ~trace:false ~rounds markets in
  let traced =
    if trace then Some (Paper_loop.run ~trace:true ~rounds (inst ())) else None
  in
  { workload; setup_s; plain; traced; kernels = [] }

let serve ~workload ~seed ~b ~rate ~open_n ~sat_n ~trace =
  let (inputs, fleet), setup_s = Pass.timed_setup (Serve_loop.setup ~seed) in
  let dir tag = Printf.sprintf "_dmbench/%s-%d%s" workload (Unix.getpid ()) tag in
  (* Segment lengths are whole batches, so no batch straddles a phase. *)
  let per_segment n = max b (b * int_of_float (Float.round (float_of_int n /. float_of_int (b * Serve_loop.segments)))) in
  let open_seg = per_segment open_n and sat_seg = per_segment sat_n in
  let go ~trace ~dir fleet =
    Serve_loop.run ~trace ~dir ~seed ~b ~rate ~open_seg ~sat_seg inputs fleet
  in
  let plain = go ~trace:false ~dir:(dir "") fleet in
  let traced =
    if trace then Some (go ~trace:true ~dir:(dir "-trace") (Serve_loop.new_fleet inputs))
    else None
  in
  let kernels =
    if not trace then []
    else
      Serve_loop.kernel_replays ~suffix:"" inputs
      @ with_pool ~jobs:replay_domains (fun () ->
            Serve_loop.kernel_replays ~suffix:"_2d" inputs)
  in
  { workload; setup_s; plain; traced; kernels }

let run_workload ~seed ~seconds ~smoke ~trace = function
  | "app1-n100" ->
      paper ~workload:"app1-n100" ~trace
        ~setup:(Paper_loop.app1_setup ~seed ~markets:2)
        ~rounds:(count 5_000. seconds)
  | "app3-n1024" ->
      let train_rounds = if smoke then 10_000 else 200_000 in
      paper ~workload:"app3-n1024" ~trace
        ~setup:(Paper_loop.app3_setup ~seed ~markets:6 ~train_rounds)
        ~rounds:(count 5_000. seconds)
  | "serve-b1" ->
      serve ~workload:"serve-b1" ~seed ~trace ~b:1 ~rate:2_500.
        ~open_n:(count 1_000. seconds) ~sat_n:(count 2_500. seconds)
  | "serve-b64" ->
      serve ~workload:"serve-b64" ~seed ~trace ~b:64 ~rate:6_000.
        ~open_n:(count 2_400. seconds) ~sat_n:(count 6_400. seconds)
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

let pct sorted p = if Array.length sorted = 0 then 0. else Quantile.nearest_rank sorted p

let gc_delta (p : Pass.t) f = f p.gc_after -. f p.gc_before

(* Per-window medians of a latency sample; windows without samples are
   skipped. *)
let window_p50s (p : Pass.t) a =
  List.init (Array.length p.lat_marks - 1) Fun.id
  |> List.filter_map (fun w ->
         let n = p.lat_marks.(w + 1) - p.lat_marks.(w) in
         if n = 0 then None
         else Some (pct (Quantile.sorted (Array.sub a p.lat_marks.(w) n)) 0.5))

let best_p50 p a = List.fold_left Float.min infinity (window_p50s p a)

let throughput (p : Pass.t) = Array.fold_left Float.max 0. p.rates

let e2e_values r =
  let p = r.plain in
  [
    ("setup_s", r.setup_s);
    ("throughput_rps", throughput p);
    ("quote_p50_us", best_p50 p p.quote_us);
    ("complete_p50_us", best_p50 p p.complete_us);
    ("regret_ratio", p.regret /. p.value);
    ( "heap_peak_mb",
      float_of_int (p.gc_after.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
    ("alloc_words_per_req", p.minor_words /. float_of_int p.attempted);
  ]

let tails (p : Pass.t) =
  let s = Quantile.sorted in
  [
    ("quote_p99_us", s p.quote_us, 0.99);
    ("complete_p99_us", s p.complete_us, 0.99);
    ("open.quote_p50_us", s p.open_quote_us, 0.5);
    ("open.quote_p99_us", s p.open_quote_us, 0.99);
    ("open.complete_p50_us", s p.open_complete_us, 0.5);
    ("open.complete_p99_us", s p.open_complete_us, 0.99);
  ]

(* The harness's own spans: the generator, the open-loop wait and a
   flush's glue around the library calls. *)
let harness_names = [ Pass.gen; Pass.wait; Pass.flush ]

let layer_values r =
  let p = r.plain in
  let reqs = float_of_int p.attempted in
  let counters =
    [
      ("mechanism.explore_frac", float_of_int p.explore /. reqs);
      ("mechanism.skip_frac", float_of_int p.skip /. reqs);
      ("gc.minor_words_per_req", p.minor_words /. reqs);
      ("gc.promoted_words_per_req", gc_delta p (fun g -> g.Gc.promoted_words) /. reqs);
      ( "gc.minor_collections",
        gc_delta p (fun g -> float_of_int g.Gc.minor_collections) );
      ( "gc.major_collections",
        gc_delta p (fun g -> float_of_int g.Gc.major_collections) );
    ]
    @ List.map (fun (name, sorted, q) -> (name, pct sorted q)) (tails p)
    @ p.extra @ r.kernels
  in
  let spans =
    match r.traced with
    | None -> []
    | Some t ->
        let tr = Option.get t.trace in
        let ls = Trace.layers tr in
        let treqs = float_of_int t.attempted in
        let busy i = float_of_int ls.(i).Trace.self_ns /. treqs /. 1e3 in
        let in_loop =
          List.fold_left
            (fun acc (i : int) -> if i = Pass.recover then acc else acc + ls.(i).Trace.self_ns)
            0
            (List.init (Array.length ls) Fun.id)
        in
        (* Recovery runs after the loop, so it is not part of its wall
           time. *)
        let residual_ns = t.loop_ns - in_loop in
        List.concat_map
          (fun (l, i) ->
            [
              (l ^ ".calls", float_of_int ls.(i).Trace.calls);
              (l ^ ".busy_us", busy i);
              (l ^ ".p99_us", ls.(i).Trace.p99_ns /. 1e3);
              (l ^ ".errors", float_of_int t.errors.(i));
            ])
          span_layers
        @ [
            ("observe.max_us", float_of_int ls.(Pass.observe).Trace.max_ns /. 1e3);
            ( "harness.busy_us",
              (List.fold_left (fun a i -> a +. busy i) 0. harness_names)
              +. (float_of_int residual_ns /. treqs /. 1e3) );
            ( "harness.residual_pct",
              100. *. float_of_int residual_ns /. float_of_int t.loop_ns );
            ( "harness.trace_overhead_pct",
              100. *. (throughput p -. throughput t) /. throughput p );
          ]
  in
  counters @ spans

(* ---------------------------------------------------------------- *)
(* Report                                                            *)
(* ---------------------------------------------------------------- *)

(* Every percentile is printed with its sample count, and p99.9 also
   (ungated) wherever at least ten samples lie beyond it. *)
let print_tails (p : Pass.t) =
  List.iter
    (fun (name, sorted, q) ->
      let n = Array.length sorted in
      if n > 0 then begin
        Printf.printf "#   %s: n=%d beyond=%d\n" name n (Quantile.beyond ~n q);
        if q = 0.99 && Quantile.reportable ~n 0.999 then
          Printf.printf "ungated %s %.3f us n=%d beyond=%d\n"
            (String.sub name 0 (String.length name - 6) ^ "p999_us")
            (pct sorted 0.999) n (Quantile.beyond ~n 0.999)
      end)
    (tails p)

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt name per_layer)

let print_run r =
  let p = r.plain in
  Printf.printf "# %s: %d requests attempted, %d failed (error_rate %g)\n"
    r.workload p.attempted p.failed
    (float_of_int p.failed /. float_of_int p.attempted);
  Printf.printf "# throughput windows (req/s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") p.rates)));
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name;
      if not ok then Printf.eprintf "dmbench: %s: check FAILED: %s\n%!" r.workload name)
    (p.checks @ match r.traced with Some t -> t.checks | None -> []);
  Printf.printf "#   latency medians: best of %d windows, per-window n = %s\n"
    (Array.length p.lat_marks - 1)
    (String.concat " "
       (List.init (Array.length p.lat_marks - 1) (fun w ->
            string_of_int (p.lat_marks.(w + 1) - p.lat_marks.(w)))));
  print_tails p;
  List.iter
    (fun (name, v) -> Printf.printf "metric %s %.6g %s\n" name v (unit_of name))
    (e2e_values r);
  List.iter
    (fun (name, v) -> Printf.printf "layer %s %.6g %s\n" name v (unit_of name))
    (layer_values r);
  match r.traced with
  | None -> ()
  | Some t ->
      let tr = Option.get t.trace in
      let ls = Trace.layers tr in
      let wall = float_of_int t.loop_ns in
      let reqs = float_of_int t.attempted in
      let rows =
        List.filter_map
          (fun i ->
            if i = Pass.recover || ls.(i).Trace.calls = 0 then None
            else Some ((Trace.names tr).(i), float_of_int ls.(i).Trace.self_ns))
          (List.init (Array.length ls) Fun.id)
      in
      let accounted = List.fold_left (fun a (_, ns) -> a +. ns) 0. rows in
      let rows = ("(unspanned)", wall -. accounted) :: rows in
      Printf.printf
        "# %s per-layer self time, traced run (%d spans, %d dropped; gen, wait, \
         flush and unspanned are harness):\n"
        r.workload (Trace.length tr) (Trace.dropped tr);
      List.iter
        (fun (name, ns) ->
          Printf.printf "#   %-12s %10.3f us/req %6.2f%%\n" name (ns /. reqs /. 1e3)
            (100. *. ns /. wall))
        (List.sort (fun (_, a) (_, b) -> Float.compare b a) rows);
      Printf.printf "#   spans account for %.2f%% of the loop's wall time\n"
        (100. *. accounted /. wall)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) u)
          metrics))

let selected ~trace r =
  let values = e2e_values r @ layer_values r in
  List.map
    (fun (name, u) -> (name, Option.value ~default:0. (List.assoc_opt name values), u))
    (if trace then per_layer else end_to_end)

let correct r =
  List.for_all snd r.plain.checks
  && (match r.traced with Some t -> List.for_all snd t.checks | None -> true)
  && r.plain.failed = 0
  && match r.traced with Some t -> t.failed = 0 | None -> true

let write_trace r =
  match r.traced with
  | Some { trace = Some tr; _ } ->
      let file = Printf.sprintf "_dmbench/%s.trace.json" r.workload in
      let oc = open_out file in
      Trace.write_chrome tr ~limit:50_000 oc;
      close_out oc;
      Printf.printf "# chrome trace (first 50000 spans): %s\n" file
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Environment                                                       *)
(* ---------------------------------------------------------------- *)

(* Filesystem type of [path] from the longest matching /proc/mounts
   entry; fsync on tmpfs costs nothing, so journaled numbers from it
   would mean nothing. *)
let fs_type path =
  match open_in "/proc/mounts" with
  | exception Sys_error _ -> ("unknown", "?")
  | ic ->
      let best = ref ("unknown", "") in
      let covers mp =
        mp = "/" || path = mp
        || String.length path > String.length mp
           && String.sub path 0 (String.length mp + 1) = mp ^ "/"
      in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | _ :: mp :: ty :: _
             when covers mp && String.length mp >= String.length (snd !best) ->
               best := (ty, mp)
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !best

let prepare_dir () =
  (try Unix.mkdir "_dmbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ty, mp = fs_type (Unix.realpath "_dmbench") in
  Printf.printf "# journal directory ./_dmbench on %s (mounted at %s)\n" ty mp;
  if ty = "tmpfs" || ty = "ramfs" then begin
    prerr_endline "dmbench: refusing to run: fsync on a RAM filesystem costs nothing";
    exit 2
  end

(* ---------------------------------------------------------------- *)
(* --repeat: fresh processes, alternating workload order             *)
(* ---------------------------------------------------------------- *)

let child_metrics args =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let metrics = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | ("metric" | "layer") :: name :: v :: _ -> (
           match float_of_string_opt v with
           | Some f -> metrics := (name, f) :: !metrics
           | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (ok, List.rev !metrics)

let repeat ~runs ~seed ~seconds ~smoke ~trace names =
  let samples = Hashtbl.create 64 in
  let all_ok = ref true in
  for i = 0 to runs - 1 do
    let order = if i mod 2 = 0 then names else List.rev names in
    List.iter
      (fun w ->
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int (seed + i);
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ if smoke then [ "--smoke" ] else []
        in
        let ok, ms = child_metrics (Array.of_list args) in
        Printf.printf "# run %d %s seed %d: %s\n%!" (i + 1) w (seed + i)
          (if ok then "ok" else "FAILED");
        if not ok then all_ok := false;
        List.iter
          (fun (m, v) ->
            let key = (w, m) in
            Hashtbl.replace samples key
              (v :: Option.value ~default:[] (Hashtbl.find_opt samples key)))
          ms)
      order
  done;
  Printf.printf "# %d runs per workload, seeds %d..%d; spread = (q3 - q1) / median\n"
    runs seed (seed + runs - 1);
  List.iter
    (fun w ->
      List.iter
        (fun (m, u) ->
          match Hashtbl.find_opt samples (w, m) with
          | Some vs when List.length vs >= 2 ->
              let a = Array.of_list (List.rev vs) in
              let q1, q2, q3 = Quantile.quartiles a in
              Printf.printf "repeat %-10s %-28s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  %s\n"
                w m q2 q1 q3 (100. *. Quantile.spread a) u;
              if List.mem_assoc m end_to_end then
                Printf.printf "runs   %-10s %-28s %s\n" w m
                  (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") a)))
          | _ -> ())
        (end_to_end @ per_layer))
    names;
  !all_ok

(* ---------------------------------------------------------------- *)
(* Main                                                              *)
(* ---------------------------------------------------------------- *)

let () =
  let chosen = ref [] and all = ref false and seed = ref 1 in
  let seconds = ref 20. and trace = ref false and runs = ref 0 and smoke = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun w -> chosen := !chosen @ [ w ]),
       "NAME one of " ^ String.concat ", " workloads ^ " (repeatable)");
      ("--all", Arg.Set all, " run every workload");
      ("--seed", Arg.Set_int seed, "S seed of all input generation (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "X run length: request counts proportional to X (default 20, the nominal size)");
      ("--trace", Arg.Int (function
           | 0 -> trace := false
           | 1 -> trace := true
           | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
       "0|1 also run traced and report per-layer metrics (default 0)");
      ("--repeat", Arg.Set_int runs,
       "N rerun in N fresh processes per workload (seeds S..S+N-1) and print quartiles");
      ("--smoke", Arg.Set smoke,
       " 1% of every length with all checks on (all workloads unless --workload)");
    ]
  in
  let usage = "dmbench.exe (--workload NAME | --all | --smoke) [options]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  List.iter
    (fun w ->
      if not (List.mem w workloads) then begin
        Printf.eprintf "dmbench: unknown workload %s\n" w;
        exit 2
      end)
    !chosen;
  let names = if !all || (!smoke && !chosen = []) then workloads else !chosen in
  if names = [] then begin
    prerr_endline usage;
    exit 2
  end;
  if !smoke then seconds := 0.2;
  if not (!seconds > 0.) then begin
    prerr_endline "dmbench: --seconds must be positive";
    exit 2
  end;
  if !runs > 0 then
    exit (if repeat ~runs:!runs ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~trace:!trace names then 0 else 1);
  prepare_dir ();
  Printf.printf "# dmbench seed %d, seconds %g, one domain, trace %b\n%!" !seed
    !seconds !trace;
  let results =
    List.map
      (fun w ->
        let r =
          run_workload ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~trace:!trace w
        in
        print_run r;
        write_trace r;
        flush stdout;
        r)
      names
  in
  let ok = List.for_all correct results in
  let attempted = List.fold_left (fun a r -> a + r.plain.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.plain.failed) 0 results in
  let metrics =
    match results with
    | [ r ] -> selected ~trace:!trace r
    | _ ->
        List.concat_map
          (fun r ->
            List.map (fun (n, v, u) -> (r.workload ^ "." ^ n, v, u)) (selected ~trace:!trace r))
          results
  in
  print_endline (json_line ~correct:ok ~attempted ~failed metrics);
  exit (if ok then 0 else 1)
