(* One timed pass over a workload: what the loops record and what the
   report reads.  The span names are the layers the harness times from
   outside the library; [gen], [wait] and the self time of [flush] are
   the harness's own work. *)

let names =
  [|
    "gen"; "wait"; "phi"; "batcher"; "flush"; "decide"; "buyer"; "observe";
    "journal"; "recover";
  |]

let gen = 0
let wait = 1
let phi = 2
let batcher = 3
let flush = 4
let decide = 5
let buyer = 6
let observe = 7
let journal = 8
let recover = 9

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  trace : Trace.t option;
  mutable attempted : int;
  mutable failed : int;
  errors : int array;  (** exceptions raised, per span name *)
  mutable loop_ns : int;  (** wall time of every timed phase *)
  rates : float array;
      (** requests per second in each throughput window; the highest is
          [throughput_rps] *)
  mutable quote_us : float array;
      (** closed-loop requests: from issue to decision *)
  mutable complete_us : float array;  (** closed-loop: issue to finish *)
  lat_marks : int array;
      (** window [w]'s samples are [lat_marks.(w)] up to
          [lat_marks.(w+1)] of [quote_us] and [complete_us] *)
  mutable open_quote_us : float array;
      (** open-loop requests (serve loop): from due time to decision *)
  mutable open_complete_us : float array;
  mutable regret : float;
  mutable value : float;
  mutable explore : int;
  mutable skip : int;
  mutable gc_before : Gc.stat;
  mutable gc_after : Gc.stat;
  mutable minor_words : float;
      (** over the timed phases; [Gc.quick_stat]'s count lags until the
          next minor collection, [Gc.minor_words] does not *)
  mutable checks : (string * bool) list;  (** name, passed — in run order *)
  mutable extra : (string * float) list;
      (** per-layer values only one loop measures *)
}

let create ~trace ~capacity ~windows =
  let trace =
    if trace then Some (Trace.create ~names ~capacity) else None
  in
  let g = Gc.quick_stat () in
  {
    trace;
    attempted = 0;
    failed = 0;
    errors = Array.make (Array.length names) 0;
    loop_ns = 0;
    rates = Array.make windows 0.;
    quote_us = [||];
    complete_us = [||];
    lat_marks = Array.make (windows + 1) 0;
    open_quote_us = [||];
    open_complete_us = [||];
    regret = 0.;
    value = 0.;
    explore = 0;
    skip = 0;
    gc_before = g;
    gc_after = g;
    minor_words = 0.;
    checks = [];
    extra = [];
  }

let span p ~name ~req ~parent ~start ~stop =
  match p.trace with
  | Some tr -> Trace.span tr ~name ~req ~parent ~start ~stop
  | None -> ()

let enter p ~name ~req ~parent ~start =
  match p.trace with
  | Some tr -> Trace.enter tr ~name ~req ~parent ~start
  | None -> -1

let leave p id ~stop =
  match p.trace with Some tr -> Trace.leave tr id ~stop | None -> ()

let gc_start p =
  p.gc_before <- Gc.quick_stat ();
  p.minor_words <- Gc.minor_words ()

let gc_stop p =
  p.minor_words <- Gc.minor_words () -. p.minor_words;
  p.gc_after <- Gc.quick_stat ()

let check p name ok = p.checks <- p.checks @ [ (name, ok) ]

let count_decision p = function
  | Dm_market.Mechanism.Skip -> p.skip <- p.skip + 1
  | Dm_market.Mechanism.Post { kind = Dm_market.Mechanism.Exploratory; _ } ->
      p.explore <- p.explore + 1
  | Dm_market.Mechanism.Post { kind = Dm_market.Mechanism.Conservative; _ } -> ()

(* Set-up runs [setup_reps] times from a collected heap; the reported
   time is the median and the last instance is the one the loop uses. *)
let setup_reps = 3

let timed_setup f =
  let times = Array.make setup_reps 0. in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    times.(i) <- float_of_int (now () - t0) /. 1e9;
    last := Some v
  done;
  (Option.get !last, Quantile.median times)
