(* Unit and property tests for the dm_store durability layer: frame
   codec, record codec, the group-commit log and its crash points,
   snapshot store, crash recovery and the cross-format snapshot
   equivalence the recovery path relies on. *)

module Vec = Dm_linalg.Vec
module Rng = Dm_prob.Rng
module Mechanism = Dm_market.Mechanism
module Broker = Dm_market.Broker
module Frame = Dm_store.Frame
module Journal = Dm_store.Journal
module Snapshots = Dm_store.Snapshots
module Fleet_store = Dm_store.Fleet
module Replay_market = Dm_experiments.Replay_market
module Recover = Dm_experiments.Recover
module Fleet = Dm_experiments.Fleet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop name count arb f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(Test_env.qcheck_count count) arb f)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* Scratch stores live under the build sandbox's cwd, never /tmp.  The
   directory starts empty, which is all [Fleet.create] accepts. *)
let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  Dm_experiments.Runner.with_scratch_dir
    (Printf.sprintf "store_test-%d" !dir_counter)
    (fun dir ->
      Unix.mkdir dir 0o755;
      f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let flip_byte path ~offset =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write")

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let fbits = Int64.bits_of_float

let event_equal (a : Broker.event) (b : Broker.event) =
  let obits = function None -> None | Some v -> Some (fbits v) in
  let vec_bits v = Array.init (Vec.dim v) (fun i -> fbits (Vec.get v i)) in
  a.Broker.t = b.Broker.t && a.kind = b.kind && a.accepted = b.accepted
  && fbits a.reserve = fbits b.reserve
  && fbits a.price_index = fbits b.price_index
  && fbits a.lower = fbits b.lower
  && fbits a.upper = fbits b.upper
  && obits a.posted = obits b.posted
  && fbits a.payment = fbits b.payment
  && vec_bits a.x = vec_bits b.x

(* A random but semantically shaped event; sparse-ish feature vectors
   (75% zeros) exercise the Vec.Sparse storage path, dense ones the
   float loop.  Non-zero entries stay away from -0., which sparse
   storage normalizes to +0. by design. *)
let gen_event ?dim rng ~t =
  let dim = match dim with Some d -> d | None -> 1 + Rng.int rng 40 in
  let sparse_ish = Rng.int rng 2 = 0 in
  let x =
    Vec.init dim (fun _ ->
        if sparse_ish && Rng.int rng 4 <> 0 then 0.
        else ((Rng.float rng -. 0.5) *. 8.) +. 0.001)
  in
  let kind =
    match Rng.int rng 4 with
    | 0 -> Broker.Exploratory
    | 1 -> Broker.Conservative
    | 2 -> Broker.Skipped
    | _ -> Broker.Baseline
  in
  let price = 0.25 +. Rng.float rng in
  match kind with
  | Broker.Skipped ->
      { Broker.t; x; reserve = Rng.float rng; kind; price_index = nan;
        lower = nan; upper = nan; posted = None; accepted = false; payment = 0. }
  | Broker.Baseline ->
      let accepted = Rng.int rng 2 = 0 in
      { Broker.t; x; reserve = price; kind; price_index = nan; lower = nan;
        upper = nan; posted = Some price; accepted;
        payment = (if accepted then price else 0.) }
  | _ ->
      let accepted = Rng.int rng 2 = 0 in
      { Broker.t; x; reserve = Rng.float rng; kind;
        price_index = Rng.float rng; lower = -.Rng.float rng;
        upper = 1. +. Rng.float rng; posted = Some price; accepted;
        payment = (if accepted then price else 0.) }

(* ------------------------------------------------------------------ *)
(* Frame: CRC32 framing                                                *)
(* ------------------------------------------------------------------ *)

let frame_string payloads =
  let buf = Buffer.create 256 in
  List.iter (Frame.append buf) payloads;
  Buffer.contents buf

(* Record end offsets: [e1; e2; ...; total]. *)
let frame_ends payloads =
  List.rev
    (List.fold_left
       (fun acc p ->
         let prev = match acc with [] -> 0 | e :: _ -> e in
         (prev + Frame.frame_bytes p) :: acc)
       [] payloads)

let firstn n l = List.filteri (fun i _ -> i < n) l

let prop_roundtrip =
  prop "framed records round-trip cleanly" 300
    QCheck.(small_list (string_of_size Gen.(int_range 0 48)))
    (fun payloads ->
      match Frame.decode (frame_string payloads) with
      | Ok (ps, Frame.Clean) -> ps = payloads
      | Ok (_, Frame.Torn _) -> QCheck.Test.fail_report "torn on clean input"
      | Error m -> QCheck.Test.fail_reportf "decode: %s" m)

let prop_truncation =
  prop "truncation yields the longest valid prefix" 500
    QCheck.(pair (small_list (string_of_size Gen.(int_range 0 32))) small_nat)
    (fun (payloads, cut_seed) ->
      let src = frame_string payloads in
      let cut = cut_seed mod (String.length src + 1) in
      let ends = frame_ends payloads in
      let expect_n = List.length (List.filter (fun e -> e <= cut) ends) in
      let boundary = cut = 0 || List.mem cut ends in
      let torn_at =
        List.fold_left (fun acc e -> if e <= cut then e else acc) 0 ends
      in
      match Frame.decode (String.sub src 0 cut) with
      | Ok (ps, tail) ->
          ps = firstn expect_n payloads
          && (match tail with
             | Frame.Clean -> boundary
             | Frame.Torn off -> (not boundary) && off = torn_at)
      | Error m -> QCheck.Test.fail_reportf "decode: %s" m)

let prop_corruption =
  prop "bit flips before the tail never pass as clean" 500
    QCheck.(
      triple
        (small_list (string_of_size Gen.(int_range 0 32)))
        small_nat small_nat)
    (fun (extra, pos_seed, bit_seed) ->
      (* Two fixed records up front guarantee a non-tail target. *)
      let payloads = "alpha-payload" :: "beta-payload" :: extra in
      let src = frame_string payloads in
      let ends = frame_ends payloads in
      let last_start = List.nth ends (List.length ends - 2) in
      let pos = pos_seed mod last_start in
      let corrupted = Bytes.of_string src in
      Bytes.set corrupted pos
        (Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl (bit_seed mod 8))));
      (* index of the record holding the flipped byte *)
      let corrupt_idx = List.length (List.filter (fun e -> e <= pos) ends) in
      match Frame.decode (Bytes.to_string corrupted) with
      | Error _ -> true
      | Ok (ps, tail) ->
          (* A flipped length field can masquerade as a torn tail, but
             only by discarding everything from the damaged record on —
             never by altering or inventing a payload. *)
          tail <> Frame.Clean
          && List.length ps <= corrupt_idx
          && ps = firstn (List.length ps) payloads)

let test_seal_matches_append () =
  let payloads =
    [ ""; "x"; String.init 16 Char.chr;
      String.init 41 (fun i -> Char.chr (i * 3 land 0xff)); "0123456789abcdef0" ]
  in
  let reference = frame_string payloads in
  (* Encode the same frames with blank CRCs, then seal the batch. *)
  let b = Bytes.make (String.length reference) '\000' in
  let at = ref 0 in
  List.iter
    (fun p ->
      Bytes.set_int32_le b !at (Int32.of_int (String.length p));
      Bytes.blit_string p 0 b (!at + 8) (String.length p);
      at := !at + 8 + String.length p)
    payloads;
  Frame.seal b ~stop:!at;
  check_bool "sealed batch = per-record framing" true
    (String.equal (Bytes.to_string b) reference);
  (match Frame.decode (Bytes.to_string b) with
  | Ok (ps, Frame.Clean) -> check_bool "decodes cleanly" true (ps = payloads)
  | _ -> Alcotest.fail "sealed batch did not decode cleanly");
  Alcotest.check_raises "mid-frame stop refused"
    (Invalid_argument "Frame.seal: truncated frame") (fun () ->
      Frame.seal b ~stop:(!at - 1))

(* ------------------------------------------------------------------ *)
(* Journal: record codec                                               *)
(* ------------------------------------------------------------------ *)

let prop_event_codec =
  prop "event codec round-trips every field bit-for-bit" 300
    QCheck.(pair (int_range 0 100_000) (int_range 0 10_000))
    (fun (seed, t) ->
      let e = gen_event (Rng.create seed) ~t in
      match Journal.decode_event (Journal.encode_event ~tenant:0 e) with
      | Ok (0, e') -> event_equal e e'
      | Ok (tn, _) -> QCheck.Test.fail_reportf "decoded as tenant %d" tn
      | Error m -> QCheck.Test.fail_reportf "decode_event: %s" m)

let tagged_dims = [| 1; 2; 8; 128 |]

let prop_tagged_codec =
  prop "tenant-tagged codec round-trips at n in {1, 2, 8, 128}" 200
    QCheck.(triple (int_range 0 100_000) (int_range 0 10_000) (int_range 0 3))
    (fun (seed, t, di) ->
      let rng = Rng.create seed in
      let e = gen_event ~dim:tagged_dims.(di) rng ~t in
      let tenant =
        match Rng.int rng 4 with
        | 0 -> 0
        | 1 -> 0xFFFF_FFFF (* the 2^32 - 1 header-field ceiling *)
        | _ -> Rng.int rng 1_000_000
      in
      match Journal.decode_event (Journal.encode_event ~tenant e) with
      | Ok (tn, e') -> tn = tenant && event_equal e e'
      | Error m -> QCheck.Test.fail_reportf "decode_event: %s" m)

let test_unknown_version_refused () =
  let e = gen_event (Rng.create 4) ~t:0 in
  (* only version 2 is ever written *)
  List.iter
    (fun v ->
      let p = Bytes.of_string (Journal.encode_event ~tenant:1 e) in
      Bytes.set p 0 (Char.chr v);
      match Journal.decode_event (Bytes.to_string p) with
      | Error m ->
          check_bool "decoder names offset and version" true
            (contains m "byte 0" && contains m (Printf.sprintf "version %d" v))
      | Ok _ -> Alcotest.failf "version %d accepted" v)
    [ 1; 3 ];
  Alcotest.check_raises "tenant id past 2^32 refused"
    (Invalid_argument "Journal.encode_event: tenant id outside [0, 2^32)")
    (fun () -> ignore (Journal.encode_event ~tenant:(1 lsl 32) e))

(* A hand-built payload with a feature vector whose header fields we
   control.  Fixed prefix: version (1) + tenant (4) + round (8) + kind
   (1) + accepted (1) + four f64 fields (32) + posted=None flag (1) +
   payment (8) + repr flag (1) put the dim field at byte 57, the sparse
   count at byte 61 and the sparse index run at byte 65. *)
let payload ~sparse ~dim ~count ~idx =
  let b = Buffer.create 128 in
  let f64 v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_char b '\002' (* version 2 *);
  u32 7 (* tenant *);
  Buffer.add_int64_le b 5L (* round *);
  Buffer.add_char b '\001' (* Exploratory *);
  Buffer.add_char b '\000' (* accepted = false *);
  f64 0.25 (* reserve *);
  f64 0.5 (* price_index *);
  f64 (-0.5) (* lower *);
  f64 1.5 (* upper *);
  Buffer.add_char b '\000' (* posted = None *);
  f64 0. (* payment *);
  Buffer.add_char b (if sparse then '\001' else '\000');
  u32 dim;
  if sparse then u32 count;
  Array.iter u32 idx;
  for _ = 1 to count do
    f64 1.0
  done;
  Buffer.contents b

let sparse_payload ~dim ~idx =
  payload ~sparse:true ~dim ~count:(Array.length idx) ~idx

let refused name payload ~at ~needle =
  match Journal.decode_event payload with
  | Ok _ -> Alcotest.failf "%s accepted" name
  | Error m ->
      check_bool
        (name ^ " names byte offset")
        true
        (contains m (Printf.sprintf "byte %d" at) && contains m needle)

let test_sparse_validation () =
  (* well-formed control: strictly increasing in-range indices *)
  (match Journal.decode_event (sparse_payload ~dim:8 ~idx:[| 0; 4; 7 |]) with
  | Ok (7, e) ->
      check_int "dim" 8 (Vec.dim e.Broker.x);
      List.iter
        (fun i -> check_bool "coordinate set" true (Vec.get e.Broker.x i = 1.0))
        [ 0; 4; 7 ]
  | Ok (tn, _) -> Alcotest.failf "decoded as tenant %d" tn
  | Error m -> Alcotest.fail m);
  refused "nnz > dim"
    (sparse_payload ~dim:2 ~idx:[| 0; 1; 1 |])
    ~at:61 ~needle:"exceeds dimension";
  refused "out-of-range index"
    (sparse_payload ~dim:8 ~idx:[| 2; 9 |])
    ~at:69 ~needle:"out of range";
  refused "duplicate index"
    (sparse_payload ~dim:8 ~idx:[| 3; 3 |])
    ~at:69 ~needle:"strictly increasing";
  refused "unsorted indices"
    (sparse_payload ~dim:8 ~idx:[| 5; 2 |])
    ~at:69 ~needle:"strictly increasing"

(* Header counts the payload cannot back are refused before anything
   is allocated from them: a dense dim-8 payload whose dim field has
   bit 30 set would otherwise ask [Array.init] for 2^30 floats. *)
let test_oversized_counts_refused () =
  refused "dense dim with bit 30 set"
    (payload ~sparse:false ~dim:(8 lor (1 lsl 30)) ~count:8 ~idx:[||])
    ~at:57 ~needle:"outside";
  refused "dense dim past the payload"
    (payload ~sparse:false ~dim:9 ~count:8 ~idx:[||])
    ~at:57 ~needle:"overrun";
  refused "sparse dim past the ceiling"
    (sparse_payload ~dim:(Journal.max_dim + 1) ~idx:[| 0 |])
    ~at:57 ~needle:"outside";
  refused "sparse count past the payload"
    (payload ~sparse:true ~dim:Journal.max_dim ~count:1_000 ~idx:[| 0; 1 |])
    ~at:61 ~needle:"overrun";
  (* the ceiling is the encoder's too, so nothing written is refused *)
  let e = gen_event ~dim:4 (Rng.create 2) ~t:0 in
  let big = { e with Broker.x = Vec.zeros (Journal.max_dim + 1) } in
  Alcotest.check_raises "encoder enforces the ceiling"
    (Invalid_argument "Journal.encode_event: dimension above the 2^20 ceiling")
    (fun () -> ignore (Journal.encode_event ~tenant:0 big));
  match
    Journal.decode_event
      (Journal.encode_event ~tenant:0
         { e with Broker.x = Vec.zeros Journal.max_dim })
  with
  | Ok (_, e') ->
      check_int "ceiling dim round-trips" Journal.max_dim (Vec.dim e'.Broker.x)
  | Error m -> Alcotest.fail m

let fuzz_dims = [| 1; 8; 128 |]

(* Damaged payloads never raise: flips (half of them aimed at the
   header counts in the first 80 bytes), truncation and trailing
   garbage all come back as [Ok] or [Error]. *)
let prop_decode_fuzz =
  prop "decoder never raises on flipped, truncated or extended bytes" 1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = gen_event ~dim:fuzz_dims.(Rng.int rng 3) rng ~t:(Rng.int rng 1000) in
      let p = Bytes.of_string (Journal.encode_event ~tenant:(Rng.int rng 64) e) in
      let n = Bytes.length p in
      let damaged =
        match Rng.int rng 3 with
        | 0 ->
            for _ = 0 to Rng.int rng 4 do
              let i = Rng.int rng (if Rng.int rng 2 = 0 then min n 80 else n) in
              let bit = 1 lsl Rng.int rng 8 in
              Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor bit))
            done;
            Bytes.to_string p
        | 1 -> Bytes.sub_string p 0 (Rng.int rng n)
        | _ ->
            Bytes.to_string p
            ^ String.init (1 + Rng.int rng 32) (fun _ -> Char.chr (Rng.int rng 256))
      in
      match Journal.decode_event damaged with
      | Ok _ | Error _ -> true
      | exception ex ->
          QCheck.Test.fail_reportf "decode_event raised %s" (Printexc.to_string ex))

let test_segment_start_boundary () =
  let big = 1_000_000_000_000 (* 10^12 widens past the %012d pad *) in
  check_bool "10^12 round-trips" true
    (Journal.segment_start (Journal.segment_name big) = Some big);
  check_bool "padded names still parse" true
    (Journal.segment_start "seg-000000000042.dmj" = Some 42);
  check_bool "int_of_string overflow rejected" true
    (Journal.segment_start "seg-99999999999999999999.dmj" = None);
  check_bool "non-digit run rejected" true
    (Journal.segment_start "seg-0000000000ab.dmj" = None);
  check_bool "empty digit run rejected" true
    (Journal.segment_start "seg-.dmj" = None)

(* ------------------------------------------------------------------ *)
(* The log: writer, reader and crash points                           *)
(* ------------------------------------------------------------------ *)

(* A seeded log of [n] records spread over [tenants], 4 KiB segments
   so it rotates every few dozen records.  Returns the records in
   append order and the open store. *)
let write_log ~dir ~seed ~tenants ~n =
  let rng = Rng.create seed in
  let fleet =
    Fleet_store.create ~segment_bytes:4096 ~latency_appends:8 ~dir ~tenants ()
  in
  let rounds = Array.make tenants 0 in
  let records =
    Array.init n (fun _ ->
        let tn = Rng.int rng tenants in
        let e = gen_event rng ~t:rounds.(tn) in
        Fleet_store.append fleet ~tenant:tn e;
        rounds.(tn) <- rounds.(tn) + 1;
        (tn, e))
  in
  (records, fleet)

let test_writer_rotation_roundtrip () =
  with_dir @@ fun dir ->
  let n = 300 in
  let records, fleet = write_log ~dir ~seed:99 ~tenants:1 ~n in
  check_int "appended" n (Fleet_store.appended fleet);
  (try
     Fleet_store.append fleet ~tenant:0 (snd records.(0));
     Alcotest.fail "round gap accepted"
   with Invalid_argument _ -> ());
  Fleet_store.close fleet;
  check_bool "rotation produced several segments" true
    (List.length (Journal.segments ~dir) > 1);
  match Fleet_store.read_dir ~dir with
  | Ok (got, Fleet_store.Clean) ->
      check_int "event count" n (List.length got);
      List.iteri
        (fun i (tn, e) ->
          check_int "tenant 0" 0 tn;
          check_bool "event bits" true (event_equal (snd records.(i)) e))
        got
  | Ok (_, Fleet_store.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error m -> Alcotest.fail m

(* Every byte offset a crash can leave behind, on a closed 1- or
   3-tenant log: each cut in the final segment (its magic included),
   and each cut in the last four frames of the previous segment with
   the final one not yet created — both sides of a rotation.  The
   survivors must be exactly the records whose frames end at or before
   the cut, in append order (so everything below any durable offset at
   or under the cut survives), and the tail must read [Torn] exactly
   when the cut is not on a frame boundary. *)
let crash_points ~tenants ~seed () =
  with_dir @@ fun dir ->
  let records, fleet = write_log ~dir ~seed ~tenants ~n:60 in
  Fleet_store.close fleet;
  let segs = Array.of_list (Journal.segments ~dir) in
  let n_segs = Array.length segs in
  check_bool "log spans several segments" true (n_segs >= 3);
  let magic_len = String.length Fleet_store.magic in
  (* [ends.(j)]: byte offset just past the segment's first j records *)
  let frame_ends i =
    let first = fst segs.(i) in
    let stop =
      if i + 1 < n_segs then fst segs.(i + 1) else Array.length records
    in
    let ends = Array.make (stop - first + 1) magic_len in
    for j = 1 to stop - first do
      let tn, e = records.(first + j - 1) in
      ends.(j) <-
        ends.(j - 1) + Frame.frame_bytes (Journal.encode_event ~tenant:tn e)
    done;
    ends
  in
  let check_cut ~seg ~ends ~cut =
    let first = fst segs.(seg) in
    let whole = Array.fold_left (fun k e -> if e <= cut then k + 1 else k) 0 ends in
    let survivors = if cut < magic_len then first else first + whole - 1 in
    let boundary = cut >= magic_len && Array.mem cut ends in
    match Fleet_store.read_dir ~dir with
    | Error m -> Alcotest.failf "cut %d of segment %d: %s" cut seg m
    | Ok (got, tail) ->
        if List.length got <> survivors then
          Alcotest.failf "cut %d of segment %d: %d survivors, expected %d" cut
            seg (List.length got) survivors;
        List.iteri
          (fun i (tn, e) ->
            let tn', e' = records.(i) in
            if tn <> tn' || not (event_equal e e') then
              Alcotest.failf "cut %d of segment %d: record %d differs" cut seg i)
          got;
        if (tail = Fleet_store.Clean) <> boundary then
          Alcotest.failf "cut %d of segment %d: tail %s on a %s" cut seg
            (if tail = Fleet_store.Clean then "clean" else "torn")
            (if boundary then "frame boundary" else "mid-frame cut")
  in
  let last = n_segs - 1 in
  let last_path = snd segs.(last) and prev_path = snd segs.(last - 1) in
  let last_bytes = read_file last_path and prev_bytes = read_file prev_path in
  let ends = frame_ends last in
  for cut = 0 to String.length last_bytes do
    write_file last_path (String.sub last_bytes 0 cut);
    check_cut ~seg:last ~ends ~cut
  done;
  Sys.remove last_path;
  let ends = frame_ends (last - 1) in
  for cut = ends.(max 0 (Array.length ends - 5)) to String.length prev_bytes do
    write_file prev_path (String.sub prev_bytes 0 cut);
    check_cut ~seg:(last - 1) ~ends ~cut
  done

let test_pretail_corruption_refused () =
  with_dir @@ fun dir ->
  let n = 120 in
  let _, fleet = write_log ~dir ~seed:13 ~tenants:1 ~n in
  Fleet_store.close fleet;
  let segs = Journal.segments ~dir in
  check_bool "multiple segments" true (List.length segs >= 2);
  let first = snd (List.hd segs) in
  (* One flipped payload byte well before the tail: offset 18 is magic
     (8) + frame header (8) + 2 bytes into the first record. *)
  flip_byte first ~offset:18;
  (match Fleet_store.read_dir ~dir with
  | Error m -> check_bool "names Fleet.read_dir" true (contains m "Fleet.read_dir")
  | Ok _ -> Alcotest.fail "pre-tail corruption accepted");
  flip_byte first ~offset:18;
  (* a mangled magic before the final segment is corruption too *)
  flip_byte first ~offset:0;
  (match Fleet_store.read_dir ~dir with
  | Error m -> check_bool "magic named" true (contains m "magic")
  | Ok _ -> Alcotest.fail "bad pre-tail magic accepted");
  flip_byte first ~offset:0;
  (* ...but on the final segment it is the rotation crash window *)
  let last = snd (List.nth segs (List.length segs - 1)) in
  flip_byte last ~offset:0;
  match Fleet_store.read_dir ~dir with
  | Ok (es, Fleet_store.Torn { segment; offset }) ->
      check_bool "final segment dropped whole" true
        (String.equal segment last && offset = 0);
      check_bool "earlier segments kept" true
        (List.length es > 0 && List.length es < n)
  | Ok (_, Fleet_store.Clean) -> Alcotest.fail "mangled final magic read as clean"
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Snapshots: atomic store, corrupt files skipped                      *)
(* ------------------------------------------------------------------ *)

(* Drive a mechanism over the Replay_market stream; the market index
   is a pure function of the round so every mechanism sees the same
   buyers. *)
let drive setup mech t =
  let x, reserve = setup.Replay_market.workload t in
  let market =
    (1.2 *. Vec.sum x /. float_of_int setup.Replay_market.dim)
    +. setup.Replay_market.noise t
  in
  let d, _ = Mechanism.step mech ~x ~reserve ~market_index:market in
  match d with
  | Mechanism.Skip -> Int64.min_int
  | Mechanism.Post { price; _ } -> fbits price

let test_snapshots_newest_skips_corrupt () =
  with_dir @@ fun dir ->
  let setup = Replay_market.make_setup ~dim:4 ~seed:11 ~rounds:200 () in
  let mech =
    Replay_market.mechanism setup (snd (List.nth Replay_market.variants 2))
  in
  for t = 0 to 99 do ignore (drive setup mech t) done;
  Snapshots.write ~dir ~round:100 mech;
  let b100 = Mechanism.snapshot_binary mech in
  for t = 100 to 199 do ignore (drive setup mech t) done;
  Snapshots.write ~dir ~round:200 mech;
  let b200 = Mechanism.snapshot_binary mech in
  check_bool "both rounds listed" true (Snapshots.rounds ~dir = [ 100; 200 ]);
  (match Snapshots.newest ~dir with
  | Some (200, m) ->
      check_bool "newest state exact" true
        (String.equal b200 (Mechanism.snapshot_binary m))
  | _ -> Alcotest.fail "newest did not pick round 200");
  (* damage the newest snapshot mid-payload: load refuses, newest
     falls back to the older valid one *)
  let snap200 = Filename.concat dir (Snapshots.file_name 200) in
  flip_byte snap200 ~offset:((Unix.stat snap200).Unix.st_size / 2);
  (match Snapshots.load ~dir ~round:200 with
  | Error m -> check_bool "load names a reason" true (contains m ":")
  | Ok _ -> Alcotest.fail "corrupt snapshot loaded");
  match Snapshots.newest ~dir with
  | Some (100, m) ->
      check_bool "fallback state exact" true
        (String.equal b100 (Mechanism.snapshot_binary m))
  | _ -> Alcotest.fail "newest did not fall back to round 100"

(* ------------------------------------------------------------------ *)
(* Prices across a snapshot round-trip                                 *)
(* ------------------------------------------------------------------ *)

(* Restore a mechanism from its binary snapshot and drive both over
   1000 further rounds of the same stream: every posted price must
   match bit-for-bit across the round trip through the snapshot
   format. *)
let cross_format ~dim ~variant_idx () =
  let prefix = 200 and extra = 1000 in
  let setup =
    Replay_market.make_setup ~dim ~seed:(31 + dim) ~rounds:(prefix + extra) ()
  in
  let variant = snd (List.nth Replay_market.variants variant_idx) in
  let mech = Replay_market.mechanism setup variant in
  for t = 0 to prefix - 1 do ignore (drive setup mech t) done;
  let m_bin = ok_or_fail (Mechanism.restore (Mechanism.snapshot_binary mech)) in
  let run m = Array.init extra (fun i -> drive setup m (prefix + i)) in
  let p0 = run mech in
  let p_bin = run m_bin in
  check_bool "binary restore prices bit-identical" true (p0 = p_bin)

let test_restore_error_names_position () =
  match Mechanism.restore "dm-mechanism-snapshot v9000\nnonsense" with
  | Ok _ -> Alcotest.fail "garbage restored"
  | Error m -> check_bool "prefixed" true (contains m "Mechanism.restore")

(* ------------------------------------------------------------------ *)
(* One-tenant store: crash, recovery, compaction                       *)
(* ------------------------------------------------------------------ *)

let recover_one ?initial dir =
  Result.map
    (fun (recs, _torn) -> recs.(0))
    (Fleet_store.recover ?initial ~dir ~tenants:1 ())

let test_store_crash_recover_compact () =
  with_dir @@ fun dir ->
  let rounds = 400 and crash = 250 in
  let setup = Replay_market.make_setup ~dim:4 ~seed:17 ~rounds () in
  let variant = snd (List.hd Replay_market.variants) in
  let store =
    Fleet_store.create ~segment_bytes:4096 ~snapshot_every:64 ~dir ~tenants:1 ()
  in
  let mech = Replay_market.mechanism setup variant in
  ignore
    (Broker.run
       ~journal:(Fleet_store.sink store ~tenant:0 ~mech)
       ~policy:(Broker.Ellipsoid_pricing mech) ~model:setup.Replay_market.model
       ~noise:setup.Replay_market.noise ~workload:setup.Replay_market.workload
       ~rounds:crash ());
  Fleet_store.simulate_crash store ~keep:0.5 ~junk:"torn-tail-garbage";
  let fresh _ = Replay_market.mechanism setup variant in
  let rec1 = ok_or_fail (recover_one ~initial:fresh dir) in
  check_bool "recovered from a snapshot" true (rec1.Fleet_store.snapshot_round > 0);
  check_bool "journal covers the prefix" true
    (Array.length rec1.Fleet_store.events = rec1.Fleet_store.next_round);
  check_bool "prefix within the crash point" true
    (rec1.Fleet_store.next_round <= crash);
  check_bool "prefix reaches the snapshot" true
    (rec1.Fleet_store.next_round >= rec1.Fleet_store.snapshot_round);
  (* pre-tail byte flip: recovery must refuse, not reprice *)
  let first_seg = snd (List.hd (Journal.segments ~dir)) in
  flip_byte first_seg ~offset:18;
  (match recover_one dir with
  | Error m -> check_bool "Module.function: reason" true (contains m ":")
  | Ok _ -> Alcotest.fail "recover accepted pre-tail corruption");
  flip_byte first_seg ~offset:18;
  let state1 =
    Mechanism.snapshot_binary (Option.get rec1.Fleet_store.mechanism)
  in
  let deleted = ok_or_fail (Fleet_store.compact ~dir ~tenants:1) in
  check_bool "compaction removed covered segments" true (deleted >= 1);
  let rec2 = ok_or_fail (recover_one ~initial:fresh dir) in
  check_bool "compaction preserves the recovered state" true
    (rec2.Fleet_store.next_round = rec1.Fleet_store.next_round
    && String.equal state1
         (Mechanism.snapshot_binary (Option.get rec2.Fleet_store.mechanism)))

(* Regression: compaction used to key its coverage decision off the
   newest snapshot *file name* rather than the newest snapshot that
   validates.  With the newest snapshot corrupted, recovery falls back
   to an older one — but compaction had already deleted the segments
   that fallback needs to replay from, stranding the store. *)
let test_store_compact_corrupt_newest_snapshot () =
  with_dir @@ fun dir ->
  let rounds = 400 in
  let setup = Replay_market.make_setup ~dim:4 ~seed:19 ~rounds () in
  let variant = snd (List.hd Replay_market.variants) in
  let store =
    Fleet_store.create ~segment_bytes:4096 ~snapshot_every:64 ~dir ~tenants:1 ()
  in
  let mech = Replay_market.mechanism setup variant in
  ignore
    (Broker.run
       ~journal:(Fleet_store.sink store ~tenant:0 ~mech)
       ~policy:(Broker.Ellipsoid_pricing mech) ~model:setup.Replay_market.model
       ~noise:setup.Replay_market.noise ~workload:setup.Replay_market.workload
       ~rounds ());
  Fleet_store.close store;
  let snap_dir = Fleet_store.tenant_dir dir 0 in
  let snaps = Snapshots.rounds ~dir:snap_dir in
  check_bool "several snapshots on disk" true (List.length snaps >= 2);
  let newest = List.fold_left max 0 snaps in
  let snap = Filename.concat snap_dir (Snapshots.file_name newest) in
  flip_byte snap ~offset:((Unix.stat snap).Unix.st_size / 2);
  let before = ok_or_fail (recover_one dir) in
  check_bool "recovery fell back below the corrupt newest" true
    (before.Fleet_store.snapshot_round > 0
    && before.Fleet_store.snapshot_round < newest);
  let state_before =
    Mechanism.snapshot_binary (Option.get before.Fleet_store.mechanism)
  in
  ignore (ok_or_fail (Fleet_store.compact ~dir ~tenants:1));
  let after = ok_or_fail (recover_one dir) in
  check_bool "compaction kept the fallback's replay segments" true
    (after.Fleet_store.next_round = before.Fleet_store.next_round
    && after.Fleet_store.snapshot_round = before.Fleet_store.snapshot_round
    && String.equal state_before
         (Mechanism.snapshot_binary (Option.get after.Fleet_store.mechanism)))

(* ------------------------------------------------------------------ *)
(* Fleet: shared group-commit journal                                  *)
(* ------------------------------------------------------------------ *)

let test_fleet_interleaved_roundtrip () =
  with_dir @@ fun dir ->
  let tenants = 3 in
  let rng = Rng.create 77 in
  let fleet = Fleet_store.create ~segment_bytes:4096 ~dir ~tenants () in
  let rounds = Array.make tenants 0 in
  let all = ref [] in
  for _ = 1 to 300 do
    let tn = Rng.int rng tenants in
    let e = gen_event rng ~t:rounds.(tn) in
    Fleet_store.append fleet ~tenant:tn e;
    rounds.(tn) <- rounds.(tn) + 1;
    all := (tn, e) :: !all
  done;
  let all = List.rev !all in
  (* round-order and range violations are refused before any write *)
  (try
     Fleet_store.append fleet ~tenant:0 (gen_event rng ~t:0);
     Alcotest.fail "per-tenant round gap accepted"
   with Invalid_argument _ -> ());
  (try
     Fleet_store.append fleet ~tenant:tenants (gen_event rng ~t:0);
     Alcotest.fail "out-of-range tenant accepted"
   with Invalid_argument _ -> ());
  Fleet_store.close fleet;
  check_bool "rotation produced several shared segments" true
    (List.length (Journal.segments ~dir) > 1);
  match Fleet_store.read_dir ~dir with
  | Ok (got, Fleet_store.Clean) ->
      check_int "record count" (List.length all) (List.length got);
      List.iter2
        (fun (tn, e) (tn', e') ->
          check_int "tenant tag" tn tn';
          check_bool "event bits" true (event_equal e e'))
        all got
  | Ok (_, Fleet_store.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error m -> Alcotest.fail m

let test_fleet_latency_bound () =
  with_dir @@ fun dir ->
  let fleet = Fleet_store.create ~latency_appends:8 ~dir ~tenants:1 () in
  let rng = Rng.create 5 in
  for t = 0 to 6 do
    Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t)
  done;
  check_int "no group commit below the latency bound" 0
    (Fleet_store.fsync_count fleet);
  check_int "nothing durable yet" 0 (Fleet_store.durable_offset fleet);
  Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t:7);
  check_int "one group fsync at the bound" 1 (Fleet_store.fsync_count fleet);
  check_bool "batch durable after the commit" true
    (Fleet_store.durable_offset fleet > 0);
  for t = 8 to 14 do
    Fleet_store.append fleet ~tenant:0 (gen_event ~dim:4 rng ~t)
  done;
  check_int "no further fsync below the next bound" 1
    (Fleet_store.fsync_count fleet);
  Fleet_store.sync fleet;
  check_int "explicit sync is a group barrier" 2 (Fleet_store.fsync_count fleet);
  check_int "fifteen records appended" 15 (Fleet_store.appended fleet);
  Fleet_store.close fleet

(* Crash property: whatever [keep]/[junk] does to the torn tail, the
   surviving records are a prefix of the global append order — the
   same suffix is lost for every tenant — and everything covered by
   the last group fsync survives. *)
let prop_fleet_crash_prefix =
  prop "fleet crash loses one shared global suffix" 15
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, crash_seed) ->
      with_dir @@ fun dir ->
      let rng = Rng.create seed in
      let tenants = 1 + Rng.int rng 3 in
      let total = 40 + Rng.int rng 80 in
      let sync_at = Rng.int rng total in
      let fleet =
        Fleet_store.create
          ~latency_appends:(1 + Rng.int rng 16)
          ~dir ~tenants ()
      in
      let rounds = Array.make tenants 0 in
      let all = ref [] in
      let synced = ref 0 in
      for k = 0 to total - 1 do
        let tn = Rng.int rng tenants in
        let e = gen_event rng ~t:rounds.(tn) in
        Fleet_store.append fleet ~tenant:tn e;
        rounds.(tn) <- rounds.(tn) + 1;
        all := (tn, e) :: !all;
        if k = sync_at then begin
          Fleet_store.sync fleet;
          synced := Fleet_store.appended fleet
        end
      done;
      let all = List.rev !all in
      let crng = Rng.create crash_seed in
      let junk =
        String.init (1 + Rng.int crng 24) (fun _ -> Char.chr (Rng.int crng 256))
      in
      Fleet_store.simulate_crash fleet ~keep:(Rng.float crng) ~junk;
      match Fleet_store.read_dir ~dir with
      | Error m -> QCheck.Test.fail_reportf "read_dir after crash: %s" m
      | Ok (got, _tail) ->
          let k = List.length got in
          if k < !synced then
            QCheck.Test.fail_reportf "lost fsync'd records (%d < %d)" k !synced
          else
            List.for_all2
              (fun (tn, e) (tn', e') -> tn = tn' && event_equal e e')
              (firstn k all) got)

(* A directory left by an earlier run must not be recovered as the new
   run's state: [create] refuses it whole, while an empty one is fine. *)
let test_fleet_create_refuses_used_dir () =
  with_dir @@ fun dir ->
  let records, fleet = write_log ~dir ~seed:3 ~tenants:2 ~n:40 in
  Fleet_store.snapshot fleet ~tenant:0
    (Mechanism.create
       (Mechanism.config ~variant:Mechanism.pure ~epsilon:0.1 ())
       (Dm_market.Ellipsoid.ball ~dim:2 ~radius:1.));
  Fleet_store.close fleet;
  (match Fleet_store.create ~dir ~tenants:2 () with
  | _ -> Alcotest.fail "a used store directory was reopened"
  | exception Invalid_argument m ->
      check_bool "names Fleet.create" true (contains m "Fleet.create"));
  (match Fleet_store.read_dir ~dir with
  | Ok (got, Fleet_store.Clean) ->
      check_int "the old log is untouched" (Array.length records) (List.length got)
  | _ -> Alcotest.fail "refusal damaged the old log");
  let sub = Filename.concat dir "fresh" in
  Unix.mkdir sub 0o755;
  Fleet_store.close (Fleet_store.create ~dir:sub ~tenants:1 ())

let test_fleet_driver_smoke () =
  let out = render (fun ppf -> Fleet.report ~scale:0.01 ~jobs:1 ppf) in
  check_bool "all tenants bit-identical" true
    (contains out "10/10 tenants bit-identical");
  check_bool "group-commit amortization reported" true
    (contains out "fsyncs per tenant-round")

let test_fleet_driver_jobs_independent () =
  let out jobs = render (fun ppf -> Fleet.report ~scale:0.01 ~jobs ppf) in
  check_bool "bytes identical across jobs" true (String.equal (out 1) (out 2))

let test_fleet_amortization_shape () =
  let entries = Fleet.journal_amortization ~seed:3 ~tenants:8 ~rounds:40 ~reps:1 () in
  check_bool "expected names" true
    (List.map fst entries
    = [ "journal/fleet_group"; "journal/fleet_fsyncs_per_kround" ]);
  let ns = List.assoc "journal/fleet_group" entries in
  check_bool "ns positive and finite" true (ns > 0. && Float.is_finite ns);
  let per_kround = List.assoc "journal/fleet_fsyncs_per_kround" entries in
  check_bool "group commit beats one fsync per round" true
    (per_kround > 0. && per_kround < 1000.)

(* ------------------------------------------------------------------ *)
(* Request batcher                                                     *)
(* ------------------------------------------------------------------ *)

module Batcher = Fleet_store.Batcher

let test_batcher_flush_rules () =
  (* Batch-full: exactly the [capacity]-th add flushes, in arrival
     order, with the latency trigger far away. *)
  let b = Batcher.create ~capacity:3 ~latency_rounds:100 in
  check_bool "first add pends" true (Batcher.add b 1 = None);
  check_bool "second add pends" true (Batcher.add b 2 = None);
  check_int "two pending" 2 (Batcher.pending b);
  (match Batcher.add b 3 with
  | Some batch -> check_bool "capacity flush in order" true (batch = [| 1; 2; 3 |])
  | None -> Alcotest.fail "capacity trigger did not fire");
  check_int "drained" 0 (Batcher.pending b);
  (* Bounded latency: a lone request flushes once it is exactly
     [latency_rounds] rounds old — its own add counts as a round, so
     with L = 4 the third tick fires, not the second. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:4 in
  check_bool "add pends" true (Batcher.add b 7 = None);
  check_bool "tick 2 pends" true (Batcher.tick b = None);
  check_bool "tick 3 pends" true (Batcher.tick b = None);
  (match Batcher.tick b with
  | Some batch -> check_bool "latency flush" true (batch = [| 7 |])
  | None -> Alcotest.fail "latency trigger did not fire");
  (* An empty batcher never flushes on ticks, however many pass. *)
  for _ = 1 to 10 do
    check_bool "idle tick" true (Batcher.tick b = None)
  done;
  (* Adds advance the same round clock as ticks: two adds then two
     ticks age the oldest request to L = 4. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:4 in
  check_bool "add a" true (Batcher.add b 10 = None);
  check_bool "add b" true (Batcher.add b 11 = None);
  check_bool "tick 3" true (Batcher.tick b = None);
  (match Batcher.tick b with
  | Some batch -> check_bool "mixed-clock flush" true (batch = [| 10; 11 |])
  | None -> Alcotest.fail "mixed add/tick latency trigger did not fire");
  (* flush drains whatever pends and reports an empty queue as None. *)
  let b = Batcher.create ~capacity:3 ~latency_rounds:100 in
  check_bool "nothing to flush" true (Batcher.flush b = None);
  ignore (Batcher.add b 1);
  check_bool "flush drains" true (Batcher.flush b = Some [| 1 |]);
  check_bool "flush idempotent" true (Batcher.flush b = None)

let test_batcher_degenerate_and_validation () =
  (* capacity = 1 is unbatched serving: every add flushes itself. *)
  let b = Batcher.create ~capacity:1 ~latency_rounds:100 in
  for i = 1 to 5 do
    check_bool "capacity-1 add flushes" true (Batcher.add b i = Some [| i |])
  done;
  (* latency_rounds = 1 degenerates the same way. *)
  let b = Batcher.create ~capacity:100 ~latency_rounds:1 in
  check_bool "latency-1 add flushes" true (Batcher.add b 9 = Some [| 9 |]);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Fleet.Batcher.create: capacity must be >= 1") (fun () ->
      ignore (Batcher.create ~capacity:0 ~latency_rounds:1));
  Alcotest.check_raises "zero latency"
    (Invalid_argument "Fleet.Batcher.create: latency_rounds must be >= 1")
    (fun () -> ignore (Batcher.create ~capacity:1 ~latency_rounds:0))

(* Any add/tick stream: batches concatenate to exactly the adds in
   arrival order, never exceed capacity, and no request waits more
   than latency_rounds rounds from its add to its flush. *)
let prop_batcher_stream =
  prop "batcher preserves order, capacity and latency bounds" 100
    QCheck.(
      triple (int_range 1 8) (int_range 1 10) (small_list (option unit)))
    (fun (capacity, latency_rounds, ops) ->
      let b = Batcher.create ~capacity ~latency_rounds in
      let next = ref 0 in
      let added = ref [] in
      let flushed = ref [] in
      let age = Hashtbl.create 16 in
      let round = ref 0 in
      let ok = ref true in
      let take = function
        | None -> ()
        | Some batch ->
            if Array.length batch > capacity then ok := false;
            Array.iter
              (fun r ->
                flushed := r :: !flushed;
                (match Hashtbl.find_opt age r with
                | Some born when !round - born > latency_rounds -> ok := false
                | Some _ -> ()
                | None -> ok := false);
                Hashtbl.remove age r)
              batch
      in
      List.iter
        (fun op ->
          incr round;
          match op with
          | Some () ->
              let r = !next in
              incr next;
              added := r :: !added;
              Hashtbl.replace age r (!round - 1);
              take (Batcher.add b r)
          | None -> take (Batcher.tick b))
        ops;
      take (Batcher.flush b);
      !ok && List.rev !flushed = List.rev !added && Batcher.pending b = 0)

(* ------------------------------------------------------------------ *)
(* Recover driver                                                      *)
(* ------------------------------------------------------------------ *)

let test_recover_driver_smoke () =
  let out = render (fun ppf -> Recover.report ~scale:0.01 ~seed:5 ~jobs:1 ppf) in
  check_bool "all variants bit-identical" true
    (contains out "4/4 variants bit-identical");
  check_bool "corruption probe rejected" true (contains out "rejected");
  check_bool "compaction verified" true (contains out "ok (-");
  List.iter
    (fun bad -> check_bool ("no row reads " ^ bad) false (contains out bad))
    [ "ACCEPTED"; "DRIFT"; "MISMATCH" ]

let test_recover_driver_jobs_independent () =
  let out jobs = render (fun ppf -> Recover.report ~scale:0.01 ~seed:5 ~jobs ppf) in
  check_bool "bytes identical across jobs" true (String.equal (out 1) (out 2))

let test_journal_overhead_shape () =
  let entries = Recover.journal_overhead ~seed:3 ~reps:1 ~rounds:300 () in
  check_int "three modes" 3 (List.length entries);
  check_bool "expected names" true
    (List.map fst entries
    = [ "journal/longrun_off"; "journal/longrun_nofsync"; "journal/longrun_fsync" ]);
  List.iter
    (fun (name, ns) ->
      check_bool (name ^ " positive and finite") true (ns > 0. && Float.is_finite ns))
    entries

(* ------------------------------------------------------------------ *)

let () = Test_env.install_pool_from_env ()

let () =
  Alcotest.run "dm_store"
    [
      ( "frame",
        [
          prop_roundtrip;
          prop_truncation;
          prop_corruption;
          Alcotest.test_case "batch seal = per-record framing" `Quick
            test_seal_matches_append;
        ] );
      ( "journal",
        [
          prop_event_codec;
          prop_tagged_codec;
          Alcotest.test_case "unknown versions refused" `Quick
            test_unknown_version_refused;
          Alcotest.test_case "malformed sparse payloads refused" `Quick
            test_sparse_validation;
          Alcotest.test_case "oversized counts refused before allocating"
            `Quick test_oversized_counts_refused;
          Alcotest.test_case "segment names past 12 digits" `Quick
            test_segment_start_boundary;
          prop_decode_fuzz;
          Alcotest.test_case "writer rotation round-trip" `Quick
            test_writer_rotation_roundtrip;
          Alcotest.test_case "crash points, one tenant" `Quick
            (crash_points ~tenants:1 ~seed:7);
          Alcotest.test_case "crash points, three tenants" `Quick
            (crash_points ~tenants:3 ~seed:8);
          Alcotest.test_case "pre-tail corruption refused" `Quick
            test_pretail_corruption_refused;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "newest skips corrupt files" `Quick
            test_snapshots_newest_skips_corrupt;
          Alcotest.test_case "restore error names position" `Quick
            test_restore_error_names_position;
          Alcotest.test_case "cross-format prices, n = 1" `Quick
            (cross_format ~dim:1 ~variant_idx:0);
          Alcotest.test_case "cross-format prices, n = 2" `Quick
            (cross_format ~dim:2 ~variant_idx:1);
          Alcotest.test_case "cross-format prices, n = 8" `Quick
            (cross_format ~dim:8 ~variant_idx:2);
          Alcotest.test_case "cross-format prices, n = 128" `Slow
            (cross_format ~dim:128 ~variant_idx:3);
        ] );
      ( "store",
        [
          Alcotest.test_case "crash, recover, compact" `Quick
            test_store_crash_recover_compact;
          Alcotest.test_case "compact with corrupt newest snapshot" `Quick
            test_store_compact_corrupt_newest_snapshot;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "interleaved round-trip with rotation" `Quick
            test_fleet_interleaved_roundtrip;
          Alcotest.test_case "latency-bound group commit" `Quick
            test_fleet_latency_bound;
          prop_fleet_crash_prefix;
          Alcotest.test_case "create refuses a used directory" `Quick
            test_fleet_create_refuses_used_dir;
          Alcotest.test_case "driver smoke (tiny)" `Slow test_fleet_driver_smoke;
          Alcotest.test_case "driver jobs-independent bytes" `Slow
            test_fleet_driver_jobs_independent;
          Alcotest.test_case "amortization shape" `Slow
            test_fleet_amortization_shape;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "flush rules" `Quick test_batcher_flush_rules;
          Alcotest.test_case "degenerate capacities and validation" `Quick
            test_batcher_degenerate_and_validation;
          prop_batcher_stream;
        ] );
      ( "recover driver",
        [
          Alcotest.test_case "smoke (tiny)" `Slow test_recover_driver_smoke;
          Alcotest.test_case "jobs-independent bytes" `Slow
            test_recover_driver_jobs_independent;
          Alcotest.test_case "journal overhead shape" `Slow
            test_journal_overhead_shape;
        ] );
    ]
