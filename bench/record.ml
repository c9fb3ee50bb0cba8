module Table = Dm_experiments.Table

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json_exn src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'u' ->
              (* Our emitter only writes \u00XX control escapes. *)
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub src (!pos + 1) 4) in
              Buffer.add_char buf (Char.chr (code land 0xff));
              pos := !pos + 4
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_json src =
  match parse_json_exn src with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

type record = {
  stamp : string;
  scale : float option;
  jobs : int option;
  cores : int option;
  profile : string option;
  stage1 : (string * float) list;
  stage2 : (string * float option) list;
}

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let of_string ?(path = "<string>") src =
  match parse_json src with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok root -> (
      match member "schema" root with
      | Some (Str "dm-bench/1") ->
          let stamp =
            match member "stamp" root with Some (Str s) -> s | _ -> "?"
          in
          let num key =
            match member key root with Some (Num f) -> Some f | _ -> None
          in
          let int key = Option.map int_of_float (num key) in
          let entries key name_field value_of =
            match member key root with
            | Some (Arr items) ->
                List.filter_map
                  (fun item ->
                    match (member name_field item, value_of item) with
                    | Some (Str name), Some v -> Some (name, v)
                    | _ -> None)
                  items
            | _ -> []
          in
          Ok
            {
              stamp;
              scale = num "scale";
              jobs = int "jobs";
              cores = int "cores";
              profile =
                (match member "profile" root with
                | Some (Str p) -> Some p
                | _ -> None);
              stage1 =
                entries "stage1_wall_clock_s" "artifact" (fun item ->
                    match member "seconds" item with
                    | Some (Num f) -> Some f
                    | _ -> None);
              stage2 =
                entries "stage2_ns_per_call" "benchmark" (fun item ->
                    match member "ns" item with
                    | Some (Num f) -> Some (Some f)
                    | Some Null -> Some None
                    | _ -> None);
            }
      | _ -> Error (Printf.sprintf "%s: not a dm-bench/1 record" path))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> of_string ~path src
  | exception Sys_error msg -> Error msg

(* Metric keys whose disappearance from a newer record is itself a
   regression: the perf-sensitive kernels a refactor is most likely to
   silently drop from the bench matrix. *)
let critical_prefixes =
  [
    "pricing/sparse_cut"; "pricing/app1 phi"; "pricing/app3 observe";
    "journal/"; "journal/fleet";
    "hd/"; "stress/"; "serve/"; "gc/"; "auction/";
  ]

let is_critical name =
  List.exists
    (fun p ->
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p)
    critical_prefixes

(* Stage-2 keys that count words or fsyncs rather than time a call.
   They repeat exactly for one configuration, so a few percent is a
   real change: they get [count_threshold] instead of the timing
   threshold. *)
let count_threshold = 0.05

let is_count name =
  String.ends_with ~suffix:" minor_words" name
  || name = "journal/fleet_fsyncs_per_kround"

(* A field missing from either record (older emitters wrote no
   [cores] or [profile]) cannot tell the two apart, so only fields both
   carry are compared. *)
let config_differences a b =
  let field name show x y =
    match (x, y) with
    | Some x, Some y when x <> y ->
        [ Printf.sprintf "%s %s vs %s" name (show x) (show y) ]
    | _ -> []
  in
  field "scale" (Printf.sprintf "%g") a.scale b.scale
  @ field "jobs" string_of_int a.jobs b.jobs
  @ field "cores" string_of_int a.cores b.cores
  @ field "profile" Fun.id a.profile b.profile

let compare_section ppf ~title ~unit ~threshold ?(critical = fun _ -> false)
    ?(timings = true) old_entries new_entries =
  let regressions = ref 0 in
  (* One-sided keys (absent on one record, or measured as null) render a
     stable "n/a" in every affected column, so diffs of diffs stay
     greppable and a null measurement is never mistaken for a zero. *)
  let fmt_value = function
    | Some v -> Printf.sprintf "%.4g %s" v unit
    | None -> "n/a"
  in
  let rows =
    List.map
      (fun (name, nv) ->
        let ov = List.assoc_opt name old_entries in
        let delta, verdict =
          match (ov, nv) with
          | Some (Some o), Some nv' when o > 0. ->
              let d = (nv' -. o) /. o in
              let threshold =
                if is_count name then count_threshold else threshold
              in
              let verdict =
                if d > threshold then begin
                  incr regressions;
                  "REGRESSION"
                end
                else if d < -.threshold then "improved"
                else "ok"
              in
              (Printf.sprintf "%+.1f%%" (100. *. d), verdict)
          | None, _ -> ("n/a", "new")
          | Some _, _ -> ("n/a", "n/a")
        in
        [ name; fmt_value (Option.join ov); fmt_value nv; delta; verdict ])
      (if timings then new_entries else [])
  in
  let removed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name new_entries then None
        else begin
          let verdict =
            if critical name then begin
              incr regressions;
              "REGRESSION (removed)"
            end
            else "removed"
          in
          Some
            [
              name;
              fmt_value (List.assoc_opt name old_entries |> Option.join);
              "n/a"; "n/a"; verdict;
            ]
        end)
      old_entries
  in
  Table.print ppf ~title ~header:[ "benchmark"; "old"; "new"; "delta"; "" ]
    (rows @ removed);
  !regressions

let compare_records ppf ~threshold old_rec new_rec =
  Format.fprintf ppf
    "comparing %s (old) vs %s (new), threshold %+.0f%%, counts %+.0f%%@."
    old_rec.stamp new_rec.stamp (100. *. threshold) (100. *. count_threshold);
  (* Timings taken at another scale, pool size, core count or build
     profile say nothing about the code; a removed critical key still
     does. *)
  let timings =
    match config_differences old_rec new_rec with
    | [] -> true
    | diffs ->
        Format.fprintf ppf
          "configurations differ (%s): timings not compared, only removed \
           keys listed@."
          (String.concat ", " diffs);
        false
  in
  let r1 =
    compare_section ppf ~title:"stage 1: experiment wall-clock" ~unit:"s"
      ~threshold ~timings
      (List.map (fun (n, v) -> (n, Some v)) old_rec.stage1)
      (List.map (fun (n, v) -> (n, Some v)) new_rec.stage1)
  in
  let r2 =
    compare_section ppf ~title:"stage 2: kernel ns/call" ~unit:"ns" ~threshold
      ~timings ~critical:is_critical old_rec.stage2 new_rec.stage2
  in
  r1 + r2
