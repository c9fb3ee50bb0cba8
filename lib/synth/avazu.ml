module Rng = Dm_prob.Rng
module Dist = Dm_prob.Dist
module Hashing = Dm_ml.Hashing

type impression = { fields : (string * string) list; clicked : bool }

let field_names =
  [|
    "banner_pos"; "site_id"; "site_category"; "app_id"; "app_category";
    "device_model"; "device_type"; "device_conn_type"; "hour_band";
  |]

(* Ground-truth log-odds contributions.  Only a handful of raw values
   carry signal, so the fitted model is sparse. *)
let latent_weight field value =
  match (field, value) with
  | "banner_pos", "1" -> 0.5
  | "banner_pos", "3" -> 0.9
  | "site_category", "cat_02" -> 0.45
  | "site_category", "cat_04" -> -0.55
  | "app_category", "cat_01" -> 0.4
  | "app_category", "cat_05" -> -0.35
  | "device_type", "1" -> 0.3
  | "device_type", "4" -> -0.6
  | "device_conn_type", "2" -> -0.5
  | "hour_band", "evening" -> 0.25
  | "hour_band", "night" -> -0.3
  | "site_id", "site_0001" -> 0.35
  | "app_id", "app_0002" -> -0.4
  | _ -> 0.

let base_log_odds = -1.7 (* σ(−1.7) ≈ 0.154, near the real ≈17% CTR *)

let sigmoid z = 1. /. (1. +. exp (-.z))

let log_odds fields =
  List.fold_left
    (fun acc (f, v) -> acc +. latent_weight f v)
    base_log_odds fields

let true_ctr imp = sigmoid (log_odds imp.fields)

(* Field vocabularies.  Ad streams are dominated by a small head of
   sites/apps/models (the paper's Avazu slice behaves the same after
   hashing); the aggregated ids keep the stream's effective rank at
   the level a 10⁵-round pricing horizon can actually learn. *)
let hour_bands =
  [| "night"; "morning"; "noon"; "afternoon"; "evening"; "late" |]

let draw_fields rng =
  let pad4 i = Printf.sprintf "%04d" i in
  [
    ("banner_pos", string_of_int (Dist.zipf rng ~n:4 ~s:1.2));
    ("site_id", "site_" ^ pad4 (1 + Dist.zipf rng ~n:12 ~s:1.3));
    ("site_category", Printf.sprintf "cat_%02d" (Dist.zipf rng ~n:6 ~s:1.2));
    ("app_id", "app_" ^ pad4 (1 + Dist.zipf rng ~n:10 ~s:1.3));
    ("app_category", Printf.sprintf "cat_%02d" (Dist.zipf rng ~n:6 ~s:1.2));
    ("device_model", "model_" ^ pad4 (Dist.zipf rng ~n:15 ~s:1.2));
    ( "device_type",
      string_of_int
        (Dist.categorical rng ~weights:[| 0.55; 0.25; 0.1; 0.06; 0.04 |]) );
    ("device_conn_type", string_of_int (Dist.zipf rng ~n:4 ~s:0.8));
    ("hour_band", hour_bands.(Dist.zipf rng ~n:6 ~s:0.4));
  ]

let draw rng =
  let fields = draw_fields rng in
  let p = sigmoid (log_odds fields) in
  { fields; clicked = Dist.bernoulli rng ~p }

let generate rng ~rounds =
  if rounds < 1 then invalid_arg "Avazu.generate: need at least one round";
  Array.init rounds (fun _ -> draw rng)

(* A constant bias feature lets FTRL park the base click rate in one
   bucket instead of smearing it over every frequent field value —
   without it the fitted model can never be sparse. *)
let encode ~dim imp = Hashing.encode ~dim (("bias", "1") :: imp.fields)
