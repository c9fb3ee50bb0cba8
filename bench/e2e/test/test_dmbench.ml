open Bench_e2e

let close = Alcotest.float 1e-12

let test_nearest_rank () =
  let s = Quantile.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check close "p50" 50. (Quantile.nearest_rank s 0.5);
  Alcotest.check close "p99" 99. (Quantile.nearest_rank s 0.99);
  Alcotest.check close "p100" 100. (Quantile.nearest_rank s 1.);
  Alcotest.check close "p0 is the minimum" 1. (Quantile.nearest_rank s 0.);
  Alcotest.check close "single sample" 7. (Quantile.nearest_rank [| 7. |] 0.99)

(* Expected values are what Python's statistics.quantiles(data, n=4)
   returns on the same data. *)
let test_quartiles () =
  let check name data (a, b, c) =
    let q1, q2, q3 = Quantile.quartiles data in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "two values" [| 2.; 1. |] (0.75, 1.5, 2.25);
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "five" [| 5.; 1.; 4.; 2.; 3. |] (1.5, 3., 4.5);
  check "seven" [| 3.2; 1.5; 9.0; 4.4; 7.1; 2.2; 8.8 |] (2.2, 4.4, 8.8);
  Alcotest.check close "spread" 1. (Quantile.spread [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check close "median even" 2.5 (Quantile.median [| 4.; 1.; 3.; 2. |])

let test_reportable () =
  let r = Alcotest.(check bool) in
  r "p99 of 1000 has 10 beyond" true (Quantile.reportable ~n:1_000 0.99);
  r "p99 of 999 has 9 beyond" false (Quantile.reportable ~n:999 0.99);
  r "p99.9 of 10000" true (Quantile.reportable ~n:10_000 0.999);
  r "p99.9 of 9999" false (Quantile.reportable ~n:9_999 0.999);
  r "empty" false (Quantile.reportable ~n:0 0.5);
  Alcotest.(check int) "beyond p50 of 7" 3 (Quantile.beyond ~n:7 0.5)

let names = [| "flush"; "decide"; "buyer"; "observe"; "journal"; "root" |]

let test_self_time_nested () =
  let tr = Trace.create ~names ~capacity:8 in
  let a = Trace.enter tr ~name:5 ~req:0 ~parent:(-1) ~start:0 in
  let b = Trace.enter tr ~name:1 ~req:0 ~parent:a ~start:10 in
  Trace.span tr ~name:2 ~req:0 ~parent:b ~start:20 ~stop:30;
  Trace.leave tr b ~stop:60;
  Trace.leave tr a ~stop:100;
  Alcotest.(check (array int)) "self" [| 50; 40; 10 |] (Trace.self_times tr)

(* A batch: one flush span parents the shared decide span and every
   request's buyer, observe and journal spans. *)
let test_self_time_batch () =
  let tr = Trace.create ~names ~capacity:16 in
  let f = Trace.enter tr ~name:0 ~req:(-1) ~parent:(-1) ~start:1_000 in
  Trace.span tr ~name:1 ~req:(-1) ~parent:f ~start:1_000 ~stop:1_400;
  let t = ref 1_400 in
  List.iter
    (fun req ->
      Trace.span tr ~name:2 ~req ~parent:f ~start:!t ~stop:(!t + 5);
      Trace.span tr ~name:3 ~req ~parent:f ~start:(!t + 5) ~stop:(!t + 20);
      t := !t + 20)
    [ 0; 1; 2 ];
  List.iter
    (fun req ->
      Trace.span tr ~name:4 ~req ~parent:f ~start:!t ~stop:(!t + 30);
      t := !t + 30)
    [ 0; 1; 2 ];
  Trace.leave tr f ~stop:(!t + 7);
  let self = Trace.self_times tr in
  Alcotest.(check int) "flush keeps only its glue" 7 self.(0);
  let ls = Trace.layers tr in
  Alcotest.(check int) "decide calls" 1 ls.(1).Trace.calls;
  Alcotest.(check int) "observe calls" 3 ls.(3).Trace.calls;
  Alcotest.(check int) "observe self" 45 ls.(3).Trace.self_ns;
  Alcotest.(check int) "journal max" 30 ls.(4).Trace.max_ns;
  Alcotest.check close "journal p99" 30. ls.(4).Trace.p99_ns;
  Alcotest.(check int) "unused name" 0 ls.(5).Trace.calls;
  let total = Array.fold_left (fun a l -> a + l.Trace.self_ns) 0 ls in
  Alcotest.(check int) "self times add up to the flush" (!t + 7 - 1_000) total

let test_capacity () =
  let tr = Trace.create ~names ~capacity:2 in
  for i = 0 to 4 do
    Trace.span tr ~name:1 ~req:i ~parent:(-1) ~start:i ~stop:(i + 1)
  done;
  Alcotest.(check int) "kept" 2 (Trace.length tr);
  Alcotest.(check int) "dropped" 3 (Trace.dropped tr);
  Alcotest.(check int) "dropped enter" (-1)
    (Trace.enter tr ~name:0 ~req:0 ~parent:(-1) ~start:0)

let test_chrome () =
  let tr = Trace.create ~names ~capacity:4 in
  Trace.span tr ~name:1 ~req:3 ~parent:(-1) ~start:5_000 ~stop:7_500;
  Trace.span tr ~name:2 ~req:3 ~parent:0 ~start:6_000 ~stop:7_000;
  let file = "chrome_test.json" in
  let oc = open_out file in
  Trace.write_chrome tr ~limit:10 oc;
  close_out oc;
  let ic = open_in file in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length body && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "first span at 0" true
    (contains "\"name\":\"decide\",\"cat\":\"dmbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":2.500");
  Alcotest.(check bool) "parent recorded" true (contains "\"req\":3,\"parent\":0")

let test_poisson () =
  let a = Arrivals.poisson ~seed:7 ~rate:2_500. ~count:20_000 in
  let b = Arrivals.poisson ~seed:7 ~rate:2_500. ~count:20_000 in
  let c = Arrivals.poisson ~seed:8 ~rate:2_500. ~count:20_000 in
  Alcotest.(check (array int)) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" false (a = c);
  Alcotest.(check bool) "non-decreasing" true
    (let ok = ref (a.(0) >= 0) in
     Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then ok := false) a;
     !ok);
  let mean_gap_us = float_of_int a.(19_999) /. 20_000. /. 1e3 in
  Alcotest.(check bool) "mean gap near 1/rate" true (Float.abs (mean_gap_us -. 400.) < 12.);
  Alcotest.(check (array int)) "prefix-stable" (Array.sub a 0 100)
    (Arrivals.poisson ~seed:7 ~rate:2_500. ~count:100)

let () =
  Alcotest.run "dmbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "reportable percentiles" `Quick test_reportable;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time, nested parents" `Quick test_self_time_nested;
          Alcotest.test_case "self time, batch parent" `Quick test_self_time_batch;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "chrome trace" `Quick test_chrome;
        ] );
      ( "arrivals",
        [ Alcotest.test_case "poisson schedule is seeded" `Quick test_poisson ] );
    ]
