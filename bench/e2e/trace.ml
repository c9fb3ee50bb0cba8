type t = {
  names : string array;
  name : int array;
  start : int array;
  stop : int array;
  req : int array;
  parent : int array;
  mutable len : int;
  mutable dropped : int;
}

let create ~names ~capacity =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  let ints () = Array.make capacity 0 in
  {
    names;
    name = ints ();
    start = ints ();
    stop = ints ();
    req = ints ();
    parent = ints ();
    len = 0;
    dropped = 0;
  }

let names t = t.names

let enter t ~name ~req ~parent ~start =
  if t.len >= Array.length t.start then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let id = t.len in
    t.name.(id) <- name;
    t.start.(id) <- start;
    t.stop.(id) <- start;
    t.req.(id) <- req;
    t.parent.(id) <- parent;
    t.len <- id + 1;
    id
  end

let leave t id ~stop = if id >= 0 then t.stop.(id) <- stop

let span t ~name ~req ~parent ~start ~stop =
  leave t (enter t ~name ~req ~parent ~start) ~stop

let length t = t.len

let dropped t = t.dropped

let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

type layer = { calls : int; self_ns : int; p99_ns : float; max_ns : int }

let layers t =
  let self = self_times t in
  let k = Array.length t.names in
  let calls = Array.make k 0 and self_ns = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    calls.(n) <- calls.(n) + 1;
    self_ns.(n) <- self_ns.(n) + self.(i)
  done;
  let durs = Array.map (fun c -> Array.make c 0.) calls in
  let fill = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    durs.(n).(fill.(n)) <- float_of_int (t.stop.(i) - t.start.(i));
    fill.(n) <- fill.(n) + 1
  done;
  Array.init k (fun n ->
      if calls.(n) = 0 then { calls = 0; self_ns = 0; p99_ns = 0.; max_ns = 0 }
      else
        let s = Quantile.sorted durs.(n) in
        {
          calls = calls.(n);
          self_ns = self_ns.(n);
          p99_ns = Quantile.nearest_rank s 0.99;
          max_ns = int_of_float s.(calls.(n) - 1);
        })

let write_chrome t ~limit oc =
  let m = min limit t.len in
  let t0 = ref max_int in
  for i = 0 to m - 1 do
    t0 := min !t0 t.start.(i)
  done;
  let us ns = float_of_int ns /. 1e3 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to m - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"dmbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"req\":%d,\"parent\":%d}}"
      t.names.(t.name.(i))
      (us (t.start.(i) - !t0))
      (us (t.stop.(i) - t.start.(i)))
      i t.req.(i) t.parent.(i)
  done;
  output_string oc "]}\n"
