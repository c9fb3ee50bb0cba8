(* Slicing-by-16: sixteen 256-entry tables flattened into one array
   (table k for a byte processed k positions before the end of the
   16-byte chunk sits at [k * 256 + b]), so the hot loop folds sixteen
   input bytes per iteration with two 64-bit loads.  The CRC state is
   only 32 bits, so it folds into the first four bytes and the twelve
   remaining bytes contribute pure table lookups — halving the
   loop-carried dependency chain relative to slicing-by-8.
   Built on the first CRC of the process and published with a
   compare-and-set: a top-level [lazy] forced by two domains at once
   raises [CamlinternalLazy.Undefined] in one of them, while here a
   domain that loses the race just drops its copy.  It is not built at
   module initialisation: that 32 KB allocation at start-up shifts the
   major GC's phase in every program linking dm_store, and raised
   dmbench app3-n1024's heap_peak_mb by 14% without a single CRC. *)
let build_table () =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let t = Array.make (16 * 256) 0 in
  Array.blit t0 0 t 0 256;
  for k = 1 to 15 do
    for b = 0 to 255 do
      let prev = t.(((k - 1) * 256) + b) in
      t.((k * 256) + b) <- t0.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let table_cell = Atomic.make [||]

let table () =
  let t = Atomic.get table_cell in
  if Array.length t > 0 then t
  else begin
    ignore (Atomic.compare_and_set table_cell t (build_table ()));
    Atomic.get table_cell
  end

let[@inline] fold16 t c v64 w64 =
  let lo0 = Int64.to_int (Int64.logand v64 0xFFFF_FFFFL) lxor c in
  let hi0 = Int64.to_int (Int64.shift_right_logical v64 32) in
  let lo1 = Int64.to_int (Int64.logand w64 0xFFFF_FFFFL) in
  let hi1 = Int64.to_int (Int64.shift_right_logical w64 32) in
  Array.unsafe_get t ((15 * 256) + (lo0 land 0xff))
  lxor Array.unsafe_get t ((14 * 256) + ((lo0 lsr 8) land 0xff))
  lxor Array.unsafe_get t ((13 * 256) + ((lo0 lsr 16) land 0xff))
  lxor Array.unsafe_get t ((12 * 256) + (lo0 lsr 24))
  lxor Array.unsafe_get t ((11 * 256) + (hi0 land 0xff))
  lxor Array.unsafe_get t ((10 * 256) + ((hi0 lsr 8) land 0xff))
  lxor Array.unsafe_get t ((9 * 256) + ((hi0 lsr 16) land 0xff))
  lxor Array.unsafe_get t ((8 * 256) + (hi0 lsr 24))
  lxor Array.unsafe_get t ((7 * 256) + (lo1 land 0xff))
  lxor Array.unsafe_get t ((6 * 256) + ((lo1 lsr 8) land 0xff))
  lxor Array.unsafe_get t ((5 * 256) + ((lo1 lsr 16) land 0xff))
  lxor Array.unsafe_get t ((4 * 256) + (lo1 lsr 24))
  lxor Array.unsafe_get t ((3 * 256) + (hi1 land 0xff))
  lxor Array.unsafe_get t ((2 * 256) + ((hi1 lsr 8) land 0xff))
  lxor Array.unsafe_get t ((1 * 256) + ((hi1 lsr 16) land 0xff))
  lxor Array.unsafe_get t (hi1 lsr 24)

let[@inline] fold1 t c b = Array.unsafe_get t ((c lxor b) land 0xff) lxor (c lsr 8)

let crc32 ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Frame.crc32: range out of bounds";
  let t = table () in
  let c = ref (init lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 16 do
    c := fold16 t !c (String.get_int64_le s !i) (String.get_int64_le s (!i + 8));
    i := !i + 16
  done;
  while !i < stop do
    c := fold1 t !c (Char.code (String.unsafe_get s !i));
    incr i
  done;
  !c lxor 0xFFFFFFFF

let crc32_bytes ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length s then
    invalid_arg "Frame.crc32_bytes: range out of bounds";
  let t = table () in
  let c = ref (init lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 16 do
    c := fold16 t !c (Bytes.get_int64_le s !i) (Bytes.get_int64_le s (!i + 8));
    i := !i + 16
  done;
  while !i < stop do
    c := fold1 t !c (Char.code (Bytes.unsafe_get s !i));
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* One cache-hot pass over a batch of consecutive frames, filling in
   each CRC field.  The fold is the exact continuation of
   [crc32 length-bytes] then [crc32 ~init payload] with the
   intermediate finalize/init inversions cancelled, so the stored
   value is identical to the two-call chain. *)
let seal b ~stop =
  if stop < 0 || stop > Bytes.length b then
    invalid_arg "Frame.seal: range out of bounds";
  let t = table () in
  let at = ref 0 in
  while !at < stop do
    if stop - !at < 8 then invalid_arg "Frame.seal: truncated frame";
    let len = Int32.to_int (Bytes.get_int32_le b !at) land 0xFFFF_FFFF in
    let frame_end = !at + 8 + len in
    if frame_end > stop then invalid_arg "Frame.seal: truncated frame";
    let c = ref 0xFFFFFFFF in
    for i = !at to !at + 3 do
      c := fold1 t !c (Char.code (Bytes.unsafe_get b i))
    done;
    let i = ref (!at + 8) in
    while frame_end - !i >= 16 do
      c := fold16 t !c (Bytes.get_int64_le b !i) (Bytes.get_int64_le b (!i + 8));
      i := !i + 16
    done;
    while !i < frame_end do
      c := fold1 t !c (Char.code (Bytes.unsafe_get b !i));
      incr i
    done;
    Bytes.set_int32_le b (!at + 4) (Int32.of_int (!c lxor 0xFFFFFFFF));
    at := frame_end
  done

(* The CRC runs over the length prefix then the payload: a flipped bit
   in the length field is caught by the very record it would
   re-frame. *)
let frame_crc payload =
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length payload));
  let c = crc32 (Bytes.unsafe_to_string hdr) ~pos:0 ~len:4 in
  crc32 ~init:c payload ~pos:0 ~len:(String.length payload)

let append buf payload =
  let len = String.length payload in
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (Int32.of_int (frame_crc payload));
  Buffer.add_string buf payload

let frame_bytes payload = 8 + String.length payload

type tail = Clean | Torn of int

let decode ?(pos = 0) src =
  let total = String.length src in
  if pos < 0 || pos > total then invalid_arg "Frame.decode: position out of bounds";
  let rec scan acc off =
    if off = total then Ok (List.rev acc, Clean)
    else if total - off < 8 then Ok (List.rev acc, Torn off)
    else
      let len = Int32.to_int (String.get_int32_le src off) land 0xFFFF_FFFF in
      if len > total - off - 8 then Ok (List.rev acc, Torn off)
      else
        let stored = Int32.to_int (String.get_int32_le src (off + 4)) land 0xFFFF_FFFF in
        let computed =
          let c = crc32 src ~pos:off ~len:4 in
          crc32 ~init:c src ~pos:(off + 8) ~len
        in
        if stored <> computed then
          if off + 8 + len = total then Ok (List.rev acc, Torn off)
          else
            Error
              (Printf.sprintf
                 "Frame.decode: CRC mismatch in the record at byte %d (before \
                  the tail)"
                 off)
        else scan (String.sub src (off + 8) len :: acc) (off + 8 + len)
  in
  scan [] pos
