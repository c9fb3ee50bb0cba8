(* Two domains take the first [Frame.crc32] of a fresh process at the
   same instant, behind a spin barrier.  A lazily built table would be
   forced by both at once, and OCaml 5 raises
   [CamlinternalLazy.Undefined] in the domain that loses.  Exits
   non-zero if either domain raises or either CRC is wrong.  Only the
   first CRC in a process can race, so the runtest rule runs this in
   many fresh processes. *)

let () =
  let arrived = Atomic.make 0 in
  let payload = "123456789" in
  let first_crc () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Dm_store.Frame.crc32 payload ~pos:0 ~len:(String.length payload)
  in
  let other = Domain.spawn first_crc in
  let mine = first_crc () in
  let theirs = Domain.join other in
  (* The standard CRC-32 check value of "123456789". *)
  if mine <> 0xCBF43926 || theirs <> 0xCBF43926 then begin
    prerr_endline "crc_first_touch: wrong CRC";
    exit 1
  end
