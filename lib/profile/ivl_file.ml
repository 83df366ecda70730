module Metrics = Cbsp_obs.Metrics
module Tracer = Cbsp_obs.Tracer

let magic = "cbsp-ivl/1\n"
let record_tag = '\x01'
let trailer_tag = '\x00'

let m_bytes_written = Metrics.counter "ivl.bytes_written"
let m_bytes_read = Metrics.counter "ivl.bytes_read"
let m_ratio = Metrics.histogram "ivl.compression_ratio"

let fail fmt = Printf.ksprintf invalid_arg ("Ivl_file: " ^^ fmt)

(* --- adler32 ----------------------------------------------------------- *)

(* Incremental Adler-32 (RFC 1950): cheap, order-sensitive, and plenty to
   catch truncation and bit rot in an artifact store.  State fits in two
   ints; [adler_feed] may be called per record. *)
let adler_init = (1, 0)

let adler_feed (a, b) s pos len =
  let a = ref a and b = ref b in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code (String.unsafe_get s i)) mod 65521;
    b := (!b + !a) mod 65521
  done;
  (!a, !b)

let adler_value (a, b) = (b lsl 16) lor a

(* --- primitive writers ------------------------------------------------- *)

let put_varint buf n =
  if n < 0 then fail "cannot varint-encode negative %d" n;
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let put_varint64 buf v =
  let v = ref v in
  while Int64.unsigned_compare !v 0x80L >= 0 do
    Buffer.add_char buf
      (Char.chr (0x80 lor Int64.(to_int (logand !v 0x7fL))));
    v := Int64.shift_right_logical !v 7
  done;
  Buffer.add_char buf (Char.chr (Int64.to_int !v))

let put_u32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (shift * 8)) land 0xff))
  done

(* Floats in a profile are overwhelmingly small non-negative integers
   (block counts, cycle deltas), so integral values encode as varint
   [2n] (even); everything else — denormals, non-integral, negative,
   including -0.0, whose sign bit [Float.is_integer] would silently
   drop — escapes to [1] followed by the raw IEEE-754 bits.  Odd values
   other than 1 are reserved. *)
let max_integral = 0x1000_0000_0000_0000 (* 2^60: 2n must stay a valid int *)

let put_float buf f =
  let bits = Int64.bits_of_float f in
  if
    bits >= 0L (* positive sign bit: keeps -0.0 out of the integral path *)
    && Float.is_integer f
    && f < float_of_int max_integral
  then put_varint buf (2 * int_of_float f)
  else begin
    put_varint buf 1;
    put_varint64 buf bits
  end

(* --- primitive readers ------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

let get_byte cur =
  if cur.pos >= String.length cur.data then fail "truncated input";
  let c = Char.code (String.unsafe_get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  c

let get_varint cur =
  let n = ref 0 and shift = ref 0 in
  let continue = ref true in
  while !continue do
    let b = get_byte cur in
    if !shift > 56 then fail "varint overflow";
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !n

let get_varint64 cur =
  let n = ref 0L and shift = ref 0 in
  let continue = ref true in
  while !continue do
    let b = get_byte cur in
    if !shift > 63 then fail "varint overflow";
    n := Int64.(logor !n (shift_left (of_int (b land 0x7f)) !shift));
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !n

let get_u32 cur =
  let v = ref 0 in
  for shift = 0 to 3 do
    v := !v lor (get_byte cur lsl (shift * 8))
  done;
  !v

let get_float cur =
  let v = get_varint cur in
  if v land 1 = 0 then float_of_int (v lsr 1)
  else if v = 1 then Int64.float_of_bits (get_varint64 cur)
  else fail "reserved float escape %d" v

(* --- record encode ----------------------------------------------------- *)

let put_record buf ~n_blocks ~n_extras (iv : Interval.interval) =
  if Array.length iv.Interval.bbv <> n_blocks then
    fail "interval BBV has %d blocks, header declares %d"
      (Array.length iv.Interval.bbv) n_blocks;
  if Array.length iv.Interval.extras <> n_extras then
    fail "interval has %d extras, header declares %d"
      (Array.length iv.Interval.extras) n_extras;
  Buffer.add_char buf record_tag;
  put_varint buf iv.Interval.insts;
  put_float buf iv.Interval.cycles;
  Array.iter (put_float buf) iv.Interval.extras;
  (* Only +0.0 (bits all zero) counts as absent: [x <> 0.0] would also
     drop -0.0, and the format promises bit-exact round-trips. *)
  let present x = Int64.bits_of_float x <> 0L in
  let nnz = ref 0 in
  Array.iter (fun x -> if present x then incr nnz) iv.Interval.bbv;
  put_varint buf !nnz;
  let prev = ref 0 in
  Array.iteri
    (fun i x ->
      if present x then begin
        (* First index absolute, then gaps — short varints for the
           clustered block ids a loop nest produces. *)
        put_varint buf (i - !prev);
        prev := i;
        put_float buf x
      end)
    iv.Interval.bbv

(* Dense float64 size of the same record: what a naive binary dump would
   cost.  Feeds the compression-ratio histogram. *)
let dense_bytes ~n_blocks ~n_extras = 8 * (2 + n_extras + n_blocks)

(* --- streaming writer -------------------------------------------------- *)

type writer = {
  oc : out_channel;
  w_path : string;
  w_n_blocks : int;
  w_n_extras : int;
  w_buf : Buffer.t;
  mutable w_adler : int * int;
  mutable w_records : int;
  mutable w_bytes : int;
  mutable w_closed : bool;
}

let header_string ~n_blocks ~n_extras =
  let buf = Buffer.create 32 in
  Buffer.add_string buf magic;
  let hdr = Buffer.create 8 in
  put_varint hdr n_blocks;
  put_varint hdr n_extras;
  put_varint hdr 0 (* flags, reserved *);
  let h = Buffer.contents hdr in
  Buffer.add_string buf h;
  put_u32 buf (adler_value (adler_feed adler_init h 0 (String.length h)));
  Buffer.contents buf

let writer ~path ~n_blocks ~n_extras =
  if n_blocks < 0 || n_extras < 0 then fail "negative dimensions";
  let oc = open_out_bin path in
  let header = header_string ~n_blocks ~n_extras in
  output_string oc header;
  { oc; w_path = path; w_n_blocks = n_blocks; w_n_extras = n_extras;
    w_buf = Buffer.create 4096; w_adler = adler_init; w_records = 0;
    w_bytes = String.length header; w_closed = false }

let write w iv =
  if w.w_closed then fail "write to closed writer (%s)" w.w_path;
  Buffer.clear w.w_buf;
  put_record w.w_buf ~n_blocks:w.w_n_blocks ~n_extras:w.w_n_extras iv;
  let s = Buffer.contents w.w_buf in
  w.w_adler <- adler_feed w.w_adler s 0 (String.length s);
  output_string w.oc s;
  w.w_records <- w.w_records + 1;
  w.w_bytes <- w.w_bytes + String.length s

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Fun.protect
      ~finally:(fun () -> close_out w.oc)
      (fun () ->
        let buf = Buffer.create 16 in
        Buffer.add_char buf trailer_tag;
        put_varint buf w.w_records;
        put_u32 buf (adler_value w.w_adler);
        output_string w.oc (Buffer.contents buf);
        w.w_bytes <- w.w_bytes + Buffer.length buf);
    Metrics.incr ~by:w.w_bytes m_bytes_written;
    if w.w_bytes > 0 && w.w_records > 0 then
      Metrics.observe m_ratio
        (float_of_int
           (w.w_records * dense_bytes ~n_blocks:w.w_n_blocks ~n_extras:w.w_n_extras)
        /. float_of_int w.w_bytes)
  end

let written_bytes w = w.w_bytes

(* --- in-memory encode -------------------------------------------------- *)

let encode ~n_blocks intervals =
  Tracer.with_span ~name:"ivl.encode" ~cat:"profile" @@ fun () ->
  let n_extras =
    if Array.length intervals = 0 then 0
    else Array.length intervals.(0).Interval.extras
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (header_string ~n_blocks ~n_extras);
  let payload = Buffer.create 65536 in
  Array.iter (put_record payload ~n_blocks ~n_extras) intervals;
  let p = Buffer.contents payload in
  Buffer.add_string buf p;
  Buffer.add_char buf trailer_tag;
  put_varint buf (Array.length intervals);
  put_u32 buf (adler_value (adler_feed adler_init p 0 (String.length p)));
  let s = Buffer.contents buf in
  Metrics.incr ~by:(String.length s) m_bytes_written;
  if Array.length intervals > 0 then
    Metrics.observe m_ratio
      (float_of_int (Array.length intervals * dense_bytes ~n_blocks ~n_extras)
      /. float_of_int (String.length s));
  s

(* --- decode ------------------------------------------------------------ *)

let check_magic cur =
  let n = String.length magic in
  (* An input shorter than the magic is a truncation, not a foreign
     file — the distinction matters when a partial download is read. *)
  if String.length cur.data < n then fail "truncated input";
  if not (String.equal (String.sub cur.data 0 n) magic) then
    fail "bad magic — not a cbsp-ivl/1 file";
  cur.pos <- n

let read_header cur =
  check_magic cur;
  let hdr_start = cur.pos in
  let n_blocks = get_varint cur in
  let n_extras = get_varint cur in
  let flags = get_varint cur in
  if flags <> 0 then fail "unsupported flags %d" flags;
  let computed =
    adler_value (adler_feed adler_init cur.data hdr_start (cur.pos - hdr_start))
  in
  let stored = get_u32 cur in
  if computed <> stored then
    fail "header checksum mismatch (stored %08x, computed %08x)" stored computed;
  (n_blocks, n_extras)

(* Stream the records of an encoded profile through [f].  The interval
   passed to [f] aliases a single scratch BBV/extras pair reused across
   records — same contract as [Interval.emit]: copy to retain. *)
let decode_fold data ~init ~f =
  Tracer.with_span ~name:"ivl.decode" ~cat:"profile" @@ fun () ->
  let cur = { data; pos = 0 } in
  let n_blocks, n_extras = read_header cur in
  let bbv = Array.make n_blocks 0.0 in
  let extras = Array.make n_extras 0.0 in
  Interval.note_scratch_peak 1;
  let payload_start = cur.pos in
  let acc = ref init in
  let records = ref 0 in
  let continue = ref true in
  while !continue do
    match Char.chr (get_byte cur) with
    | c when c = record_tag ->
      let insts = get_varint cur in
      let cycles = get_float cur in
      for i = 0 to n_extras - 1 do
        extras.(i) <- get_float cur
      done;
      Array.fill bbv 0 n_blocks 0.0;
      let nnz = get_varint cur in
      let idx = ref 0 in
      for _ = 1 to nnz do
        idx := !idx + get_varint cur;
        if !idx >= n_blocks then
          fail "block id %d out of range (n_blocks=%d)" !idx n_blocks;
        bbv.(!idx) <- get_float cur
      done;
      incr records;
      acc := f !acc { Interval.insts; cycles; extras; bbv }
    | c when c = trailer_tag ->
      let payload_len = cur.pos - 1 - payload_start in
      let stored_count = get_varint cur in
      if stored_count <> !records then
        fail "record count mismatch (trailer says %d, read %d)" stored_count
          !records;
      let computed =
        adler_value (adler_feed adler_init data payload_start payload_len)
      in
      let stored = get_u32 cur in
      if computed <> stored then
        fail "payload checksum mismatch (stored %08x, computed %08x)" stored
          computed;
      continue := false
    | c -> fail "unknown record tag %#x" (Char.code c)
  done;
  Metrics.incr ~by:(String.length data) m_bytes_read;
  !acc

let decode data =
  let rev =
    decode_fold data ~init:[] ~f:(fun acc iv ->
        { iv with
          Interval.bbv = Array.copy iv.Interval.bbv;
          extras = Array.copy iv.Interval.extras }
        :: acc)
  in
  Array.of_list (List.rev rev)

(* --- files ------------------------------------------------------------- *)

let save ~path ~n_blocks intervals =
  Cbsp_util.Io.with_out_file path (fun oc ->
      output_string oc (encode ~n_blocks intervals))

let read_fold ~path ~init ~f = decode_fold (Cbsp_util.Io.read_file path) ~init ~f

let load ~path = decode (Cbsp_util.Io.read_file path)
