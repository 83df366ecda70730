(* The SplitMix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh Int64 on every draw.  Only this module reads
   and writes the bytes, so their endianness never shows. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] state t = get64u t 0

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: Stafford's Mix13 variant. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = of_state (mix64 (Int64.of_int seed))

let copy t = Bytes.copy t

let[@inline] next_int64 t =
  let s = Int64.add (state t) golden_gamma in
  set64u t 0 s;
  mix64 s

let split t ~tag =
  (* Derive a child stream from the parent's *current* seed and the tag,
     without advancing the parent: children are a pure function of
     (parent state, tag). *)
  of_state (mix64 (Int64.logxor (state t) (mix64 (Int64.of_int tag))))

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits: a 63-bit value would wrap negative in Int64.to_int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t ~bound:(hi - lo + 1)

let float t =
  (* 53 high bits -> uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = float t in
    if u <= 1e-300 then draw () else u
  in
  let u1 = draw () in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let hash2 a b =
  let h = mix64 (Int64.logxor (mix64 (Int64.of_int a)) (Int64.of_int b)) in
  Int64.to_int (Int64.shift_right_logical h 2)
