module Interval = Cbsp_profile.Interval
module Simpoint = Cbsp_simpoint.Simpoint
module Projection = Cbsp_simpoint.Projection
module Points = Hashtbl.Make (Cbsp_simpoint.Kmeans.Bits)
module Stats = Cbsp_util.Stats

(* Minimal growable vector — amortized-O(1) push, exact-length extract.
   The stdlib has no resizable array and the profile layers cannot know
   interval counts up front. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (max 16 (2 * v.len)) x in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_array v = Array.sub v.data 0 v.len

(* The same for floats, monomorphic so that a push stores the float
   unboxed and, inlined, never boxes its argument. *)
type fvec = { mutable fdata : float array; mutable flen : int }

let fvec_create () = { fdata = [||]; flen = 0 }

let[@inline] fvec_push v x =
  if v.flen = Array.length v.fdata then begin
    let grown = Array.make (max 16 (2 * v.flen)) 0.0 in
    Array.blit v.fdata 0 grown 0 v.flen;
    v.fdata <- grown
  end;
  Array.unsafe_set v.fdata v.flen x;
  v.flen <- v.flen + 1

let fvec_to_array v = Array.sub v.fdata 0 v.flen

(* Per-interval scalars in columns: a pass store keeps every pass's
   stats alive for the engine's lifetime, and one record plus one
   extras array per interval would cost five words of headers and
   pointers on top of the data. *)
type stats = {
  st_insts : int array;
  st_cycles : float array;
  st_n_extras : int;
  st_extras : float array;  (* interval i's counter e at i * n_extras + e *)
}

type columns = {
  k_insts : int vec;
  k_cycles : fvec;
  mutable k_n_extras : int;
  k_extras : fvec;
}

let columns_create () =
  { k_insts = vec_create (); k_cycles = fvec_create (); k_n_extras = 0;
    k_extras = fvec_create () }

let columns_push k (iv : Interval.interval) =
  let extras = iv.Interval.extras in
  if k.k_insts.len = 0 then k.k_n_extras <- Array.length extras
  else if Array.length extras <> k.k_n_extras then
    invalid_arg "Streamprof: extra-counter count changed between intervals";
  vec_push k.k_insts iv.Interval.insts;
  fvec_push k.k_cycles iv.Interval.cycles;
  for e = 0 to Array.length extras - 1 do
    fvec_push k.k_extras extras.(e)
  done

let columns_stats k =
  { st_insts = vec_to_array k.k_insts; st_cycles = fvec_to_array k.k_cycles;
    st_n_extras = k.k_n_extras; st_extras = fvec_to_array k.k_extras }

(* The memo's slot count, and so its full-width rows. *)
let chunk_size = 8

(* A program's loops repeat the same interval vector: at a fine FLI
   grain a pass cuts thousands of intervals over a few dozen distinct
   BBVs, and most intervals repeat the one before.  So what an
   interval's BBV determines — its normalized-then-projected point and
   its access mix — is memoized in [chunk_size] direct-mapped slots
   keyed on the raw counts.  A slot holds a BBV (one full-width row),
   the kept point array and the mix.  Raw counts are sums of
   instruction counts, integral floats >= +0.0, so [int_of_float] is
   exact for the hash and float [=] is bit equality for the check.  A
   hit requires every count equal, so it returns exactly what a miss
   would compute; a miss computes it as every interval once did
   (normalize, [project_into], the kept array with those bits) and
   refills its slot.  An empty slot's row is all zeros, which no live
   BBV (counts summing to its instructions) equals.

   What the collector keeps per interval: the scalar stats every
   summary reads, the mix when it was given one, and — only for live,
   BBV-carrying intervals — the point, never the full-width BBV.
   Intervals whose points have the same bits share one array, so an
   FLI pass of thousands of intervals keeps a few dozen. *)
type t = {
  projection : Projection.t option;
  mix_of : (float array -> float) option;
  memo_counts : float array array;  (* chunk_size full-width rows *)
  memo_points : float array array;
  memo_mix : float array;
  point : float array;              (* projection scratch *)
  distinct : float array Points.t;  (* each distinct point, keyed on itself *)
  c_stats : columns;
  c_mix : fvec;
  c_live_idx : int vec;
  c_weights : fvec;
  c_points : float array vec;
}

let make ?mix ~projection ~n_blocks ~out_dim () =
  { projection; mix_of = mix;
    memo_counts = Array.init chunk_size (fun _ -> Array.make n_blocks 0.0);
    memo_points = Array.make chunk_size [||];
    memo_mix = Array.make chunk_size 0.0;
    point = Array.make out_dim 0.0;
    distinct = Points.create 64;
    c_stats = columns_create (); c_mix = fvec_create ();
    c_live_idx = vec_create (); c_weights = fvec_create ();
    c_points = vec_create () }

let create ?mix ~sp_config ~n_blocks () =
  (* The pass's acc scratch plus this collector's memo rows are the
     full-width buffers a streaming run ever holds. *)
  Interval.note_scratch_peak (chunk_size + 1);
  let projection = Simpoint.projection_for ~config:sp_config ~in_dim:n_blocks () in
  make ?mix ~projection:(Some projection) ~n_blocks
    ~out_dim:(Projection.out_dim projection) ()

let create_stats_only () = make ~projection:None ~n_blocks:0 ~out_dim:0 ()

(* The slot of a BBV: a polynomial hash of its counts, finished by a
   multiply whose high bits pick one of [chunk_size] slots. *)
let slot_of counts =
  let h = ref 0 in
  for b = 0 to Array.length counts - 1 do
    h := (31 * !h) + int_of_float (Array.unsafe_get counts b)
  done;
  let x = !h lxor (!h lsr 32) in
  ((x * 0x2545F4914F6CDD1D) lsr 40) land (chunk_size - 1)

let same_counts (a : float array) b =
  let n = Array.length a in
  let rec from i =
    i = n || (Array.unsafe_get a i = Array.unsafe_get b i && from (i + 1))
  in
  from 0

(* A miss: the slot's row doubles as the normalization buffer, and
   takes the raw counts once the point is projected. *)
let fill t projection s bbv =
  let row = t.memo_counts.(s) in
  Stats.normalize_into bbv row;
  Projection.project_into projection row t.point;
  let point =
    match Points.find_opt t.distinct t.point with
    | Some kept -> kept
    | None ->
      let kept = Array.copy t.point in
      Points.add t.distinct kept kept;
      kept
  in
  Array.blit bbv 0 row 0 (Array.length bbv);
  t.memo_points.(s) <- point;
  match t.mix_of with Some mix_of -> t.memo_mix.(s) <- mix_of bbv | None -> ()

(* Valid as an [Interval.emit]: everything retained is copied or derived
   before the call returns.  A live interval's point and mix are its
   slot's, which are those of its BBV, so the collected points and mixes
   are bit-identical to normalizing, projecting and mixing every
   copied-out BBV. *)
let emit t (iv : Interval.interval) =
  let idx = t.c_stats.k_insts.len in
  columns_push t.c_stats iv;
  match t.projection with
  | Some projection when iv.Interval.insts > 0 ->
    let bbv = iv.Interval.bbv in
    let s = slot_of bbv in
    if not (same_counts bbv t.memo_counts.(s)) then fill t projection s bbv;
    vec_push t.c_live_idx idx;
    fvec_push t.c_weights (float_of_int iv.Interval.insts);
    vec_push t.c_points t.memo_points.(s);
    if Option.is_some t.mix_of then fvec_push t.c_mix t.memo_mix.(s)
  | _ -> if Option.is_some t.mix_of then fvec_push t.c_mix 0.0

let stats t = columns_stats t.c_stats

let mix t = fvec_to_array t.c_mix

type cluster_inputs = {
  ci_live_idx : int array;
  ci_weights : float array;
  ci_points : float array array;
}

let cluster_inputs t =
  { ci_live_idx = vec_to_array t.c_live_idx;
    ci_weights = fvec_to_array t.c_weights;
    ci_points = vec_to_array t.c_points }
