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
  k_cycles : float vec;
  mutable k_n_extras : int;
  k_extras : float vec;
}

let columns_create () =
  { k_insts = vec_create (); k_cycles = vec_create (); k_n_extras = 0;
    k_extras = vec_create () }

let columns_push k (iv : Interval.interval) =
  let extras = iv.Interval.extras in
  if k.k_insts.len = 0 then k.k_n_extras <- Array.length extras
  else if Array.length extras <> k.k_n_extras then
    invalid_arg "Streamprof: extra-counter count changed between intervals";
  vec_push k.k_insts iv.Interval.insts;
  vec_push k.k_cycles iv.Interval.cycles;
  Array.iter (vec_push k.k_extras) extras

let columns_stats k =
  { st_insts = vec_to_array k.k_insts; st_cycles = vec_to_array k.k_cycles;
    st_n_extras = k.k_n_extras; st_extras = vec_to_array k.k_extras }

(* Projection is batched over small chunks of normalized BBVs rather
   than run per interval: projecting interleaved with the executor
   evicts the projection matrix (out_dim * in_dim floats) from cache
   between interval cuts, which is exactly the overhead that made the
   streaming suite trail the array-of-intervals one.  Buffering [chunk_size]
   normalized rows and projecting them back-to-back keeps the matrix
   hot across the chunk while leaving every per-interval float
   operation — and therefore every result bit — unchanged: each row is
   normalized at emission time into its own buffer and projected later
   with the same inputs in the same ascending order. *)
let chunk_size = 8

(* What the collector keeps per interval: the scalar stats every summary
   reads, and — only for live, BBV-carrying intervals — the PROJECTED
   point (out_dim floats), never the full-width BBV.  The chunk rows
   are the collector's entire full-width footprint.  A program's loops
   repeat the same interval vector, so intervals whose points have the
   same bits share one array: an FLI pass of thousands of intervals
   keeps a few dozen. *)
type t = {
  projection : Projection.t option;
  chunk_rows : float array array;  (* chunk_size full-width rows *)
  mutable chunk_fill : int;        (* rows normalized, not yet projected *)
  point : float array;             (* projection scratch *)
  distinct : float array Points.t; (* each distinct point, keyed on itself *)
  c_stats : columns;
  c_live_idx : int vec;
  c_weights : float vec;
  c_points : float array vec;
}

let create ~sp_config ~n_blocks () =
  (* The pass's acc scratch plus this collector's chunk rows are the
     full-width buffers a streaming run ever holds. *)
  Interval.note_scratch_peak (chunk_size + 1);
  let projection = Simpoint.projection_for ~config:sp_config ~in_dim:n_blocks () in
  { projection = Some projection;
    chunk_rows = Array.init chunk_size (fun _ -> Array.make n_blocks 0.0);
    chunk_fill = 0; point = Array.make (Projection.out_dim projection) 0.0;
    distinct = Points.create 64;
    c_stats = columns_create (); c_live_idx = vec_create ();
    c_weights = vec_create (); c_points = vec_create () }

let create_stats_only () =
  { projection = None; chunk_rows = [||]; chunk_fill = 0; point = [||];
    distinct = Points.create 1;
    c_stats = columns_create (); c_live_idx = vec_create ();
    c_weights = vec_create (); c_points = vec_create () }

(* Project the buffered rows in emission order.  Identical operations to
   projecting each at its own emission: rows are disjoint buffers and
   [project_into] reads nothing but its row.  A point with the bits of
   one already kept is that array again. *)
let flush t =
  match t.projection with
  | None -> ()
  | Some projection ->
    for s = 0 to t.chunk_fill - 1 do
      Projection.project_into projection t.chunk_rows.(s) t.point;
      let point =
        match Points.find_opt t.distinct t.point with
        | Some kept -> kept
        | None ->
          let kept = Array.copy t.point in
          Points.add t.distinct kept kept;
          kept
      in
      vec_push t.c_points point
    done;
    t.chunk_fill <- 0

(* Valid as an [Interval.emit]: everything retained is copied or derived
   before the call returns.  Normalizing at emission time and projecting
   chunk-batched performs exactly the operations (in exactly the order,
   per interval) as normalizing and projecting each copied-out BBV into a
   fresh array, so the collected points are bit-identical to what
   clustering over every retained BBV would see. *)
let emit t (iv : Interval.interval) =
  let idx = t.c_stats.k_insts.len in
  columns_push t.c_stats iv;
  match t.projection with
  | Some _ when iv.Interval.insts > 0 ->
    Stats.normalize_into iv.Interval.bbv t.chunk_rows.(t.chunk_fill);
    t.chunk_fill <- t.chunk_fill + 1;
    vec_push t.c_live_idx idx;
    vec_push t.c_weights (float_of_int iv.Interval.insts);
    if t.chunk_fill = chunk_size then flush t
  | _ -> ()

let stats t = columns_stats t.c_stats

type cluster_inputs = {
  ci_live_idx : int array;
  ci_weights : float array;
  ci_points : float array array;
}

let cluster_inputs t =
  flush t;
  { ci_live_idx = vec_to_array t.c_live_idx;
    ci_weights = vec_to_array t.c_weights;
    ci_points = vec_to_array t.c_points }
