(* Test-only reference for weighted k-means: plain sequential Lloyd over
   full distance scans, with weighted k-means++ seeding, as first
   written.  No grouping, no fusion, no blocking, no pruning, no memo.
   [Kmeans.run] must return the same result bit for bit, and test_kmeans
   and test_simpoint check that on random weighted point sets.

   It shares no helper with [Kmeans]: the tie-break, the reseed order and
   the chunked summation order below are written out again here, so a
   fault in the production copy of any of them shows up as a
   difference.  It shares only [Rng] and [Stats.sq_distance], and
   returns [Kmeans.result]. *)

module Rng = Cbsp_util.Rng
module Stats = Cbsp_util.Stats
module Kmeans = Cbsp_simpoint.Kmeans

let check ~k ~weights ~points =
  let fn = "Kmeans_ref.run_reference" in
  let n = Array.length points in
  if n = 0 then invalid_arg (fn ^ ": no points");
  if Array.length weights <> n then
    invalid_arg (fn ^ ": weights/points length mismatch");
  Array.iter
    (fun w ->
      if not (Float.is_finite w) then invalid_arg (fn ^ ": non-finite weight");
      if w <= 0.0 then invalid_arg (fn ^ ": non-positive weight"))
    weights;
  let dim = Array.length points.(0) in
  Array.iter
    (fun p ->
      if Array.length p <> dim then invalid_arg (fn ^ ": ragged points"))
    points;
  if k < 1 || k > n then invalid_arg (fn ^ ": k out of range")

(* Every sum over points runs over fixed 256-point chunks: a partial per
   chunk in point order, the partials folded in chunk order. *)
let chunk_size = 256

let iter_chunks n f =
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk_size) in
    f !lo hi;
    lo := hi
  done

(* Weighted k-means++: the first centre weight-proportional, each later
   one proportional to weight * D²(point, nearest chosen centre).  A pick
   scans the masses' running sum for the first index <= n-2 above
   [Rng.float * Stats.sum masses]; a total <= 0 picks uniformly. *)
let seed_plus_plus rng ~k ~weights ~points =
  let n = Array.length points in
  let centroids = Array.make k [||] in
  let d2 = Array.make n infinity and masses = Array.make n 0.0 in
  let pick_weighted masses =
    let total = Stats.sum masses in
    if total <= 0.0 then Rng.int rng ~bound:n
    else begin
      let target = Rng.float rng *. total in
      let rec scan i acc =
        if i >= n - 1 then n - 1
        else begin
          let acc = acc +. masses.(i) in
          if acc > target then i else scan (i + 1) acc
        end
      in
      scan 0 0.0
    end
  in
  centroids.(0) <- Array.copy points.(pick_weighted weights);
  for c = 1 to k - 1 do
    for i = 0 to n - 1 do
      let d = Stats.sq_distance points.(i) centroids.(c - 1) in
      if d < d2.(i) then d2.(i) <- d;
      masses.(i) <- weights.(i) *. d2.(i)
    done;
    centroids.(c) <- Array.copy points.(pick_weighted masses)
  done;
  centroids

(* Each point to its nearest centroid; strict improvement, so the lowest
   index wins a tie.  Returns whether any assignment changed. *)
let assign_all ~centroids ~points ~assignments =
  let changed = ref false in
  Array.iteri
    (fun i p ->
      let best = ref 0 in
      let best_d = ref (Stats.sq_distance p centroids.(0)) in
      for c = 1 to Array.length centroids - 1 do
        let d = Stats.sq_distance p centroids.(c) in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      if assignments.(i) <> !best then begin
        assignments.(i) <- !best;
        changed := true
      end)
    points;
  !changed

(* Per-cluster weighted coordinate sums and masses, chunk by chunk. *)
let accumulate ~k ~weights ~points ~assignments =
  let dim = Array.length points.(0) in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let mass = Array.make k 0.0 in
  iter_chunks (Array.length points) (fun lo hi ->
      let psums = Array.init k (fun _ -> Array.make dim 0.0) in
      let pmass = Array.make k 0.0 in
      for i = lo to hi - 1 do
        let c = assignments.(i) and w = weights.(i) and p = points.(i) in
        pmass.(c) <- pmass.(c) +. w;
        let s = psums.(c) in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. (w *. p.(j))
        done
      done;
      for c = 0 to k - 1 do
        mass.(c) <- mass.(c) +. pmass.(c);
        let s = sums.(c) and ps = psums.(c) in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. ps.(j)
        done
      done);
  (sums, mass)

(* The point with the largest weighted distance to its centroid; the
   first such point on a tie. *)
let farthest_reference ~weights ~points ~assignments ~centroids =
  let worst = ref 0 and worst_d = ref neg_infinity in
  Array.iteri
    (fun i p ->
      let d = weights.(i) *. Stats.sq_distance p centroids.(assignments.(i)) in
      if d > !worst_d then begin
        worst_d := d;
        worst := i
      end)
    points;
  !worst

(* Each cluster's centroid becomes its members' weighted mean, in
   ascending cluster order.  An empty cluster is reseeded on the
   farthest point, measured against the centroids as updated so far. *)
let update_centroids ~weights ~points ~assignments ~centroids (sums, mass) =
  for c = 0 to Array.length centroids - 1 do
    if mass.(c) = 0.0 then
      centroids.(c) <-
        Array.copy
          points.(farthest_reference ~weights ~points ~assignments ~centroids)
    else centroids.(c) <- Array.map (fun s -> s /. mass.(c)) sums.(c)
  done

let total_distortion ~weights ~points ~assignments ~centroids =
  let total = ref 0.0 in
  iter_chunks (Array.length points) (fun lo hi ->
      let acc = ref 0.0 in
      for i = lo to hi - 1 do
        let c = centroids.(assignments.(i)) in
        acc := !acc +. (weights.(i) *. Stats.sq_distance points.(i) c)
      done;
      total := !total +. !acc);
  !total

let run_once_reference rng ~max_iters ~k ~weights ~points =
  let centroids = seed_plus_plus rng ~k ~weights ~points in
  let assignments = Array.make (Array.length points) (-1) in
  let iterations = ref 0 in
  while
    !iterations < max_iters && assign_all ~centroids ~points ~assignments
  do
    update_centroids ~weights ~points ~assignments ~centroids
      (accumulate ~k ~weights ~points ~assignments);
    incr iterations
  done;
  (* Assignments must reflect the final centroids. *)
  let (_ : bool) = assign_all ~centroids ~points ~assignments in
  { Kmeans.k; assignments; centroids;
    distortion = total_distortion ~weights ~points ~assignments ~centroids;
    iterations = !iterations }

(* Best of [restarts] runs by distortion, the first on a tie, all drawn
   from one generator. *)
let run_reference ?(seed = 493) ?(restarts = 5) ?(max_iters = 100) ~k ~weights
    ~points () =
  check ~k ~weights ~points;
  if restarts < 1 then invalid_arg "Kmeans_ref.run_reference: restarts < 1";
  let rng = Rng.create ~seed in
  let best = ref (run_once_reference rng ~max_iters ~k ~weights ~points) in
  for _ = 2 to restarts do
    let r = run_once_reference rng ~max_iters ~k ~weights ~points in
    if r.Kmeans.distortion < !best.Kmeans.distortion then best := r
  done;
  !best
