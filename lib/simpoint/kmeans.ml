module Rng = Cbsp_util.Rng
module Stats = Cbsp_util.Stats
module Metrics = Cbsp_obs.Metrics

(* Clustering observability: restarts executed, Lloyd iterations, and
   every exact distance the production path computes (seeding, the
   first assignment, the pruned scans, centroid drift, empty-cluster
   reseeds and the final distortion).  The Hamerly bounds keep the
   per-iteration share of the last one far below n*k. *)
let m_runs = Metrics.counter "kmeans.runs"
let m_iterations = Metrics.counter "kmeans.iterations"
let m_distance_evals = Metrics.counter "kmeans.distance_evals"

type result = {
  k : int;
  assignments : int array;
  centroids : float array array;
  distortion : float;
  iterations : int;
}

let check_args ~k ~weights ~points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.run: no points";
  if Array.length weights <> n then invalid_arg "Kmeans.run: weights/points length mismatch";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) then invalid_arg "Kmeans.run: non-finite weight";
      if w <= 0.0 then invalid_arg "Kmeans.run: non-positive weight")
    weights;
  if k < 1 || k > n then invalid_arg "Kmeans.run: k out of range";
  let dim = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> dim then invalid_arg "Kmeans.run: ragged points")
    points

(* Point-order sums run over fixed chunks: the chunk grid depends only on
   n, and partial results are folded in ascending chunk order.  That is
   the one canonical floating-point summation order both the production
   path and the reference use, so their centroids and distortion are
   bit-identical. *)
let chunk_size = 256

let chunk_bounds n =
  List.init ((n + chunk_size - 1) / chunk_size) (fun c ->
      (c * chunk_size, min n ((c + 1) * chunk_size)))

(* Weighted k-means++: first centre weight-proportional, subsequent centres
   proportional to weight * D²(point, nearest chosen centre).  One scratch
   [masses] buffer is reused across centres (the per-centre [Array.init]
   made seeding O(n·k) in allocation). *)
let seed_plus_plus rng ~k ~weights ~points =
  let n = Array.length points in
  let centroids = Array.make k [||] in
  let d2 = Array.make n infinity in
  let masses = Array.make n 0.0 in
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
  let first = pick_weighted weights in
  centroids.(0) <- Array.copy points.(first);
  for c = 1 to k - 1 do
    for i = 0 to n - 1 do
      let d = Stats.sq_distance points.(i) centroids.(c - 1) in
      if d < d2.(i) then d2.(i) <- d;
      masses.(i) <- weights.(i) *. d2.(i)
    done;
    let next = pick_weighted masses in
    centroids.(c) <- Array.copy points.(next)
  done;
  centroids

(* Nearest and second-nearest centroid of one point, with the reference
   tie-break (strict improvement, so the lowest index wins ties). *)
let nearest_two ~centroids ~k p =
  let best = ref 0 in
  let best_d = ref (Stats.sq_distance p centroids.(0)) in
  let second_d = ref infinity in
  for c = 1 to k - 1 do
    let d = Stats.sq_distance p centroids.(c) in
    if d < !best_d then begin
      second_d := !best_d;
      best_d := d;
      best := c
    end
    else if d < !second_d then second_d := d
  done;
  (!best, !best_d, !second_d)

let assign_all ~centroids ~points ~assignments =
  let k = Array.length centroids in
  let changed = ref false in
  Array.iteri
    (fun i p ->
      let best, _, _ = nearest_two ~centroids ~k p in
      if assignments.(i) <> best then begin
        assignments.(i) <- best;
        changed := true
      end)
    points;
  !changed

(* --- centroid accumulation (canonical chunked order) ------------------- *)

let accumulate_chunk ~weights ~points ~assignments ~k ~dim (lo, hi) =
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let mass = Array.make k 0.0 in
  for i = lo to hi - 1 do
    let c = assignments.(i) in
    let w = weights.(i) in
    mass.(c) <- mass.(c) +. w;
    let p = points.(i) in
    let s = sums.(c) in
    for j = 0 to dim - 1 do
      s.(j) <- s.(j) +. (w *. p.(j))
    done
  done;
  (sums, mass)

let accumulate ~weights ~points ~assignments ~k =
  let n = Array.length points in
  let dim = Array.length points.(0) in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let mass = Array.make k 0.0 in
  List.iter
    (fun chunk ->
      let psums, pmass = accumulate_chunk ~weights ~points ~assignments ~k ~dim chunk in
      for c = 0 to k - 1 do
        mass.(c) <- mass.(c) +. pmass.(c);
        let s = sums.(c) in
        let p = psums.(c) in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. p.(j)
        done
      done)
    (chunk_bounds n);
  (sums, mass)

(* Returns the distances its empty-cluster reseeds computed. *)
let recompute_centroids ~weights ~points ~assignments ~centroids =
  let k = Array.length centroids in
  let dim = Array.length points.(0) in
  let sums, mass = accumulate ~weights ~points ~assignments ~k in
  let reseed_evals = ref 0 in
  (* Reseed empty clusters on the point with the largest weighted distance
     to its current centroid.  The scan reads centroids mid-update, so its
     order is part of the reference semantics. *)
  for c = 0 to k - 1 do
    if mass.(c) = 0.0 then begin
      let worst = ref 0 and worst_d = ref neg_infinity in
      Array.iteri
        (fun i p ->
          let d = weights.(i) *. Stats.sq_distance p centroids.(assignments.(i)) in
          if d > !worst_d then begin
            worst_d := d;
            worst := i
          end)
        points;
      reseed_evals := !reseed_evals + Array.length points;
      centroids.(c) <- Array.copy points.(!worst)
    end
    else begin
      let s = sums.(c) in
      for j = 0 to dim - 1 do
        s.(j) <- s.(j) /. mass.(c)
      done;
      centroids.(c) <- s
    end
  done;
  !reseed_evals

let distortion_chunk ~weights ~points ~assignments ~centroids (lo, hi) =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc :=
      !acc +. (weights.(i) *. Stats.sq_distance points.(i) centroids.(assignments.(i)))
  done;
  !acc

let total_distortion ~weights ~points ~assignments ~centroids =
  List.fold_left
    (fun acc chunk ->
      acc +. distortion_chunk ~weights ~points ~assignments ~centroids chunk)
    0.0
    (chunk_bounds (Array.length points))

(* --- reference Lloyd ---------------------------------------------------- *)

let run_once_reference rng ~max_iters ~k ~weights ~points =
  let n = Array.length points in
  let centroids = seed_plus_plus rng ~k ~weights ~points in
  let assignments = Array.make n (-1) in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue && !iterations < max_iters do
    let changed = assign_all ~centroids ~points ~assignments in
    if changed then begin
      let (_ : int) = recompute_centroids ~weights ~points ~assignments ~centroids in
      incr iterations
    end
    else continue := false
  done;
  (* Ensure assignments reflect the final centroids. *)
  let (_ : bool) = assign_all ~centroids ~points ~assignments in
  let distortion = total_distortion ~weights ~points ~assignments ~centroids in
  { k; assignments; centroids; distortion; iterations = !iterations }

(* --- production: fused seeding, blocked distances, Hamerly pruning ------ *)

(* [out.(i) <- Stats.sq_distance points.(i) c] for every point, four
   points per sweep of [c] with one accumulator each: the four add chains
   are independent, so their latencies overlap.  Each sum still starts at
   0.0 and runs in ascending dimension order, so it is bit-identical to
   [Stats.sq_distance]. *)
let distances_to ~points c out =
  let n = Array.length points and dim = Array.length c in
  let i = ref 0 in
  while !i + 4 <= n do
    let b = !i in
    let p0 = points.(b) and p1 = points.(b + 1) in
    let p2 = points.(b + 2) and p3 = points.(b + 3) in
    if
      Array.length p0 <> dim || Array.length p1 <> dim
      || Array.length p2 <> dim || Array.length p3 <> dim
    then invalid_arg "Kmeans.distances_to: length mismatch";
    let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
    for j = 0 to dim - 1 do
      let cj = Array.unsafe_get c j in
      let d0 = Array.unsafe_get p0 j -. cj and d1 = Array.unsafe_get p1 j -. cj in
      let d2 = Array.unsafe_get p2 j -. cj and d3 = Array.unsafe_get p3 j -. cj in
      a0 := !a0 +. (d0 *. d0);
      a1 := !a1 +. (d1 *. d1);
      a2 := !a2 +. (d2 *. d2);
      a3 := !a3 +. (d3 *. d3)
    done;
    out.(b) <- !a0;
    out.(b + 1) <- !a1;
    out.(b + 2) <- !a2;
    out.(b + 3) <- !a3;
    i := b + 4
  done;
  for t = !i to n - 1 do
    out.(t) <- Stats.sq_distance points.(t) c
  done

(* [seed_plus_plus]'s weighted pick with the running sum in a loop: its
   recursive [scan] boxes the float accumulator on every step. *)
let pick_weighted rng masses =
  let n = Array.length masses in
  let total = Stats.sum masses in
  if total <= 0.0 then Rng.int rng ~bound:n
  else begin
    let target = Rng.float rng *. total in
    let acc = ref 0.0 and i = ref 0 and found = ref false in
    while (not !found) && !i < n - 1 do
      acc := !acc +. masses.(!i);
      if !acc > target then found := true else incr i
    done;
    !i
  end

(* Weighted k-means++ seeding fused with the first full assignment.
   Seeding measures every point against centroids 0..k-2 in the
   reference's order; each point keeps its nearest and second-nearest of
   them with [nearest_two]'s strict comparisons, so the first assignment
   only measures centroid k-1.  While seeding, [upper] holds the
   squared distance to the nearest centroid so far, which is
   [seed_plus_plus]'s D² (finite points give no nan distance, the one
   case where the two comparisons differ).  On return [assignments]
   holds each point's nearest centroid and [upper]/[lower] the exact
   distances to its nearest and second-nearest, as a full [nearest_two]
   scan leaves them. *)
let seed_and_assign rng ~k ~weights ~points ~assignments ~upper ~lower =
  let n = Array.length points in
  let dist = Array.make n 0.0 and masses = Array.make n 0.0 in
  let centroids = Array.make k [||] in
  centroids.(0) <- Array.copy points.(pick_weighted rng weights);
  for c = 0 to k - 1 do
    distances_to ~points centroids.(c) dist;
    if c = 0 then begin
      Array.blit dist 0 upper 0 n;
      Array.fill lower 0 n infinity
    end
    else
      for i = 0 to n - 1 do
        let d = dist.(i) in
        if d < upper.(i) then begin
          lower.(i) <- upper.(i);
          upper.(i) <- d;
          assignments.(i) <- c
        end
        else if d < lower.(i) then lower.(i) <- d
      done;
    if c < k - 1 then begin
      for i = 0 to n - 1 do
        masses.(i) <- weights.(i) *. upper.(i)
      done;
      centroids.(c + 1) <- Array.copy points.(pick_weighted rng masses)
    end
  done;
  for i = 0 to n - 1 do
    upper.(i) <- sqrt upper.(i);
    lower.(i) <- sqrt lower.(i)
  done;
  centroids

(* Per-point bounds in Euclidean (not squared) distance:

     upper.(i) >= d(points.(i), centroids.(assignments.(i)))
     lower.(i) <= d(points.(i), c)   for every c <> assignments.(i)

   After a full scan both are exact; a centroid move of [drift.(c)]
   loosens them by at most that much (triangle inequality).  A point is
   skipped only when [upper < lower] STRICTLY: then every rival centroid
   is strictly farther than the assigned one, so the reference full scan
   — ties and all — would reproduce the current assignment.  That strict
   comparison is what makes pruned assignments bit-identical to the
   reference, not merely approximately equal. *)
let assign_pruned ~centroids ~points ~assignments ~upper ~lower ~evals =
  let k = Array.length centroids in
  let changed = ref false in
  for i = 0 to Array.length points - 1 do
    if not (upper.(i) < lower.(i)) then begin
      let p = points.(i) in
      let a = assignments.(i) in
      (* Tighten the upper bound with one exact distance first; most
         surviving points die here without a full scan. *)
      let d_a = sqrt (Stats.sq_distance p centroids.(a)) in
      incr evals;
      upper.(i) <- d_a;
      if not (d_a < lower.(i)) then begin
        let best, best_d, second_d = nearest_two ~centroids ~k p in
        evals := !evals + k;
        upper.(i) <- sqrt best_d;
        lower.(i) <- sqrt second_d;
        if a <> best then begin
          assignments.(i) <- best;
          changed := true
        end
      end
    end
  done;
  !changed

let run_once_pruned rng ~max_iters ~k ~weights ~points =
  let n = Array.length points in
  let assignments = Array.make n 0 in
  let upper = Array.make n 0.0 and lower = Array.make n 0.0 in
  let centroids =
    seed_and_assign rng ~k ~weights ~points ~assignments ~upper ~lower
  in
  let evals = ref (k * n) in
  let assign () = assign_pruned ~centroids ~points ~assignments ~upper ~lower ~evals in
  let old = Array.make k [||] in
  let drift = Array.make k 0.0 in
  let recompute_and_loosen () =
    Array.blit centroids 0 old 0 k;
    let reseeds = recompute_centroids ~weights ~points ~assignments ~centroids in
    evals := !evals + reseeds + k;
    let max_drift = ref 0.0 in
    for c = 0 to k - 1 do
      let d = sqrt (Stats.sq_distance old.(c) centroids.(c)) in
      drift.(c) <- d;
      if d > !max_drift then max_drift := d
    done;
    let md = !max_drift in
    if md > 0.0 then
      for i = 0 to n - 1 do
        upper.(i) <- upper.(i) +. drift.(assignments.(i));
        lower.(i) <- lower.(i) -. md
      done
  in
  let iterations = ref 0 in
  if max_iters > 0 then begin
    (* The first assignment moved every point off the reference's -1
       start, so it counts as a change. *)
    recompute_and_loosen ();
    iterations := 1;
    while !iterations < max_iters && assign () do
      recompute_and_loosen ();
      incr iterations
    done;
    (* Stopped by the cap, the last recompute moved the centroids:
       reassign to match them (the bounds were loosened after it, so the
       pruned pass is exact).  Stopped by an unchanged pass, the
       assignments already match. *)
    if !iterations >= max_iters then ignore (assign () : bool)
  end;
  let distortion = total_distortion ~weights ~points ~assignments ~centroids in
  Metrics.incr m_runs;
  Metrics.incr ~by:!iterations m_iterations;
  Metrics.incr ~by:(!evals + n) m_distance_evals;
  { k; assignments; centroids; distortion; iterations = !iterations }

(* --- drivers ------------------------------------------------------------ *)

let run_restarts ~run_once ~seed ~restarts ~max_iters ~k ~weights ~points =
  check_args ~k ~weights ~points;
  if restarts < 1 then invalid_arg "Kmeans.run: restarts must be >= 1";
  let rng = Rng.create ~seed in
  let best = ref (run_once rng ~max_iters ~k ~weights ~points) in
  for _ = 2 to restarts do
    let candidate = run_once rng ~max_iters ~k ~weights ~points in
    if candidate.distortion < !best.distortion then best := candidate
  done;
  !best

let run ?(seed = 493) ?(restarts = 5) ?(max_iters = 100) ~k ~weights ~points () =
  run_restarts ~run_once:run_once_pruned ~seed ~restarts ~max_iters ~k ~weights
    ~points

let run_reference ?(seed = 493) ?(restarts = 5) ?(max_iters = 100) ~k ~weights
    ~points () =
  run_restarts ~run_once:run_once_reference ~seed ~restarts ~max_iters ~k
    ~weights ~points

let cluster_weights result ~weights =
  let totals = Array.make result.k 0.0 in
  Array.iteri
    (fun i c -> totals.(c) <- totals.(c) +. weights.(i))
    result.assignments;
  totals

let closest_to_centroid result ~points =
  let best = Array.make result.k (-1) in
  let best_d = Array.make result.k infinity in
  Array.iteri
    (fun i p ->
      let c = result.assignments.(i) in
      let d = Stats.sq_distance p result.centroids.(c) in
      if d < best_d.(c) then begin
        best_d.(c) <- d;
        best.(c) <- i
      end)
    points;
  best
