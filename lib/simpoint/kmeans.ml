module Rng = Cbsp_util.Rng
module Stats = Cbsp_util.Stats
module Scheduler = Cbsp_engine.Scheduler
module Metrics = Cbsp_obs.Metrics

(* Clustering observability: restarts executed, Lloyd iterations, and
   exact distance evaluations the pruned assignment actually paid for
   (the whole point of the Hamerly bounds is to keep the last one far
   below n*k per iteration). *)
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
  Array.iter (fun w -> if w <= 0.0 then invalid_arg "Kmeans.run: non-positive weight") weights;
  if k < 1 || k > n then invalid_arg "Kmeans.run: k out of range";
  let dim = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> dim then invalid_arg "Kmeans.run: ragged points")
    points

(* Points are processed in fixed chunks: the chunk grid depends only on n,
   never on the worker count, and partial results are folded in ascending
   chunk order.  That fixes one canonical floating-point summation order,
   so every [jobs] value — and the sequential reference — produces
   bit-identical centroids and distortion. *)
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

let accumulate ~jobs ~weights ~points ~assignments ~k =
  let n = Array.length points in
  let dim = Array.length points.(0) in
  let partials =
    Scheduler.parallel_map ~jobs
      (accumulate_chunk ~weights ~points ~assignments ~k ~dim)
      (chunk_bounds n)
  in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let mass = Array.make k 0.0 in
  List.iter
    (fun (psums, pmass) ->
      for c = 0 to k - 1 do
        mass.(c) <- mass.(c) +. pmass.(c);
        let s = sums.(c) in
        let p = psums.(c) in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. p.(j)
        done
      done)
    partials;
  (sums, mass)

let recompute_centroids ~jobs ~weights ~points ~assignments ~centroids =
  let k = Array.length centroids in
  let dim = Array.length points.(0) in
  let sums, mass = accumulate ~jobs ~weights ~points ~assignments ~k in
  (* Reseed empty clusters on the point with the largest weighted distance
     to its current centroid.  Sequential on purpose: the scan reads
     centroids mid-update, so its order is part of the reference
     semantics. *)
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
      centroids.(c) <- Array.copy points.(!worst)
    end
    else begin
      let s = sums.(c) in
      for j = 0 to dim - 1 do
        s.(j) <- s.(j) /. mass.(c)
      done;
      centroids.(c) <- s
    end
  done

let distortion_chunk ~weights ~points ~assignments ~centroids (lo, hi) =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc :=
      !acc +. (weights.(i) *. Stats.sq_distance points.(i) centroids.(assignments.(i)))
  done;
  !acc

let total_distortion ~jobs ~weights ~points ~assignments ~centroids =
  let parts =
    Scheduler.parallel_map ~jobs
      (distortion_chunk ~weights ~points ~assignments ~centroids)
      (chunk_bounds (Array.length points))
  in
  List.fold_left ( +. ) 0.0 parts

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
      recompute_centroids ~jobs:1 ~weights ~points ~assignments ~centroids;
      incr iterations
    end
    else continue := false
  done;
  (* Ensure assignments reflect the final centroids. *)
  let (_ : bool) = assign_all ~centroids ~points ~assignments in
  let distortion = total_distortion ~jobs:1 ~weights ~points ~assignments ~centroids in
  { k; assignments; centroids; distortion; iterations = !iterations }

(* --- pruned (Hamerly) Lloyd -------------------------------------------- *)

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

let assign_chunk_pruned ~centroids ~points ~assignments ~upper ~lower (lo, hi) =
  let k = Array.length centroids in
  let changed = ref false in
  let evals = ref 0 in
  for i = lo to hi - 1 do
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
  (!changed, !evals)

let assign_chunk_full ~centroids ~points ~assignments ~upper ~lower (lo, hi) =
  let k = Array.length centroids in
  let changed = ref false in
  for i = lo to hi - 1 do
    let best, best_d, second_d = nearest_two ~centroids ~k points.(i) in
    upper.(i) <- sqrt best_d;
    lower.(i) <- sqrt second_d;
    if assignments.(i) <> best then begin
      assignments.(i) <- best;
      changed := true
    end
  done;
  (!changed, (hi - lo) * k)

let run_once_pruned ~jobs rng ~max_iters ~k ~weights ~points =
  let n = Array.length points in
  let centroids = seed_plus_plus rng ~k ~weights ~points in
  let assignments = Array.make n (-1) in
  let upper = Array.make n infinity in
  let lower = Array.make n 0.0 in
  let chunks = chunk_bounds n in
  let assign chunk_fn =
    let flags =
      Scheduler.parallel_map ~jobs
        (chunk_fn ~centroids ~points ~assignments ~upper ~lower)
        chunks
    in
    let evals = List.fold_left (fun acc (_, e) -> acc + e) 0 flags in
    Metrics.incr ~by:evals m_distance_evals;
    List.exists (fun (changed, _) -> changed) flags
  in
  let old = Array.init k (fun _ -> [||]) in
  let drift = Array.make k 0.0 in
  let recompute_and_loosen () =
    for c = 0 to k - 1 do
      old.(c) <- centroids.(c)
    done;
    recompute_centroids ~jobs ~weights ~points ~assignments ~centroids;
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
  let continue = ref true in
  let first = ref true in
  while !continue && !iterations < max_iters do
    let changed =
      if !first then begin
        first := false;
        let (_ : bool) = assign assign_chunk_full in
        (* From the -1 state every point changes, like the reference. *)
        true
      end
      else assign assign_chunk_pruned
    in
    if changed then begin
      recompute_and_loosen ();
      incr iterations
    end
    else continue := false
  done;
  (* Ensure assignments reflect the final centroids (the bounds were
     loosened after the last recompute, so the pruned pass is exact). *)
  let (_ : bool) =
    if !first then assign assign_chunk_full else assign assign_chunk_pruned
  in
  let distortion = total_distortion ~jobs ~weights ~points ~assignments ~centroids in
  Metrics.incr m_runs;
  Metrics.incr ~by:!iterations m_iterations;
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

let run ?(seed = 493) ?(restarts = 5) ?(max_iters = 100) ?(jobs = 1) ~k ~weights
    ~points () =
  run_restarts ~run_once:(run_once_pruned ~jobs) ~seed ~restarts ~max_iters ~k
    ~weights ~points

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
