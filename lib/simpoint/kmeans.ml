module Rng = Cbsp_util.Rng
module Stats = Cbsp_util.Stats
module Metrics = Cbsp_obs.Metrics

(* Clustering observability: restarts executed, Lloyd iterations, and
   every exact distance the production path computes.  {!run} measures
   each distinct point value (group) once, so the count is per group:
   m per centroid for seeding and the first assignment, one per group
   the Hamerly bounds fail to skip plus k more for a full scan, k per
   recompute for centroid drift, m per empty-cluster reseed and m for
   the final distortion. *)
let m_runs = Metrics.counter "kmeans.runs"
let m_iterations = Metrics.counter "kmeans.iterations"
let m_distance_evals = Metrics.counter "kmeans.distance_evals"

(* The memoized sums of {!run}: chunk partials of the centroid
   accumulation (one per chunk and cluster with members there, per
   Lloyd iteration) and seeding picks (k-1 per restart), each with how
   many were served from the [prepared] set's memo. *)
let m_partials = Metrics.counter "kmeans.partials"
let m_partials_reused = Metrics.counter "kmeans.partials_reused"
let m_seedings = Metrics.counter "kmeans.seedings"
let m_seedings_reused = Metrics.counter "kmeans.seedings_reused"

type result = {
  k : int;
  assignments : int array;
  centroids : float array array;
  distortion : float;
  iterations : int;
}

let check_points ~fn ~weights ~points =
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
    points

let check_k ~fn ~k ~n =
  if k < 1 || k > n then invalid_arg (fn ^ ": k out of range")

(* Point-order sums run over fixed chunks: the chunk grid depends only on
   n, and partial results are folded in ascending chunk order.  That is
   the one canonical floating-point summation order, so the centroids and
   distortion do not depend on how the points group. *)
let chunk_size = 256

(* [f lo hi] is one chunk's partial sum; partials fold in chunk order. *)
let sum_chunks n f =
  let total = ref 0.0 and lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk_size) in
    total := !total +. f !lo hi;
    lo := hi
  done;
  !total

(* Nearest and second-nearest centroid of one point, given its squared
   distances [ds] to the k centroids (strict improvement, so the lowest
   index wins ties). *)
let nearest_two ~k ds =
  let best = ref 0 and best_d = ref ds.(0) and second_d = ref infinity in
  for c = 1 to k - 1 do
    let d = ds.(c) in
    if d < !best_d then begin
      second_d := !best_d;
      best_d := d;
      best := c
    end
    else if d < !second_d then second_d := d
  done;
  (!best, !best_d, !second_d)

(* --- centroid update (canonical chunked order) -------------------------- *)

(* Empty clusters are reseeded on [reseed ()], the point with the
   largest weighted distance to its current centroid.  It reads the
   centroids mid-update, so the ascending [for c] order is part of the
   semantics. *)
let update_centroids ~points ~centroids ~reseed (sums, mass) =
  let k = Array.length centroids in
  for c = 0 to k - 1 do
    if mass.(c) = 0.0 then centroids.(c) <- Array.copy points.(reseed ())
    else begin
      let s = sums.(c) in
      for j = 0 to Array.length s - 1 do
        s.(j) <- s.(j) /. mass.(c)
      done;
      centroids.(c) <- s
    end
  done

(* --- grouped, fused seeding, blocked, Hamerly-pruned -------------------- *)

(* The memos' keys are bitsets over groups, as strings. *)
module Memo = Hashtbl.Make (String)

let set_bit bits i =
  let b = Char.code (Bytes.get bits (i lsr 3)) in
  Bytes.set bits (i lsr 3) (Char.unsafe_chr (b lor (1 lsl (i land 7))))

(* One k-means++ pick's masses, summarized: their [Stats.sum] and their
   plain running sum at the end of each chunk. *)
type masses = { total : float; ends : float array }

(* Points grouped by bit pattern: bit-equal points are at bit-equal
   distances from any centroid, so every distance is computed once per
   group.  Every sum over points below depends on the points only
   through group-level state, so [prepared] memoizes two of them for
   every k and restart run on it, each entry computed in the canonical
   order: chunk partials of the centroid accumulation, keyed by the
   chunk's member set of one cluster, and the seeding masses, keyed by
   the centroids chosen so far. *)
type prepared = {
  weights : float array;
  points : float array array;
  gid : int array;  (* point -> group *)
  reps : float array array;  (* group -> its first point *)
  first : masses;  (* the weights', for the first pick *)
  chunk_groups : int array array;  (* chunk -> its groups, first seen first *)
  key_bytes : int;  (* a bit for each group of the fullest chunk *)
  partials : float array Memo.t array;
      (* chunk -> member-set key -> [dim] sums, then the mass *)
  seedings : masses Memo.t;  (* chosen-centroid key *)
}

(* Two points share a group iff every coordinate has the same bit
   pattern (so 0.0 and -0.0 differ, and a nan equals a nan of the same
   bits). *)
let same_bits a b =
  let rec from j =
    j = Array.length a
    || Int64.equal (Int64.bits_of_float a.(j)) (Int64.bits_of_float b.(j))
       && from (j + 1)
  in
  from 0

(* Each coordinate's bits folded in with a xor-shift-multiply mix, so
   that points differing only in exponent bits still differ in the low
   bits, which pick the slot.  [Int64.to_int] drops the sign bit: points
   differing only in signs collide, and probing tells them apart. *)
let hash_bits p =
  let h = ref 0 in
  for j = 0 to Array.length p - 1 do
    let x = !h lxor Int64.to_int (Int64.bits_of_float p.(j)) in
    let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h

module Bits = struct
  type t = float array

  let equal = same_bits
  let hash = hash_bits
end

(* [gid] and one representative per group, in first-seen order, through
   an open-addressing table of group ids at most half full. *)
let group_points points =
  let n = Array.length points in
  let size = ref 1 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let slots = Array.make !size (-1) in
  let reps = Array.make n [||] and m = ref 0 in
  let gid =
    Array.map
      (fun p ->
        let rec probe s =
          let g = slots.(s) in
          if g < 0 then begin
            slots.(s) <- !m;
            reps.(!m) <- p;
            incr m;
            !m - 1
          end
          else if same_bits p reps.(g) then g
          else probe ((s + 1) land mask)
        in
        probe (hash_bits p land mask))
      points
  in
  (gid, Array.sub reps 0 !m)

(* The masses [weights.(i) *. d2.(gid.(i))] in one pass: the same Kahan
   steps as [Stats.sum], and the plain running sum at each chunk end.
   No closure captures the float refs and no call sits between their
   uses, so they stay unboxed in registers. *)
let summarize_masses ~weights ~gid ~d2 =
  let n = Array.length gid in
  let ends = Array.make ((n + chunk_size - 1) / chunk_size) 0.0 in
  let total = ref 0.0 and comp = ref 0.0 and acc = ref 0.0 in
  for ch = 0 to Array.length ends - 1 do
    let hi = (ch + 1) * chunk_size in
    for i = ch * chunk_size to (if hi < n then hi else n) - 1 do
      let x = weights.(i) *. d2.(gid.(i)) in
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t;
      acc := !acc +. x
    done;
    ends.(ch) <- !acc
  done;
  { total = !total; ends }

(* Each chunk's distinct groups, in first-seen order. *)
let groups_per_chunk ~gid ~m =
  let n = Array.length gid in
  let seen = Array.make m (-1) and found = Array.make chunk_size 0 in
  Array.init ((n + chunk_size - 1) / chunk_size) (fun ch ->
      let l = ref 0 in
      for i = ch * chunk_size to min n ((ch + 1) * chunk_size) - 1 do
        let g = gid.(i) in
        if seen.(g) <> ch then begin
          seen.(g) <- ch;
          found.(!l) <- g;
          incr l
        end
      done;
      Array.sub found 0 !l)

let prepare ~weights ~points =
  check_points ~fn:"Kmeans.prepare" ~weights ~points;
  let gid, reps = group_points points in
  let m = Array.length reps in
  let chunk_groups = groups_per_chunk ~gid ~m in
  { weights; points; gid; reps;
    (* [x *. 1.0 = x], so these masses are the weights themselves. *)
    first = summarize_masses ~weights ~gid ~d2:(Array.make m 1.0);
    chunk_groups;
    key_bytes =
      (Array.fold_left (fun l g -> max l (Array.length g)) 0 chunk_groups + 7)
      / 8;
    partials = Array.map (fun _ -> Memo.create 16) chunk_groups;
    seedings = Memo.create 16 }

let distinct prep = Array.length prep.reps

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

(* The weighted k-means++ pick over the masses
   [weights.(i) *. d2.(gid.(i))], from their summary.  By definition the
   pick draws uniformly if the Kahan total is <= 0, and otherwise scans
   the plain running sum from index 0 and stops at the first index
   <= n-2 whose sum exceeds the target [Rng.float rng *. total], n-1 if
   none does.  Masses
   are >= 0, so the running sums never decrease, and that index lies in
   the first chunk whose end sum exceeds the target.  A binary search
   over the chunk ends finds that chunk, and re-adding its masses from
   the previous chunk's end repeats the scan's running sums bit for bit.
   A nan mass makes [total] nan, so no comparison holds and both return
   n-1. *)
let pick rng { total; ends } ~weights ~gid ~d2 =
  let n = Array.length gid in
  if total <= 0.0 then Rng.int rng ~bound:n
  else begin
    let target = Rng.float rng *. total in
    let lo = ref 0 and hi = ref (Array.length ends) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ends.(mid) > target then hi := mid else lo := mid + 1
    done;
    let ch = !lo in
    let found = ref (n - 1) in
    if ch < Array.length ends then begin
      let last = ((ch + 1) * chunk_size) - 1 in
      let last = if last < n - 2 then last else n - 2 in
      let acc = ref (if ch = 0 then 0.0 else ends.(ch - 1)) in
      let i = ref (ch * chunk_size) in
      while !i <= last do
        acc := !acc +. (weights.(!i) *. d2.(gid.(!i)));
        if !acc > target then begin
          found := !i;
          i := n
        end
        else incr i
      done
    end;
    !found
  end

(* The seeding memo's key: the set of groups chosen as centroids so far,
   as a bitset over groups.  With every point finite, D² is the minimum
   distance to that set whatever the order of the choices, so the set
   fixes the masses.  With a non-finite point the order can matter, but
   not the pick: that point is at distance inf or nan from every
   centroid, so its mass is inf or nan, the Kahan total is inf or nan,
   and no running sum exceeds the target, whichever summary is used.
   Every pick after the first is then n-1, as the plain scan gives. *)
let seeding_key ~m chosen =
  let bits = Bytes.make ((m + 7) / 8) '\000' in
  List.iter (set_bit bits) chosen;
  Bytes.unsafe_to_string bits

(* Weighted k-means++ seeding fused with the first full assignment, per
   group.  Seeding measures every group against centroids 0..k-2 in
   pick order; each group keeps its nearest and second-nearest of
   them with [nearest_two]'s strict comparisons, so the first assignment
   only measures centroid k-1.  While seeding, [upper] holds the
   squared distance to the nearest centroid so far, which is
   k-means++'s D² (finite points give no nan distance, the one
   case where the two comparisons differ).  Each pick's masses are
   summarized once per chosen-centroid key of [prep] and [reused] counts
   the picks whose summary was already there.  On return [assign] holds
   each group's nearest centroid and [upper]/[lower] the exact
   distances to its nearest and second-nearest, as a full [nearest_two]
   scan leaves them. *)
let seed_and_assign rng prep ~k ~dist ~assign ~upper ~lower ~reused =
  let { weights; points; gid; _ } = prep in
  let m = Array.length prep.reps in
  let centroids = Array.make k [||] in
  (* Until it holds distances, [upper] is the first pick's d2: all 1.0,
     so the masses are the weights. *)
  Array.fill upper 0 m 1.0;
  let first = pick rng prep.first ~weights ~gid ~d2:upper in
  centroids.(0) <- Array.copy points.(first);
  let chosen = ref [ gid.(first) ] in
  for c = 0 to k - 1 do
    distances_to ~points:prep.reps centroids.(c) dist;
    if c = 0 then begin
      Array.blit dist 0 upper 0 m;
      Array.fill lower 0 m infinity
    end
    else
      for g = 0 to m - 1 do
        let d = dist.(g) in
        if d < upper.(g) then begin
          lower.(g) <- upper.(g);
          upper.(g) <- d;
          assign.(g) <- c
        end
        else if d < lower.(g) then lower.(g) <- d
      done;
    if c < k - 1 then begin
      let key = seeding_key ~m !chosen in
      let masses =
        match Memo.find_opt prep.seedings key with
        | Some masses ->
          incr reused;
          masses
        | None ->
          let masses = summarize_masses ~weights ~gid ~d2:upper in
          Memo.add prep.seedings key masses;
          masses
      in
      let next = pick rng masses ~weights ~gid ~d2:upper in
      chosen := gid.(next) :: !chosen;
      centroids.(c + 1) <- Array.copy points.(next)
    end
  done;
  for g = 0 to m - 1 do
    upper.(g) <- sqrt upper.(g);
    lower.(g) <- sqrt lower.(g)
  done;
  centroids

(* One Lloyd accumulation over the groups' assignments [assign], in the
   canonical order: per chunk, per cluster, the partial sums of
   that cluster's members in point order, then the partials in chunk
   order.  A cluster's partial in a chunk depends only on which of the
   chunk's groups it holds, so it is memoized per chunk under that
   member set: a bitset over [chunk_groups], padded to [key_bytes] so
   that one scratch key per cluster serves every chunk.  On a miss, one
   pass over the chunk sums the members of every cluster that missed,
   in point order.  A cluster with no member in the chunk folds the zero
   partial, as a plain chunked sum over all points does.  Returns
   the sums and masses, and adds the partials looked up and the ones
   found to [looked]/[reused]. *)
let accumulate_grouped prep ~assign ~psums ~pmass ~looked ~reused =
  let { weights; points; gid; key_bytes; _ } = prep in
  let n = Array.length gid in
  let k = Array.length pmass and dim = Array.length points.(0) in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let mass = Array.make k 0.0 in
  let zero = Array.make (dim + 1) 0.0 in
  (* Per cluster: its key in this chunk, whether it has a member there,
     its partial, and whether that missed. *)
  let keys = Array.init k (fun _ -> Bytes.create key_bytes) in
  let members = Array.make k false and missing = Array.make k false in
  let found = Array.make k zero in
  for ch = 0 to Array.length prep.chunk_groups - 1 do
    let groups = prep.chunk_groups.(ch) and memo = prep.partials.(ch) in
    for c = 0 to k - 1 do
      Bytes.fill keys.(c) 0 key_bytes '\000';
      members.(c) <- false
    done;
    for t = 0 to Array.length groups - 1 do
      let c = assign.(groups.(t)) in
      members.(c) <- true;
      set_bit keys.(c) t
    done;
    let missed = ref false in
    for c = 0 to k - 1 do
      missing.(c) <- false;
      if not members.(c) then found.(c) <- zero
      else begin
        incr looked;
        (* The table keeps no lookup key, so the scratch bytes can be
           looked up in place. *)
        match Memo.find_opt memo (Bytes.unsafe_to_string keys.(c)) with
        | Some partial ->
          incr reused;
          found.(c) <- partial
        | None ->
          missing.(c) <- true;
          missed := true
      end
    done;
    if !missed then begin
      Array.fill pmass 0 k 0.0;
      Array.fill psums 0 (k * dim) 0.0;
      let hi = (ch + 1) * chunk_size in
      for i = ch * chunk_size to (if hi < n then hi else n) - 1 do
        let c = assign.(gid.(i)) in
        if missing.(c) then begin
          let w = weights.(i) in
          pmass.(c) <- pmass.(c) +. w;
          (* [c < k] passed [pmass]'s bounds check, and every point is
             [dim] long. *)
          let s = c * dim and p = points.(i) in
          for j = 0 to dim - 1 do
            Array.unsafe_set psums (s + j)
              (Array.unsafe_get psums (s + j) +. (w *. Array.unsafe_get p j))
          done
        end
      done;
      for c = 0 to k - 1 do
        if missing.(c) then begin
          let partial = Array.make (dim + 1) pmass.(c) in
          Array.blit psums (c * dim) partial 0 dim;
          Memo.add memo (Bytes.to_string keys.(c)) partial;
          found.(c) <- partial
        end
      done
    end;
    for c = 0 to k - 1 do
      let partial = found.(c) and s = sums.(c) in
      mass.(c) <- mass.(c) +. partial.(dim);
      for j = 0 to dim - 1 do
        s.(j) <- s.(j) +. partial.(j)
      done
    done
  done;
  (sums, mass)

(* Per-point bounds in Euclidean (not squared) distance, where the
   points are the group representatives:

     upper.(i) >= d(points.(i), centroids.(assignments.(i)))
     lower.(i) <= d(points.(i), c)   for every c <> assignments.(i)

   After a full scan both are exact; a centroid move of [drift.(c)]
   loosens them by at most that much (triangle inequality).  A point is
   skipped only when [upper < lower] STRICTLY: then every rival centroid
   is strictly farther than the assigned one, so a full [nearest_two]
   scan — ties and all — would reproduce the current assignment.  That
   strict comparison is what makes pruned assignments bit-identical to
   plain Lloyd's, not merely approximately equal.  A full scan measures the
   centroids four per sweep of the point ([distances_to], scratch [ds]).
   It sums the squares of [c_j -. p_j] where [Stats.sq_distance p c]
   has [p_j -. c_j]: IEEE subtraction is exactly antisymmetric, so every
   square, and so every distance, has the same bits (a nan's payload
   aside, and a nan is only ever compared). *)
let assign_pruned ~centroids ~points ~assignments ~upper ~lower ~ds ~evals =
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
        distances_to ~points:centroids p ds;
        let best, best_d, second_d = nearest_two ~k ds in
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

(* One restart.  Its [assignments] are per group (index [gid.(i)] for
   point [i]), expanded by [run] for the winning restart only. *)
let run_once_pruned rng ~max_iters ~k prep =
  let { weights; points; gid; reps; _ } = prep in
  let n = Array.length points and m = Array.length reps in
  (* Per group: assignment, bounds, and one distance of scratch. *)
  let assign = Array.make m 0 in
  let upper = Array.make m 0.0 and lower = Array.make m 0.0 in
  let dist = Array.make m 0.0 in
  let seedings_reused = ref 0 in
  let centroids =
    seed_and_assign rng prep ~k ~dist ~assign ~upper ~lower
      ~reused:seedings_reused
  in
  let evals = ref (k * m) in
  (* Each group's distance to its centroid, into [dist]. *)
  let own_distances () =
    for g = 0 to m - 1 do
      dist.(g) <- Stats.sq_distance reps.(g) centroids.(assign.(g))
    done;
    evals := !evals + m
  in
  (* A Lloyd accumulation's per-chunk scratch: k rows of dim, flat, and
     the masses. *)
  let psums = Array.make (k * Array.length points.(0)) 0.0 in
  let pmass = Array.make k 0.0 in
  let reseed () =
    own_distances ();
    let worst = ref 0 and worst_d = ref neg_infinity in
    for i = 0 to n - 1 do
      let d = weights.(i) *. dist.(gid.(i)) in
      if d > !worst_d then begin
        worst_d := d;
        worst := i
      end
    done;
    !worst
  in
  let partials = ref 0 and partials_reused = ref 0 in
  let ds = Array.make k 0.0 in
  let old = Array.make k [||] in
  let drift = Array.make k 0.0 in
  let recompute_and_loosen () =
    Array.blit centroids 0 old 0 k;
    update_centroids ~points ~centroids ~reseed
      (accumulate_grouped prep ~assign ~psums ~pmass ~looked:partials
         ~reused:partials_reused);
    evals := !evals + k;
    let max_drift = ref 0.0 in
    for c = 0 to k - 1 do
      let d = sqrt (Stats.sq_distance old.(c) centroids.(c)) in
      drift.(c) <- d;
      if d > !max_drift then max_drift := d
    done;
    let md = !max_drift in
    if md > 0.0 then
      for g = 0 to m - 1 do
        upper.(g) <- upper.(g) +. drift.(assign.(g));
        lower.(g) <- lower.(g) -. md
      done
  in
  let assign_step () =
    assign_pruned ~centroids ~points:reps ~assignments:assign ~upper ~lower
      ~ds ~evals
  in
  let iterations = ref 0 in
  if max_iters > 0 then begin
    (* The first assignment moved every point off plain Lloyd's
       unassigned start, so it counts as a change. *)
    recompute_and_loosen ();
    iterations := 1;
    while !iterations < max_iters && assign_step () do
      recompute_and_loosen ();
      incr iterations
    done;
    (* Stopped by the cap, the last recompute moved the centroids:
       reassign to match them (the bounds were loosened after it, so the
       pruned pass is exact).  Stopped by an unchanged pass, the
       assignments already match. *)
    if !iterations >= max_iters then ignore (assign_step () : bool)
  end;
  own_distances ();
  let distortion =
    sum_chunks n (fun lo hi ->
        let acc = ref 0.0 in
        for i = lo to hi - 1 do
          acc := !acc +. (weights.(i) *. dist.(gid.(i)))
        done;
        !acc)
  in
  Metrics.incr m_runs;
  Metrics.incr ~by:!iterations m_iterations;
  Metrics.incr ~by:!evals m_distance_evals;
  Metrics.incr ~by:!partials m_partials;
  Metrics.incr ~by:!partials_reused m_partials_reused;
  Metrics.incr ~by:(k - 1) m_seedings;
  Metrics.incr ~by:!seedings_reused m_seedings_reused;
  { k; assignments = assign; centroids; distortion; iterations = !iterations }

(* --- drivers ------------------------------------------------------------ *)

let best_of ~seed ~restarts run_once =
  if restarts < 1 then invalid_arg "Kmeans.run: restarts must be >= 1";
  let rng = Rng.create ~seed in
  let best = ref (run_once rng) in
  for _ = 2 to restarts do
    let candidate = run_once rng in
    if candidate.distortion < !best.distortion then best := candidate
  done;
  !best

(* A restart's best, its assignments per group, with the grouping that
   expands them. *)
type grouped = { prep : prepared; best : result }

let run_grouped ?(seed = 493) ?(restarts = 5) ?(max_iters = 100) ~k prep =
  check_k ~fn:"Kmeans.run" ~k ~n:(Array.length prep.gid);
  { prep;
    best =
      best_of ~seed ~restarts (fun rng -> run_once_pruned rng ~max_iters ~k prep) }

let expand { prep; best } =
  { best with assignments = Array.map (Array.get best.assignments) prep.gid }

(* Only the winner's assignments are expanded to points, so a
   discarded restart costs no O(n) array. *)
let run ?seed ?restarts ?max_iters ~k prep =
  expand (run_grouped ?seed ?restarts ?max_iters ~k prep)

let grouped_distortion g = g.best.distortion

(* [cluster_weights]'s sums in its order (point order), each point's
   cluster read through its group. *)
let grouped_weights { prep; best } =
  let totals = Array.make best.k 0.0 in
  Array.iteri
    (fun i g ->
      let c = best.assignments.(g) in
      totals.(c) <- totals.(c) +. prep.weights.(i))
    prep.gid;
  totals

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
