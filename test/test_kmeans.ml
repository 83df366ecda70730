module Kmeans = Cbsp_simpoint.Kmeans
module Stats = Cbsp_util.Stats
module Rng = Cbsp_util.Rng
module Kmeans_ref = Cbsp_oracle.Kmeans_ref

let uniform n = Array.make n 1.0

(* Three well-separated 2-D blobs with [per] points each. *)
let blobs ?(per = 20) ?(seed = 5) () =
  let rng = Rng.create ~seed in
  let centres = [| (0.0, 0.0); (10.0, 10.0); (-10.0, 10.0) |] in
  let points =
    Array.init (3 * per) (fun i ->
        let cx, cy = centres.(i / per) in
        [| cx +. Rng.gaussian rng; cy +. Rng.gaussian rng |])
  in
  points

let test_k1_centroid_is_weighted_mean () =
  let points = [| [| 0.0; 0.0 |]; [| 4.0; 0.0 |] |] in
  let weights = [| 1.0; 3.0 |] in
  let r = Kmeans.run ~k:1 (Kmeans.prepare ~weights ~points) in
  Tutil.check_close ~eps:1e-9 "weighted centroid x" 3.0 r.Kmeans.centroids.(0).(0);
  Tutil.check_close ~eps:1e-9 "weighted centroid y" 0.0 r.Kmeans.centroids.(0).(1)

let test_recovers_blobs () =
  let points = blobs () in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights:(uniform 60) ~points) in
  (* each blob's 20 points must share one label, and labels must differ *)
  let label_of_blob b = r.Kmeans.assignments.(b * 20) in
  for b = 0 to 2 do
    for i = 0 to 19 do
      Tutil.check_int "blob is one cluster" (label_of_blob b)
        r.Kmeans.assignments.((b * 20) + i)
    done
  done;
  let labels = List.sort_uniq compare [ label_of_blob 0; label_of_blob 1; label_of_blob 2 ] in
  Tutil.check_int "three distinct labels" 3 (List.length labels)

let test_assignment_optimality () =
  let points = blobs ~seed:9 () in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights:(uniform 60) ~points) in
  Array.iteri
    (fun i p ->
      let assigned = Stats.sq_distance p r.Kmeans.centroids.(r.Kmeans.assignments.(i)) in
      Array.iter
        (fun c ->
          if Stats.sq_distance p c < assigned -. 1e-9 then
            Alcotest.fail "point not assigned to nearest centroid")
        r.Kmeans.centroids)
    points

let test_distortion_nonincreasing_in_k () =
  let points = blobs ~seed:13 () in
  let weights = uniform 60 in
  let d k = (Kmeans.run ~k ~restarts:8 (Kmeans.prepare ~weights ~points)).Kmeans.distortion in
  let prev = ref (d 1) in
  List.iter
    (fun k ->
      let cur = d k in
      Tutil.check_bool
        (Printf.sprintf "distortion(k=%d) <= distortion(k-1) (+tolerance)" k)
        true
        (cur <= !prev *. 1.05);
      prev := cur)
    [ 2; 3; 4; 5 ]

let test_deterministic_given_seed () =
  let points = blobs () in
  let weights = uniform 60 in
  let r1 = Kmeans.run ~seed:21 ~k:3 (Kmeans.prepare ~weights ~points) in
  let r2 = Kmeans.run ~seed:21 ~k:3 (Kmeans.prepare ~weights ~points) in
  Alcotest.(check (array int)) "same assignments" r1.Kmeans.assignments
    r2.Kmeans.assignments

let test_k_equals_n () =
  let points = [| [| 0.0 |]; [| 5.0 |]; [| 9.0 |] |] in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights:(uniform 3) ~points) in
  Tutil.check_close ~eps:1e-9 "k=n distortion 0" 0.0 r.Kmeans.distortion

let test_duplicate_points () =
  let points = Array.make 10 [| 1.0; 2.0 |] in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights:(uniform 10) ~points) in
  Tutil.check_close ~eps:1e-9 "identical points, zero distortion" 0.0
    r.Kmeans.distortion

let test_invalid_args () =
  let points = [| [| 0.0 |] |] in
  Alcotest.check_raises "k too big" (Invalid_argument "Kmeans.run: k out of range")
    (fun () -> ignore (Kmeans.run ~k:2 (Kmeans.prepare ~weights:(uniform 1) ~points)));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Kmeans.prepare: non-positive weight") (fun () ->
      ignore (Kmeans.prepare ~weights:[| 0.0 |] ~points));
  (* A nan weight passes [w <= 0.0]; it must not reach the seeding, whose
     nan total would silently pick the last point. *)
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "weight %h" w)
        (Invalid_argument "Kmeans.prepare: non-finite weight")
        (fun () ->
          ignore
            (Kmeans.prepare ~weights:[| 1.0; w |]
               ~points:[| [| 0.0 |]; [| 1.0 |] |])))
    [ nan; infinity; neg_infinity ];
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.prepare: no points")
    (fun () -> ignore (Kmeans.prepare ~weights:[||] ~points:[||]));
  Alcotest.check_raises "ragged" (Invalid_argument "Kmeans.prepare: ragged points")
    (fun () ->
      ignore
        (Kmeans.prepare ~weights:(uniform 2)
           ~points:[| [| 0.0 |]; [| 0.0; 1.0 |] |]));
  Alcotest.check_raises "distances_to ragged"
    (Invalid_argument "Kmeans.distances_to: length mismatch") (fun () ->
      Kmeans.distances_to
        ~points:(Array.init 4 (fun i -> Array.make (if i = 2 then 1 else 2) 0.0))
        [| 0.0; 0.0 |] (Array.make 4 0.0))

let test_cluster_weights () =
  let points = blobs () in
  let weights = Array.init 60 (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights ~points) in
  let cw = Kmeans.cluster_weights r ~weights in
  Tutil.check_close ~eps:1e-6 "cluster weights conserve mass" (Stats.sum weights)
    (Stats.sum cw)

let test_closest_to_centroid () =
  let points = blobs () in
  let weights = uniform 60 in
  let r = Kmeans.run ~k:3 (Kmeans.prepare ~weights ~points) in
  let reps = Kmeans.closest_to_centroid r ~points in
  Array.iteri
    (fun c rep ->
      Tutil.check_bool "rep exists" true (rep >= 0);
      Tutil.check_int "rep belongs to its cluster" c r.Kmeans.assignments.(rep);
      let rep_d = Stats.sq_distance points.(rep) r.Kmeans.centroids.(c) in
      Array.iteri
        (fun i p ->
          if r.Kmeans.assignments.(i) = c then
            Tutil.check_bool "rep is closest member" true
              (rep_d <= Stats.sq_distance p r.Kmeans.centroids.(c) +. 1e-9))
        points)
    reps

let prop_weighted_centroid_invariant =
  (* After convergence, each centroid is the weighted mean of its members. *)
  QCheck.Test.make ~name:"centroids are weighted member means" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let points = blobs ~seed () in
      let weights = Array.init 60 (fun i -> 1.0 +. float_of_int (i mod 5)) in
      let r = Kmeans.run ~seed ~k:3 ~max_iters:200 (Kmeans.prepare ~weights ~points) in
      let ok = ref true in
      for c = 0 to 2 do
        let mass = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
        Array.iteri
          (fun i p ->
            if r.Kmeans.assignments.(i) = c then begin
              mass := !mass +. weights.(i);
              sx := !sx +. (weights.(i) *. p.(0));
              sy := !sy +. (weights.(i) *. p.(1))
            end)
          points;
        if !mass > 0.0 then begin
          let cx = !sx /. !mass and cy = !sy /. !mass in
          if
            Float.abs (cx -. r.Kmeans.centroids.(c).(0)) > 1e-6
            || Float.abs (cy -. r.Kmeans.centroids.(c).(1)) > 1e-6
          then ok := false
        end
      done;
      !ok)

(* Four points per sweep, each with its own accumulator, must still give
   Stats.sq_distance's sum bit for bit, tail (n mod 4) included. *)
let prop_distances_to_bit_identical =
  QCheck.Test.make ~name:"distances_to = Stats.sq_distance, bit for bit"
    ~count:300
    QCheck.(triple (int_range 0 13) (int_range 0 17) (int_range 0 100_000))
    (fun (n, dims, seed) ->
      let rng = Rng.create ~seed in
      let coord () =
        (Rng.float rng -. 0.5) *. (10.0 ** float_of_int (Rng.int rng ~bound:12))
      in
      let points = Array.init n (fun _ -> Array.init dims (fun _ -> coord ())) in
      let c = Array.init dims (fun _ -> coord ()) in
      let out = Array.make n nan in
      Kmeans.distances_to ~points c out;
      Array.for_all2
        (fun p d ->
          Int64.equal (Int64.bits_of_float d)
            (Int64.bits_of_float (Stats.sq_distance p c)))
        points out)

(* The production path must return EXACTLY the plain-Lloyd reference
   result: assignments, centroids and distortion bit for bit (so 0.0 and
   -0.0 differ), and the iteration count. *)
let matches_reference ~seed ~max_iters ~k ~weights ~points =
  let reference =
    Kmeans_ref.run_reference ~seed ~k ~weights ~points ~restarts:2 ~max_iters ()
  in
  let r = Kmeans.run ~seed ~k ~restarts:2 ~max_iters (Kmeans.prepare ~weights ~points) in
  let bits = Array.map (Array.map Int64.bits_of_float) in
  r.Kmeans.assignments = reference.Kmeans.assignments
  && bits r.Kmeans.centroids = bits reference.Kmeans.centroids
  && Int64.equal
       (Int64.bits_of_float r.Kmeans.distortion)
       (Int64.bits_of_float reference.Kmeans.distortion)
  && r.Kmeans.iterations = reference.Kmeans.iterations

(* [n] points of [dims] dimensions drawn from [distinct] distinct ones, so
   [distinct < n] exercises the lowest-index tie-break. *)
let random_points rng ~n ~dims ~distinct =
  let base =
    Array.init distinct (fun _ ->
        Array.init dims (fun _ -> 20.0 *. (Rng.float rng -. 0.5)))
  in
  Array.init n (fun i ->
      Array.copy base.(if i < distinct then i else Rng.int rng ~bound:distinct))

(* The shapes the grouping, the fused seeding and the four-point distance
   kernel branch on: k = 1 and k = 10, one and fifteen dimensions, n
   below four and not a multiple of four (the kernel's tail),
   all-identical points, heavy duplication (n / 20 distinct values) and
   the iteration caps 0 and 1; n = 258 spans two 256-point chunks. *)
let test_edge_shapes_match_reference () =
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          List.iter
            (fun dims ->
              List.iter
                (fun distinct ->
                  List.iter
                    (fun max_iters ->
                      let rng = Rng.create ~seed:(n + (100 * k) + (1000 * dims)) in
                      let points = random_points rng ~n ~dims ~distinct in
                      let weights =
                        Array.init n (fun _ -> 0.5 +. Rng.float rng)
                      in
                      Tutil.check_bool
                        (Printf.sprintf
                           "n=%d k=%d dims=%d distinct=%d max_iters=%d" n k
                           dims distinct max_iters)
                        true
                        (matches_reference ~seed:n ~max_iters ~k ~weights
                           ~points))
                    [ 0; 1; 100 ])
                (List.sort_uniq compare [ 1; max 1 (n / 20); n ]))
            [ 1; 15 ])
        (List.sort_uniq compare [ 1; min n 10 ]))
    [ 1; 2; 3; 4; 5; 7; 13; 258 ]

(* The shapes only grouping creates.  0.0 and -0.0 are equal floats but
   distinct bit patterns: two groups, at the same distance from any
   centroid. *)
let test_signed_zeros_match_reference () =
  let points =
    Array.init 40 (fun i ->
        [| (if i mod 3 = 0 then -0.0 else 0.0); float_of_int (i mod 2) |])
  in
  let weights = Array.init 40 (fun i -> 1.0 +. float_of_int (i mod 7)) in
  Tutil.check_int "zero signs group apart" 4
    (Kmeans.distinct (Kmeans.prepare ~weights ~points));
  List.iter
    (fun k ->
      List.iter
        (fun max_iters ->
          Tutil.check_bool
            (Printf.sprintf "k=%d max_iters=%d" k max_iters)
            true
            (matches_reference ~seed:k ~max_iters ~k ~weights ~points))
        [ 0; 1; 100 ])
    [ 1; 2; 3; 4; 5; 8 ]

(* Fewer distinct values than k: seeding repeats values, so centroids
   duplicate and clusters empty out, and every reseed runs over groups. *)
let test_fewer_distinct_than_k_match_reference () =
  List.iter
    (fun (distinct, n) ->
      let rng = Rng.create ~seed:(distinct + n) in
      let points = random_points rng ~n ~dims:3 ~distinct in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      Tutil.check_int "distinct values" distinct
        (Kmeans.distinct (Kmeans.prepare ~weights ~points));
      for k = distinct + 1 to min n 10 do
        Tutil.check_bool
          (Printf.sprintf "distinct=%d n=%d k=%d" distinct n k)
          true
          (matches_reference ~seed:k ~max_iters:100 ~k ~weights ~points)
      done)
    [ (1, 12); (2, 30); (3, 300); (5, 64) ]

(* A real FLI pass's shape: thousands of intervals whose projected
   points hold 1-3% distinct values. *)
let prop_sparse_distinct_matches_reference =
  QCheck.Test.make ~name:"grouped k-means = reference at 1-3% distinct"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 9_000) in
      let n = 200 + Rng.int rng ~bound:3_500 in
      let distinct = max 1 (n * (1 + Rng.int rng ~bound:3) / 100) in
      let k = 1 + Rng.int rng ~bound:10 in
      let points = random_points rng ~n ~dims:15 ~distinct in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      Kmeans.distinct (Kmeans.prepare ~weights ~points) = distinct
      && matches_reference ~seed ~max_iters:100 ~k ~weights ~points)

let prop_pruned_matches_reference =
  QCheck.Test.make ~name:"pruned k-means = reference Lloyd" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 7_000) in
      let n =
        if Rng.int rng ~bound:4 = 0 then 1 + Rng.int rng ~bound:7
        else 8 + Rng.int rng ~bound:113
      in
      let k = 1 + Rng.int rng ~bound:(min 10 n) in
      let dims = 1 + Rng.int rng ~bound:15 in
      let distinct = if Rng.bool rng then n else 1 + Rng.int rng ~bound:n in
      let max_iters =
        match Rng.int rng ~bound:4 with 0 -> 0 | 1 -> 1 | _ -> 100
      in
      let points = random_points rng ~n ~dims ~distinct in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      matches_reference ~seed ~max_iters ~k ~weights ~points)

(* A result as bytes, so that nan, 0.0 and -0.0 compare by bits. *)
let bits (r : Kmeans.result) = Marshal.to_string r [ Marshal.No_sharing ]

let reused name = Cbsp_obs.Metrics.(value (counter name))

(* One [prepared] serves a whole sweep of k, seeds and iteration caps, so
   its memo carries chunk partials and seedings from call to call; every
   call must still return the reference's result bit for bit.  The 900
   points lie in runs over four 256-point chunks, the layout in which
   member sets and chosen sets recur, and the sweep must reuse both. *)
let test_shared_prepared_matches_reference () =
  let rng = Rng.create ~seed:77 in
  let n = 900 in
  let points = Tutil.layout_points rng ~layout:`Runs ~n ~dims:15 ~values:30 in
  let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
  let prep = Kmeans.prepare ~weights ~points in
  let partials = reused "kmeans.partials_reused"
  and seedings = reused "kmeans.seedings_reused" in
  List.iter
    (fun max_iters ->
      List.iter
        (fun seed ->
          for k = 1 to 10 do
            let reference =
              Kmeans_ref.run_reference ~seed ~k ~restarts:5 ~max_iters ~weights
                ~points ()
            in
            Tutil.check_bool
              (Printf.sprintf "k=%d seed=%d max_iters=%d" k seed max_iters)
              true
              (bits (Kmeans.run ~seed ~k ~restarts:5 ~max_iters prep)
              = bits reference)
          done)
        [ 1; 2; 3 ])
    [ 0; 1; 100 ];
  Tutil.check_bool "partials reused" true
    (reused "kmeans.partials_reused" > partials);
  Tutil.check_bool "seedings reused" true
    (reused "kmeans.seedings_reused" > seedings)

(* A nan coordinate makes distances nan, and nan distances make the
   seeding's strict comparisons depend on the order the centroids were
   chosen in.  Whatever calls came before on the same [prepared], a call
   returns what it returns on a fresh one. *)
let test_nan_point_call_order () =
  let rng = Rng.create ~seed:78 in
  let n = 700 in
  let points = Tutil.layout_points rng ~layout:`Runs ~n ~dims:3 ~values:12 in
  let bad = Array.copy points.(n / 2) in
  Array.iter
    (fun p -> if Kmeans.Bits.equal p bad then p.(1) <- nan)
    points;
  let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
  let calls =
    List.concat_map
      (fun k -> List.map (fun seed -> (k, seed)) [ 4; 5 ])
      [ 1; 2; 3; 5; 8; 10 ]
  in
  let run prep (k, seed) = bits (Kmeans.run ~seed ~k prep) in
  let fresh = List.map (fun c -> run (Kmeans.prepare ~weights ~points) c) calls in
  let shared = Kmeans.prepare ~weights ~points in
  let forward = List.map (run shared) calls in
  let shared = Kmeans.prepare ~weights ~points in
  let backward = List.rev (List.map (run shared) (List.rev calls)) in
  Tutil.check_bool "forward = fresh" true (forward = fresh);
  Tutil.check_bool "backward = fresh" true (backward = fresh)

(* A k sweep scores every k from its grouped result: the cluster masses
   summed through the group map, and the distortion, must be the
   expanded result's bit for bit, and [run] is [expand] of it. *)
let prop_grouped_matches_expanded =
  QCheck.Test.make ~name:"grouped masses = cluster_weights of expand"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 11_000) in
      let n = 1 + Rng.int rng ~bound:600 in
      let k = 1 + Rng.int rng ~bound:(min 10 n) in
      let layout = match Rng.int rng ~bound:3 with
        | 0 -> `Runs | 1 -> `Iid | _ -> `Distinct in
      let points =
        Tutil.layout_points rng ~layout ~n ~dims:(1 + Rng.int rng ~bound:15)
          ~values:(1 + Rng.int rng ~bound:40)
      in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      let prep = Kmeans.prepare ~weights ~points in
      let g = Kmeans.run_grouped ~seed ~k prep in
      let r = Kmeans.expand g in
      let fbits a = Array.map Int64.bits_of_float a in
      fbits (Kmeans.grouped_weights g) = fbits (Kmeans.cluster_weights r ~weights)
      && Int64.bits_of_float (Kmeans.grouped_distortion g)
         = Int64.bits_of_float r.Kmeans.distortion
      && bits r = bits (Kmeans.run ~seed ~k (Kmeans.prepare ~weights ~points)))

let () =
  Alcotest.run "kmeans"
    [ ( "clustering",
        [ Tutil.quick "k=1 weighted mean" test_k1_centroid_is_weighted_mean;
          Tutil.quick "recovers blobs" test_recovers_blobs;
          Tutil.quick "assignment optimality" test_assignment_optimality;
          Tutil.quick "distortion vs k" test_distortion_nonincreasing_in_k;
          Tutil.quick "deterministic" test_deterministic_given_seed;
          Tutil.quick "k = n" test_k_equals_n;
          Tutil.quick "duplicate points" test_duplicate_points;
          Tutil.quick "invalid args" test_invalid_args;
          Tutil.quick "edge shapes = reference" test_edge_shapes_match_reference;
          Tutil.quick "signed zeros = reference" test_signed_zeros_match_reference;
          Tutil.quick "fewer distinct than k = reference"
            test_fewer_distinct_than_k_match_reference;
          Tutil.quick "shared prepared = reference"
            test_shared_prepared_matches_reference;
          Tutil.quick "nan point, any call order" test_nan_point_call_order ] );
      ( "selection",
        [ Tutil.quick "cluster weights" test_cluster_weights;
          Tutil.quick "closest to centroid" test_closest_to_centroid ] );
      ( "properties",
        [ Tutil.qcheck_case prop_weighted_centroid_invariant;
          Tutil.qcheck_case prop_pruned_matches_reference;
          Tutil.qcheck_case prop_sparse_distinct_matches_reference;
          Tutil.qcheck_case prop_grouped_matches_expanded;
          Tutil.qcheck_case prop_distances_to_bit_identical ] ) ]
