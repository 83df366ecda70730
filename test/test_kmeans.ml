module Kmeans = Cbsp_simpoint.Kmeans
module Stats = Cbsp_util.Stats
module Rng = Cbsp_util.Rng

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
  let r = Kmeans.run ~k:1 ~weights ~points () in
  Tutil.check_close ~eps:1e-9 "weighted centroid x" 3.0 r.Kmeans.centroids.(0).(0);
  Tutil.check_close ~eps:1e-9 "weighted centroid y" 0.0 r.Kmeans.centroids.(0).(1)

let test_recovers_blobs () =
  let points = blobs () in
  let r = Kmeans.run ~k:3 ~weights:(uniform 60) ~points () in
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
  let r = Kmeans.run ~k:3 ~weights:(uniform 60) ~points () in
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
  let d k = (Kmeans.run ~k ~weights ~points ~restarts:8 ()).Kmeans.distortion in
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
  let r1 = Kmeans.run ~seed:21 ~k:3 ~weights ~points () in
  let r2 = Kmeans.run ~seed:21 ~k:3 ~weights ~points () in
  Alcotest.(check (array int)) "same assignments" r1.Kmeans.assignments
    r2.Kmeans.assignments

let test_k_equals_n () =
  let points = [| [| 0.0 |]; [| 5.0 |]; [| 9.0 |] |] in
  let r = Kmeans.run ~k:3 ~weights:(uniform 3) ~points () in
  Tutil.check_close ~eps:1e-9 "k=n distortion 0" 0.0 r.Kmeans.distortion

let test_duplicate_points () =
  let points = Array.make 10 [| 1.0; 2.0 |] in
  let r = Kmeans.run ~k:3 ~weights:(uniform 10) ~points () in
  Tutil.check_close ~eps:1e-9 "identical points, zero distortion" 0.0
    r.Kmeans.distortion

let test_invalid_args () =
  let points = [| [| 0.0 |] |] in
  Alcotest.check_raises "k too big" (Invalid_argument "Kmeans.run: k out of range")
    (fun () -> ignore (Kmeans.run ~k:2 ~weights:(uniform 1) ~points ()));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Kmeans.run: non-positive weight") (fun () ->
      ignore (Kmeans.run ~k:1 ~weights:[| 0.0 |] ~points ()));
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.run: no points")
    (fun () -> ignore (Kmeans.run ~k:1 ~weights:[||] ~points:[||] ()));
  Alcotest.check_raises "ragged" (Invalid_argument "Kmeans.run: ragged points")
    (fun () ->
      ignore
        (Kmeans.run ~k:1 ~weights:(uniform 2)
           ~points:[| [| 0.0 |]; [| 0.0; 1.0 |] |]
           ()))

let test_cluster_weights () =
  let points = blobs () in
  let weights = Array.init 60 (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let r = Kmeans.run ~k:3 ~weights ~points () in
  let cw = Kmeans.cluster_weights r ~weights in
  Tutil.check_close ~eps:1e-6 "cluster weights conserve mass" (Stats.sum weights)
    (Stats.sum cw)

let test_closest_to_centroid () =
  let points = blobs () in
  let weights = uniform 60 in
  let r = Kmeans.run ~k:3 ~weights ~points () in
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
      let r = Kmeans.run ~seed ~k:3 ~weights ~points ~max_iters:200 () in
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

let prop_pruned_parallel_matches_reference =
  (* The tentpole bit-identity claim: the Hamerly-pruned, domain-parallel
     clustering returns EXACTLY the plain-Lloyd reference result —
     assignments, centroids, distortion and iteration count — for any
     worker count. *)
  QCheck.Test.make ~name:"pruned/parallel k-means = reference Lloyd" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 2 6))
    (fun (seed, k) ->
      let rng = Rng.create ~seed:(seed + 7_000) in
      let n = 40 + Rng.int rng ~bound:80 in
      let dims = 2 + Rng.int rng ~bound:6 in
      let points =
        Array.init n (fun _ ->
            Array.init dims (fun _ -> 20.0 *. (Rng.float rng -. 0.5)))
      in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      let reference =
        Kmeans.run_reference ~seed ~k ~weights ~points ~restarts:2 ()
      in
      List.for_all
        (fun jobs ->
          let r = Kmeans.run ~seed ~k ~weights ~points ~restarts:2 ~jobs () in
          r.Kmeans.assignments = reference.Kmeans.assignments
          && r.Kmeans.centroids = reference.Kmeans.centroids
          && r.Kmeans.distortion = reference.Kmeans.distortion
          && r.Kmeans.iterations = reference.Kmeans.iterations)
        [ 1; 2; 4 ])

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
          Tutil.quick "invalid args" test_invalid_args ] );
      ( "selection",
        [ Tutil.quick "cluster weights" test_cluster_weights;
          Tutil.quick "closest to centroid" test_closest_to_centroid ] );
      ( "properties",
        [ Tutil.qcheck_case prop_weighted_centroid_invariant;
          Tutil.qcheck_case prop_pruned_parallel_matches_reference ] ) ]
