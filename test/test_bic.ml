module Kmeans = Cbsp_simpoint.Kmeans
module Bic = Cbsp_simpoint.Bic
module Rng = Cbsp_util.Rng

let uniform n = Array.make n 1.0

let blobs ~k ~per ~seed =
  let rng = Rng.create ~seed in
  Array.init (k * per) (fun i ->
      let c = float_of_int (i / per) *. 20.0 in
      [| c +. Rng.gaussian rng; c +. Rng.gaussian rng |])

(* For data with 3 true clusters, BIC must peak at (or very near) k=3 and
   clearly reject k=1. *)
let test_bic_prefers_true_k () =
  let points = blobs ~k:3 ~per:30 ~seed:3 in
  let weights = uniform 90 in
  let score k =
    let r = Kmeans.run ~k ~restarts:8 (Kmeans.prepare ~weights ~points) in
    Bic.score ~weights ~points r
  in
  let scores = List.map (fun k -> (k, score k)) [ 1; 2; 3; 4; 5; 6 ] in
  let best_k, _ =
    List.fold_left
      (fun (bk, bs) (k, s) -> if s > bs then (k, s) else (bk, bs))
      (0, neg_infinity) scores
  in
  Tutil.check_bool "best k in {3,4}" true (best_k = 3 || best_k = 4);
  let s1 = List.assoc 1 scores and s3 = List.assoc 3 scores in
  Tutil.check_bool "k=3 beats k=1" true (s3 > s1)

let test_pick_k_rule () =
  (* scores: k=1 low, k=3 near max, k=5 max: with fraction 0.9 the
     threshold excludes k=1; smallest k above threshold wins. *)
  let scores = [ (1, 0.0); (3, 95.0); (5, 100.0) ] in
  Tutil.check_int "smallest k above threshold" 3 (Bic.pick_k ~scores ~fraction:0.9);
  Tutil.check_int "fraction 0 picks smallest k overall" 1
    (Bic.pick_k ~scores ~fraction:0.0);
  Tutil.check_int "fraction 1 picks argmax" 5 (Bic.pick_k ~scores ~fraction:1.0)

let test_pick_k_invalid () =
  Alcotest.check_raises "empty scores" (Invalid_argument "Bic.pick_k: no scores")
    (fun () -> ignore (Bic.pick_k ~scores:[] ~fraction:0.9));
  Alcotest.check_raises "bad fraction" (Invalid_argument "Bic.pick_k: bad fraction")
    (fun () -> ignore (Bic.pick_k ~scores:[ (1, 0.0) ] ~fraction:1.5))

let test_score_handles_degenerate () =
  (* identical points: zero distortion must not produce NaN/inf *)
  let points = Array.make 10 [| 1.0; 1.0 |] in
  let weights = uniform 10 in
  let r = Kmeans.run ~k:2 (Kmeans.prepare ~weights ~points) in
  let s = Bic.score ~weights ~points r in
  Tutil.check_bool "finite score" true (Float.is_finite s)

let test_weighted_scores_scale () =
  (* doubling all weights must not change which k the rule picks *)
  let points = blobs ~k:2 ~per:25 ~seed:7 in
  let weights = uniform 50 in
  let heavier = Array.map (fun w -> w *. 2.0) weights in
  let pick ws =
    let scores =
      List.map
        (fun k ->
          let r = Kmeans.run ~k ~restarts:8 (Kmeans.prepare ~weights:ws ~points) in
          (k, Bic.score ~weights:ws ~points r))
        [ 1; 2; 3; 4 ]
    in
    Bic.pick_k ~scores ~fraction:0.9
  in
  Tutil.check_int "same k under weight scaling" (pick weights) (pick heavier)

let () =
  Alcotest.run "bic"
    [ ( "bic",
        [ Tutil.quick "prefers true k" test_bic_prefers_true_k;
          Tutil.quick "pick_k rule" test_pick_k_rule;
          Tutil.quick "pick_k invalid" test_pick_k_invalid;
          Tutil.quick "degenerate data" test_score_handles_degenerate;
          Tutil.quick "weight scaling" test_weighted_scores_scale ] ) ]
