module Stats = Cbsp_util.Stats

let check ~fn ~weights ~points =
  let n = Array.length points in
  if Array.length weights <> n then invalid_arg (fn ^ ": length mismatch");
  if n = 0 then invalid_arg (fn ^ ": no points")

(* BIC of a clustering of [points] from its distortion and per-cluster
   masses (one per cluster). *)
let of_masses ~weights ~points ~distortion cluster_mass =
  let dims = float_of_int (Array.length points.(0)) in
  let k = Array.length cluster_mass in
  let total_weight = Stats.sum weights in
  (* Weighted MLE of the shared spherical variance.  Guard against zero
     distortion (all points identical): the likelihood is then improper,
     so clamp to a tiny variance — every k gives the same clustering and
     the penalty term decides (smallest k wins, as it should). *)
  let denom = Float.max 1e-12 (total_weight -. float_of_int k) in
  let sigma2 = Float.max 1e-12 (distortion /. denom /. dims) in
  let log_lik = ref 0.0 in
  for c = 0 to k - 1 do
    let m = cluster_mass.(c) in
    if m > 0.0 then
      log_lik :=
        !log_lik
        +. (m *. log (m /. total_weight))
        -. (m *. dims /. 2.0 *. log (2.0 *. Float.pi *. sigma2))
        -. ((m -. 1.0) *. dims /. 2.0)
  done;
  let params = float_of_int k *. (dims +. 1.0) in
  !log_lik -. (params /. 2.0 *. log total_weight)

let score ~weights ~points (result : Kmeans.result) =
  check ~fn:"Bic.score" ~weights ~points;
  of_masses ~weights ~points
    ~distortion:result.Kmeans.distortion
    (Kmeans.cluster_weights result ~weights)

let score_grouped ~weights ~points g =
  check ~fn:"Bic.score_grouped" ~weights ~points;
  of_masses ~weights ~points
    ~distortion:(Kmeans.grouped_distortion g) (Kmeans.grouped_weights g)

let pick_k ~scores ~fraction =
  if scores = [] then invalid_arg "Bic.pick_k: no scores";
  if fraction < 0.0 || fraction > 1.0 then invalid_arg "Bic.pick_k: bad fraction";
  let values = List.map snd scores in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max neg_infinity values in
  let threshold = lo +. (fraction *. (hi -. lo)) in
  let eligible = List.filter (fun (_, s) -> s >= threshold) scores in
  let ks = List.map fst eligible in
  List.fold_left min (List.hd ks) ks
