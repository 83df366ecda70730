module Stats = Cbsp_util.Stats

type rep_policy = Centroid | Early of float

type k_search = All_k | Binary_search

type config = {
  max_k : int;
  dims : int;
  bic_fraction : float;
  restarts : int;
  max_iters : int;
  seed : int;
  rep_policy : rep_policy;
  k_search : k_search;
}

let default_config =
  { max_k = 10; dims = 15; bic_fraction = 0.9; restarts = 5; max_iters = 100;
    seed = 2007; rep_policy = Centroid; k_search = All_k }

type sim_point = { phase : int; rep : int; weight : float }

type t = {
  k : int;
  phase_of : int array;
  points : sim_point array;
  bic_scores : (int * float) list;
}

(* Per-cluster representative under the Early policy: the lowest interval
   index whose distance to the centroid is within (1+tol) of the cluster's
   best distance.  With tol = 0 this still prefers the earliest among
   exact ties, which is the PACT'03 behaviour. *)
let early_reps (result : Kmeans.result) ~points ~tolerance =
  let k = result.Kmeans.k in
  let best_d = Array.make k infinity in
  Array.iteri
    (fun i p ->
      let c = result.Kmeans.assignments.(i) in
      let d = Stats.sq_distance p result.Kmeans.centroids.(c) in
      if d < best_d.(c) then best_d.(c) <- d)
    points;
  let slack = (1.0 +. tolerance) ** 2.0 in
  let reps = Array.make k (-1) in
  Array.iteri
    (fun i p ->
      let c = result.Kmeans.assignments.(i) in
      if reps.(c) < 0 then begin
        let d = Stats.sq_distance p result.Kmeans.centroids.(c) in
        if d <= best_d.(c) *. slack +. 1e-12 then reps.(c) <- i
      end)
    points;
  reps

let pick_projected ?(config = default_config) ~weights ~points () =
  let n = Array.length points in
  if n = 0 then invalid_arg "Simpoint.pick_projected: no intervals";
  if Array.length weights <> n then invalid_arg "Simpoint.pick_projected: weights mismatch";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) then invalid_arg "Simpoint.pick_projected: non-finite weight";
      if w <= 0.0 then invalid_arg "Simpoint.pick_projected: non-positive weight")
    weights;
  let max_k = min config.max_k n in
  let prepared = Kmeans.prepare ~weights ~points in
  (* Memoized clustering per k, so the two search strategies share code.
     Each k keeps its assignments per distinct point; only the chosen k
     is expanded to one per point. *)
  let cache = Hashtbl.create 16 in
  let cluster_at k =
    match Hashtbl.find_opt cache k with
    | Some entry -> entry
    | None ->
      let grouped =
        Kmeans.run_grouped ~seed:(config.seed + k) ~restarts:config.restarts
          ~max_iters:config.max_iters ~k prepared
      in
      let score = Bic.score_grouped ~weights ~points grouped in
      Hashtbl.add cache k (grouped, score);
      (grouped, score)
  in
  let chosen_k =
    match config.k_search with
    | All_k ->
      let scores =
        List.init max_k (fun i ->
            let k = i + 1 in
            (k, snd (cluster_at k)))
      in
      Bic.pick_k ~scores ~fraction:config.bic_fraction
    | Binary_search ->
      (* Bracket the BIC range with k=1 and k=max_k, then find the
         smallest k whose score clears the threshold. *)
      let _, s_lo = cluster_at 1 in
      let _, s_hi = cluster_at max_k in
      let lo_score = Float.min s_lo s_hi and hi_score = Float.max s_lo s_hi in
      let threshold =
        lo_score +. (config.bic_fraction *. (hi_score -. lo_score))
      in
      let rec search lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          let _, s = cluster_at mid in
          if s >= threshold then search lo mid else search (mid + 1) hi
        end
      in
      search 1 max_k
  in
  let result = Kmeans.expand (fst (cluster_at chosen_k)) in
  let reps =
    match config.rep_policy with
    | Centroid -> Kmeans.closest_to_centroid result ~points
    | Early tolerance -> early_reps result ~points ~tolerance
  in
  let mass = Kmeans.cluster_weights result ~weights in
  let total = Stats.sum weights in
  let sim_points =
    Array.init chosen_k (fun c ->
        { phase = c; rep = reps.(c); weight = mass.(c) /. total })
  in
  (* Drop phantom phases (duplicate centroids can leave a cluster with no
     members); renumber so phase ids stay dense. *)
  let live = Array.to_list sim_points |> List.filter (fun p -> p.rep >= 0) in
  let renumber = Hashtbl.create 8 in
  List.iteri (fun i p -> Hashtbl.add renumber p.phase i) live;
  let points_arr =
    Array.of_list (List.mapi (fun i p -> { p with phase = i }) live)
  in
  let phase_of =
    Array.map (fun c -> Hashtbl.find renumber c) result.Kmeans.assignments
  in
  let bic_scores =
    Hashtbl.fold (fun k (_, s) acc -> (k, s) :: acc) cache []
    |> List.sort compare
  in
  { k = Array.length points_arr; phase_of; points = points_arr; bic_scores }

(* The projection a streaming collector applies to each normalized BBV
   to feed [pick_projected]. *)
let projection_for ?(config = default_config) ~in_dim () =
  Projection.create ~seed:config.seed ~in_dim
    ~out_dim:(min config.dims in_dim)
