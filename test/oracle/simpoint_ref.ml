(* Test-only references for SimPoint's steps 1-5.

   [pick] is the materialized pipeline: every BBV normalized, the whole
   matrix projected, then [Simpoint.pick_projected].  The streaming
   collector ([Cbsp.Streamprof]) normalizes and projects each interval
   as it is emitted, into reused buffers; the points it hands
   [pick_projected] must be the ones [pick] computes, bit for bit.

   [pick_projected_reference] is what [Simpoint.pick_projected] must
   return under the default config (All_k search, Centroid
   representatives): every k clustered by [Kmeans_ref.run_reference]
   and scored by [Bic.score]. *)

module Stats = Cbsp_util.Stats
module Projection = Cbsp_simpoint.Projection
module Simpoint = Cbsp_simpoint.Simpoint
module Kmeans = Cbsp_simpoint.Kmeans
module Bic = Cbsp_simpoint.Bic

(* Scale so the elements sum to 1. *)
let normalize xs =
  let total = Stats.sum xs in
  if total = 0.0 then invalid_arg "Simpoint_ref.normalize: zero sum";
  Array.map (fun x -> x /. total) xs

(* One vector projected into a fresh buffer. *)
let apply p v =
  let out = Array.make (Projection.out_dim p) 0.0 in
  Projection.project_into p v out;
  out

let apply_all p vs = Array.map (apply p) vs

let pick ?(config = Simpoint.default_config) ~weights ~bbvs () =
  let points =
    if Array.length bbvs = 0 then [||]
    else
      let projection =
        Simpoint.projection_for ~config ~in_dim:(Array.length bbvs.(0)) ()
      in
      apply_all projection (Array.map normalize bbvs)
  in
  Simpoint.pick_projected ~config ~weights ~points ()

let pick_projected_reference ~weights ~points =
  let c = Simpoint.default_config in
  let runs =
    List.init (min c.Simpoint.max_k (Array.length points)) (fun i ->
        let k = i + 1 in
        let r =
          Kmeans_ref.run_reference ~seed:(c.Simpoint.seed + k)
            ~restarts:c.Simpoint.restarts ~max_iters:c.Simpoint.max_iters ~k
            ~weights ~points ()
        in
        (k, r, Bic.score ~weights ~points r))
  in
  let bic_scores = List.map (fun (k, _, s) -> (k, s)) runs in
  let chosen = Bic.pick_k ~scores:bic_scores ~fraction:c.Simpoint.bic_fraction in
  let _, r, _ = List.find (fun (k, _, _) -> k = chosen) runs in
  let reps = Kmeans.closest_to_centroid r ~points in
  let mass = Kmeans.cluster_weights r ~weights in
  let total = Stats.sum weights in
  (* Clusters without members have no representative; the rest are
     renumbered densely. *)
  let live = List.filter (fun cl -> reps.(cl) >= 0) (List.init chosen Fun.id) in
  let phase = Array.make chosen (-1) in
  List.iteri (fun i cl -> phase.(cl) <- i) live;
  { Simpoint.k = List.length live;
    phase_of = Array.map (fun cl -> phase.(cl)) r.Kmeans.assignments;
    points =
      Array.of_list
        (List.mapi
           (fun i cl ->
             { Simpoint.phase = i; rep = reps.(cl); weight = mass.(cl) /. total })
           live);
    bic_scores }
