module Stats = Cbsp_util.Stats
module Rng = Cbsp_util.Rng

type estimate = {
  e_method : string;
  e_point : float;
  e_half : float;
  e_level : float;
  e_df : int;
  e_n : int;
  e_population : int;
  e_indices : int array;
  e_weights : float array;
  e_cost_insts : float;
}

let ci_lo e = e.e_point -. e.e_half

let ci_hi e = e.e_point +. e.e_half

let covers e ~truth = truth >= ci_lo e && truth <= ci_hi e

(* ------------------------------------------------------------------ *)
(* Selection helpers                                                   *)

let live_indices insts =
  let l = ref [] in
  for i = Array.length insts - 1 downto 0 do
    if insts.(i) > 0.0 then l := i :: !l
  done;
  Array.of_list !l

let check ~name ~insts ~cycles ~n =
  if Array.length cycles <> Array.length insts then
    invalid_arg (name ^ ": insts/cycles length mismatch");
  if n <= 0 then invalid_arg (name ^ ": sample size must be positive");
  let live = live_indices insts in
  if Array.length live = 0 then invalid_arg (name ^ ": no non-empty intervals");
  live

(* Partial Fisher-Yates: an SRS without replacement of [n] entries of
   [pool], returned ascending. *)
let take_srs rng ~n pool =
  let a = Array.copy pool in
  let len = Array.length a in
  for j = 0 to n - 1 do
    let k = j + Rng.int rng ~bound:(len - j) in
    let t = a.(j) in
    a.(j) <- a.(k);
    a.(k) <- t
  done;
  let s = Array.sub a 0 n in
  Array.sort compare s;
  s

(* ------------------------------------------------------------------ *)
(* The ratio estimator and its variance                                *)

(* (sizes, costs, size sum, ratio) of a selection of original indices. *)
let ratio_parts ~insts ~cycles sel =
  let m = Array.map (fun i -> insts.(i)) sel in
  let c = Array.map (fun i -> cycles.(i)) sel in
  let msum = Stats.sum m in
  (m, c, msum, Stats.sum c /. msum)

(* Ratio-estimator variance for a size-n SRS (without replacement) from
   a [pop]-interval population: residual technique with finite-population
   correction.  [None] when no variance can be estimated (a single
   sample with part of the population unsampled). *)
let residual_variance ~pop (m, c, msum, r) =
  let n = Array.length m in
  let fpc = 1.0 -. (float_of_int n /. float_of_int pop) in
  if fpc <= 0.0 then Some 0.0
  else if n < 2 then None
  else begin
    let d = Array.init n (fun j -> c.(j) -. (r *. m.(j))) in
    let s2 = Stats.sample_variance d in
    let mbar = msum /. float_of_int n in
    Some (fpc *. s2 /. (float_of_int n *. mbar *. mbar))
  end

let simple_estimate ~method_ ~level ~pop ~insts ~cycles sel =
  let ((m, _, msum, r) as parts) = ratio_parts ~insts ~cycles sel in
  let n = Array.length sel in
  let df = max 1 (n - 1) in
  let half =
    match residual_variance ~pop parts with
    | Some v -> Stats.t_quantile ~df ~level *. sqrt v
    | None -> Float.infinity
  in
  { e_method = method_; e_point = r; e_half = half; e_level = level;
    e_df = df; e_n = n; e_population = pop; e_indices = sel;
    e_weights = Array.map (fun mi -> mi /. msum) m; e_cost_insts = msum }

(* ------------------------------------------------------------------ *)
(* The three samplers                                                  *)

let srs ?(level = 0.95) ~rng ~n ~insts ~cycles () =
  let live = check ~name:"Sampler.srs" ~insts ~cycles ~n in
  let pop = Array.length live in
  let n = min n pop in
  simple_estimate ~method_:"srs" ~level ~pop ~insts ~cycles
    (take_srs rng ~n live)

let systematic ?(level = 0.95) ~rng ~n ~insts ~cycles () =
  let live = check ~name:"Sampler.systematic" ~insts ~cycles ~n in
  let pop = Array.length live in
  let n = min n pop in
  (* Every step-th live interval from a random fractional start; step >= 1
     so the floored positions are strictly increasing (all distinct). *)
  let step = float_of_int pop /. float_of_int n in
  let start = Rng.float rng *. step in
  let sel =
    Array.init n (fun k ->
        live.(min (pop - 1) (int_of_float (start +. (float_of_int k *. step)))))
  in
  simple_estimate ~method_:"systematic" ~level ~pop ~insts ~cycles sel

let stratified ?(level = 0.95) ?(name = "stratified") ?proxy ~rng ~n ~strata
    ~insts ~cycles () =
  let fname = "Sampler." ^ name in
  let live = check ~name:fname ~insts ~cycles ~n in
  if Array.length strata <> Array.length insts then
    invalid_arg (fname ^ ": strata length mismatch");
  (match proxy with
   | Some p when Array.length p <> Array.length insts ->
     invalid_arg (fname ^ ": proxy length mismatch")
   | _ -> ());
  let pop = Array.length live in
  let n = min n pop in
  (* Group live intervals by stratum label, dropping labels no live
     interval carries. *)
  let max_label =
    Array.fold_left
      (fun acc i ->
        if strata.(i) < 0 then invalid_arg (fname ^ ": negative stratum label");
        max acc strata.(i))
      0 live
  in
  let buckets = Array.make (max_label + 1) [] in
  for j = Array.length live - 1 downto 0 do
    let i = live.(j) in
    buckets.(strata.(i)) <- i :: buckets.(strata.(i))
  done;
  let groups =
    Array.of_list
      (List.filter_map
         (fun b -> if b = [] then None else Some (Array.of_list b))
         (Array.to_list buckets))
  in
  let h = Array.length groups in
  (* Every stratum must be sampled at least once or its weight share is
     lost, so the budget is raised to the stratum count when below it. *)
  let n = max n h in
  (* Phase-1 knowledge: exact per-stratum instruction shares, and the
     proxy spread that drives Neyman allocation. *)
  let stratum_insts =
    Array.map (fun g -> Stats.sum (Array.map (fun i -> insts.(i)) g)) groups
  in
  let total_insts = Stats.sum stratum_insts in
  let w = Array.map (fun m -> m /. total_insts) stratum_insts in
  let spread =
    match proxy with
    | None -> Array.make h 1.0
    | Some p ->
      Array.map (fun g -> Stats.stddev (Array.map (fun i -> p.(i)) g)) groups
  in
  let scores = Array.init h (fun j -> w.(j) *. spread.(j)) in
  let scores =
    if Array.for_all (fun s -> s <= 0.0) scores then w else scores
  in
  let alloc =
    Strata.allocate ~scores ~sizes:(Array.map Array.length groups) ~total:n
  in
  (* Sample each stratum by SRS and combine: point = sum_h W_h R_h,
     variance = sum_h W_h^2 Var_h, weights scaled by W_h within each
     stratum's sample. *)
  let point = ref 0.0 in
  let var = ref 0.0 in
  let inestimable = ref false in
  (* Satterthwaite's effective df: (sum g_h)^2 / sum g_h^2/(n_h - 1) with
     g_h = W_h^2 Var_h.  Sum_h (n_h - 1) overstates the df when one
     stratum dominates the variance (its few samples are all the
     information there is), which makes the t quantile too small and the
     intervals undercover. *)
  let gsum = ref 0.0 in
  let gdenom = ref 0.0 in
  let cost = ref 0.0 in
  let weighted = ref [] in
  for j = 0 to h - 1 do
    let sel = take_srs rng ~n:alloc.(j) groups.(j) in
    let ((m, _, msum, r) as parts) = ratio_parts ~insts ~cycles sel in
    point := !point +. (w.(j) *. r);
    (match residual_variance ~pop:(Array.length groups.(j)) parts with
     | Some v ->
       let g = w.(j) *. w.(j) *. v in
       var := !var +. g;
       if g > 0.0 then begin
         (* g > 0 implies n_h >= 2 (a single-sample stratum is either a
            census, v = 0, or inestimable). *)
         gsum := !gsum +. g;
         gdenom := !gdenom +. (g *. g /. float_of_int (Array.length sel - 1))
       end
     | None -> inestimable := true);
    cost := !cost +. msum;
    Array.iteri
      (fun k i -> weighted := (i, w.(j) *. m.(k) /. msum) :: !weighted)
      sel
  done;
  let pairs = Array.of_list !weighted in
  Array.sort compare pairs;
  let df =
    if !gdenom <= 0.0 then 1
    else max 1 (int_of_float (!gsum *. !gsum /. !gdenom))
  in
  let half =
    if !inestimable then Float.infinity
    else Stats.t_quantile ~df ~level *. sqrt !var
  in
  { e_method = name; e_point = !point; e_half = half; e_level = level;
    e_df = df; e_n = Array.length pairs; e_population = pop;
    e_indices = Array.map fst pairs; e_weights = Array.map snd pairs;
    e_cost_insts = !cost }

(* ------------------------------------------------------------------ *)
(* Cross-binary speedup                                                *)

type ratio_ci = { r_point : float; r_half : float; r_level : float }

let speedup ~a ~insts_a ~b ~insts_b =
  if a.e_level <> b.e_level then invalid_arg "Sampler.speedup: level mismatch";
  if not (a.e_point > 0.0 && b.e_point > 0.0) then
    { r_point = Float.nan; r_half = Float.nan; r_level = a.e_level }
  else
    let point = a.e_point *. insts_a /. (b.e_point *. insts_b) in
    let rel e = e.e_half /. e.e_point in
    let rel_half = sqrt ((rel a *. rel a) +. (rel b *. rel b)) in
    { r_point = point; r_half = point *. rel_half; r_level = a.e_level }
