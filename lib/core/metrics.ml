module Stats = Cbsp_util.Stats

let ratio num den = if den = 0.0 then Float.nan else num /. den

let true_speedup (a : Pipeline.binary_result) (b : Pipeline.binary_result) =
  ratio a.Pipeline.br_truth.Pipeline.t_cycles b.Pipeline.br_truth.Pipeline.t_cycles

let estimated_speedup (a : Pipeline.binary_result) (b : Pipeline.binary_result) =
  ratio a.Pipeline.br_est_cycles b.Pipeline.br_est_cycles

let speedup_error a b =
  Stats.relative_error ~truth:(true_speedup a b) ~estimate:(estimated_speedup a b)

let pair_error results ~a ~b =
  let ra = Pipeline.find_binary results ~label:a in
  let rb = Pipeline.find_binary results ~label:b in
  speedup_error ra rb

let phase_bias (ph : Pipeline.phase_stat) =
  if ph.Pipeline.ph_true_cpi = 0.0 then 0.0
  else
    Stats.signed_relative_error ~truth:ph.Pipeline.ph_true_cpi
      ~estimate:ph.Pipeline.ph_sp_cpi

let top_phases (r : Pipeline.binary_result) ~n =
  let phases = Array.to_list r.Pipeline.br_phases in
  let sorted =
    List.sort
      (fun x y -> compare y.Pipeline.ph_weight x.Pipeline.ph_weight)
      phases
  in
  List.filteri (fun i _ -> i < n) sorted
