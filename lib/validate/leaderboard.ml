module Stats = Cbsp_util.Stats
module Jsonx = Cbsp_json.Jsonx
module Config = Cbsp_compiler.Config
module Pipeline = Cbsp.Pipeline
module Sampler = Cbsp_sampling.Sampler

type agg = {
  a_mean : float;
  a_max : float;
  a_p50 : float;
  a_p90 : float;
  a_ci_lo : float;
  a_ci_hi : float;
  a_n : int;
  a_skipped : int;
}

type calibration = {
  c_runs : int;
  c_coverage : float;
  c_mean_rel_half : float;
  c_mean_cost_fraction : float;
  c_speedup_coverage : float;
}

type method_row = {
  r_method : string;
  r_cpi : agg;
  r_speedup : agg;
  r_calibration : calibration option;
}

type coverage = {
  cov_expected : int;
  cov_evaluated : int;
  cov_skipped : int;
  cov_failed : int;
}

type t = {
  lb_rows : method_row list;
  lb_coverage : coverage;
}

let empty_agg ~skipped =
  { a_mean = Float.nan; a_max = Float.nan; a_p50 = Float.nan;
    a_p90 = Float.nan; a_ci_lo = Float.nan; a_ci_hi = Float.nan; a_n = 0;
    a_skipped = skipped }

let aggregate errors =
  let finite = List.filter Float.is_finite errors in
  let skipped = List.length errors - List.length finite in
  match finite with
  | [] -> empty_agg ~skipped
  | _ ->
    let arr = Array.of_list finite in
    let ci_lo, ci_hi =
      (* Student-t needs two samples; a single-cell aggregate keeps its
         mean but reports no interval. *)
      if Array.length arr >= 2 then Stats.confidence_interval arr
      else (Float.nan, Float.nan)
    in
    { a_mean = Stats.mean arr;
      a_max = Array.fold_left Float.max Float.neg_infinity arr;
      a_p50 = Stats.percentile arr ~p:50.0;
      a_p90 = Stats.percentile arr ~p:90.0;
      a_ci_lo = ci_lo; a_ci_hi = ci_hi; a_n = Array.length arr;
      a_skipped = skipped }

(* --- CI calibration of the samplers ------------------------------- *)

(* Share of [true]s; nan for no trials. *)
let share hits =
  if hits = [] then Float.nan
  else
    float_of_int (List.length (List.filter Fun.id hits))
    /. float_of_int (List.length hits)

(* Mean of the finite values; nan when there are none. *)
let mean_finite xs =
  match List.filter Float.is_finite xs with
  | [] -> Float.nan
  | finite -> Stats.mean (Array.of_list finite)

let calibrate results ~method_ =
  let open Pipeline in
  (* Every (workload, binary, seed) run of [method_], with its truth. *)
  let runs_of sb =
    match List.find_opt (fun mr -> mr.mr_method = method_) sb.sb_methods with
    | Some mr -> List.map (fun r -> (sb.sb_truth, r.sr_estimate)) mr.mr_runs
    | None -> []
  in
  let runs =
    List.concat_map (fun res -> List.concat_map runs_of res.smp_binaries) results
  in
  let over f = List.map (fun (t, e) -> f t e) runs in
  (* The paper's pairs, the same seed on both binaries; a pair whose
     labels are absent has no trial, and a nan CI contains nothing. *)
  let speedup_hits res (a, b) seed =
    match sampling_speedup res ~a ~b ~method_ ~seed with
    | exception Not_found -> []
    | r ->
      let cycles label = (find_sampling_binary res ~label).sb_truth.t_cycles in
      let truth = cycles a /. cycles b in
      [ truth >= r.Sampler.r_point -. r.Sampler.r_half
        && truth <= r.Sampler.r_point +. r.Sampler.r_half ]
  in
  { c_runs = List.length runs;
    c_coverage = share (over (fun t e -> Sampler.covers e ~truth:t.t_cpi));
    c_mean_rel_half =
      mean_finite (over (fun t e -> e.Sampler.e_half /. t.t_cpi));
    c_mean_cost_fraction =
      mean_finite
        (over (fun t e -> e.Sampler.e_cost_insts /. float_of_int t.t_insts));
    c_speedup_coverage =
      share
        (List.concat_map
           (fun res ->
             List.concat_map
               (fun pair ->
                 List.concat_map (speedup_hits res pair) res.smp_seeds)
               Matrix.pairs)
           results) }

let n_labels = List.length (Config.paper_four ~loop_splitting:false ())

let quantities_per_method = n_labels + List.length Matrix.pairs

let build matrix =
  let cells = Matrix.cells matrix in
  let sampling =
    List.filter_map Matrix.sampling matrix.Matrix.m_workloads
  in
  let row m =
    let mine =
      List.filter (fun c -> c.Errors.cl_method = m) cells
    in
    let errs_of p =
      List.filter_map
        (fun c -> if p c.Errors.cl_kind then Some c.Errors.cl_error else None)
        mine
    in
    { r_method = m;
      r_cpi = aggregate (errs_of (function Errors.Cpi _ -> true | _ -> false));
      r_speedup =
        aggregate (errs_of (function Errors.Speedup _ -> true | _ -> false));
      r_calibration =
        (if List.mem m Pipeline.sampling_methods then
           Some (calibrate sampling ~method_:m)
         else None) }
  in
  let rows = List.map row Matrix.methods in
  (* Rank by mean CPI error, best first; a method with no finite cells
     (mean nan) sinks to the bottom; ties break on the method name so
     the order is total and deterministic. *)
  let sort_key r =
    if Float.is_nan r.r_cpi.a_mean then Float.infinity else r.r_cpi.a_mean
  in
  let rows =
    List.stable_sort
      (fun r1 r2 ->
        match Float.compare (sort_key r1) (sort_key r2) with
        | 0 -> String.compare r1.r_method r2.r_method
        | c -> c)
      rows
  in
  let n_workloads = List.length matrix.Matrix.m_workloads in
  let failed_methods =
    List.fold_left
      (fun acc w -> acc + List.length w.Matrix.w_failed)
      0 matrix.Matrix.m_workloads
  in
  let evaluated =
    List.length (List.filter (fun c -> not (Errors.is_skipped c)) cells)
  in
  let coverage =
    { cov_expected =
        n_workloads * List.length Matrix.methods * quantities_per_method;
      cov_evaluated = evaluated;
      cov_skipped = List.length cells - evaluated;
      cov_failed = failed_methods * quantities_per_method }
  in
  { lb_rows = rows; lb_coverage = coverage }

let find t ~method_ = List.find (fun r -> r.r_method = method_) t.lb_rows

(* --- cbsp-validate/1 ---------------------------------------------- *)

let json_of_agg a =
  Jsonx.Obj
    [ ("mean", Jsonx.Num a.a_mean); ("max", Jsonx.Num a.a_max);
      ("p50", Jsonx.Num a.a_p50); ("p90", Jsonx.Num a.a_p90);
      ("ci_lo", Jsonx.Num a.a_ci_lo); ("ci_hi", Jsonx.Num a.a_ci_hi);
      ("n", Jsonx.Num (float_of_int a.a_n));
      ("skipped", Jsonx.Num (float_of_int a.a_skipped)) ]

let json_of_calibration c =
  Jsonx.Obj
    [ ("runs", Jsonx.Num (float_of_int c.c_runs));
      ("coverage", Jsonx.Num c.c_coverage);
      ("mean_rel_half", Jsonx.Num c.c_mean_rel_half);
      ("mean_cost_fraction", Jsonx.Num c.c_mean_cost_fraction);
      ("speedup_coverage", Jsonx.Num c.c_speedup_coverage) ]

let json_of_cell (c : Errors.cell) =
  Jsonx.Obj
    [ ("workload", Jsonx.Str c.Errors.cl_workload);
      ("method", Jsonx.Str c.Errors.cl_method);
      ("kind", Jsonx.Str (Errors.kind_name c.Errors.cl_kind));
      ("truth", Jsonx.Num c.Errors.cl_truth);
      ("estimate", Jsonx.Num c.Errors.cl_estimate);
      ("error", Jsonx.Num c.Errors.cl_error) ]

let to_json ?(mode = "full") matrix t =
  let o = matrix.Matrix.m_options in
  (* m_jobs is deliberately absent: the document must be byte-identical
     for every scheduler width. *)
  Jsonx.Obj
    [ ("schema", Jsonx.Str "cbsp-validate/1");
      ("mode", Jsonx.Str mode);
      ( "options",
        Jsonx.Obj
          [ ("target", Jsonx.Num (float_of_int o.Matrix.mo_target));
            ("scale", Jsonx.Num (float_of_int o.Matrix.mo_scale));
            ("seed", Jsonx.Num (float_of_int o.Matrix.mo_seed));
            ("max_k", Jsonx.Num (float_of_int o.Matrix.mo_max_k));
            ("level", Jsonx.Num o.Matrix.mo_level);
            ("sample_n", Jsonx.Num (float_of_int o.Matrix.mo_sample_n));
            ( "sample_seeds",
              Jsonx.List
                (List.map
                   (fun s -> Jsonx.Num (float_of_int s))
                   o.Matrix.mo_sample_seeds) ) ] );
      ( "workloads",
        Jsonx.List
          (List.map
             (fun w -> Jsonx.Str w.Matrix.w_name)
             matrix.Matrix.m_workloads) );
      ("methods", Jsonx.List (List.map (fun m -> Jsonx.Str m) Matrix.methods));
      ( "pairs",
        Jsonx.List
          (List.map
             (fun (a, b) -> Jsonx.List [ Jsonx.Str a; Jsonx.Str b ])
             Matrix.pairs) );
      ( "coverage",
        Jsonx.Obj
          [ ("expected", Jsonx.Num (float_of_int t.lb_coverage.cov_expected));
            ("evaluated", Jsonx.Num (float_of_int t.lb_coverage.cov_evaluated));
            ("skipped", Jsonx.Num (float_of_int t.lb_coverage.cov_skipped));
            ("failed", Jsonx.Num (float_of_int t.lb_coverage.cov_failed)) ] );
      ( "leaderboard",
        Jsonx.List
          (List.mapi
             (fun i r ->
               Jsonx.Obj
                 ([ ("rank", Jsonx.Num (float_of_int (i + 1)));
                    ("method", Jsonx.Str r.r_method);
                    ("cpi_error", json_of_agg r.r_cpi);
                    ("speedup_error", json_of_agg r.r_speedup) ]
                 @ Option.fold ~none:[]
                     ~some:(fun c -> [ ("calibration", json_of_calibration c) ])
                     r.r_calibration))
             t.lb_rows) );
      ("cells", Jsonx.List (List.map json_of_cell (Matrix.cells matrix)));
      ( "failures",
        Jsonx.List
          (List.map
             (fun (w, m, reason) ->
               Jsonx.Obj
                 [ ("workload", Jsonx.Str w); ("method", Jsonx.Str m);
                   ("reason", Jsonx.Str reason) ])
             (Matrix.failures matrix)) );
      ( "truth_mismatches",
        Jsonx.List
          (List.map
             (fun (w, m, l) ->
               Jsonx.Obj
                 [ ("workload", Jsonx.Str w); ("method", Jsonx.Str m);
                   ("label", Jsonx.Str l) ])
             (Matrix.truth_mismatches matrix)) ) ]
