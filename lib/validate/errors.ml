module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Stats = Cbsp_util.Stats

type kind =
  | Cpi of string
  | Speedup of string * string

type cell = {
  cl_workload : string;
  cl_method : string;
  cl_kind : kind;
  cl_truth : float;
  cl_estimate : float;
  cl_error : float;
}

let is_skipped c = not (Float.is_finite c.cl_error)

let kind_name = function
  | Cpi label -> "cpi/" ^ label
  | Speedup (a, b) -> Printf.sprintf "speedup/%s->%s" a b

let cpi_cells ~workload records =
  List.map
    (fun (r : Pipeline.estimate_record) ->
      let truth = r.Pipeline.er_truth.Pipeline.t_cpi in
      { cl_workload = workload; cl_method = r.Pipeline.er_method;
        cl_kind = Cpi r.Pipeline.er_label; cl_truth = truth;
        cl_estimate = r.Pipeline.er_est_cpi;
        cl_error = Stats.relative_error ~truth ~estimate:r.Pipeline.er_est_cpi })
    records

let speedup_cells ~workload ~pairs records =
  let methods =
    List.fold_left
      (fun acc (r : Pipeline.estimate_record) ->
        if List.mem r.Pipeline.er_method acc then acc
        else acc @ [ r.Pipeline.er_method ])
      [] records
  in
  let find m label =
    List.find_opt
      (fun (r : Pipeline.estimate_record) ->
        r.Pipeline.er_method = m && r.Pipeline.er_label = label)
      records
  in
  List.concat_map
    (fun m ->
      List.filter_map
        (fun (a, b) ->
          match (find m a, find m b) with
          | Some ra, Some rb ->
            let truth =
              Metrics.ratio ra.Pipeline.er_truth.Pipeline.t_cycles
                rb.Pipeline.er_truth.Pipeline.t_cycles
            in
            let estimate =
              Metrics.ratio ra.Pipeline.er_est_cycles rb.Pipeline.er_est_cycles
            in
            Some
              { cl_workload = workload; cl_method = m;
                cl_kind = Speedup (a, b); cl_truth = truth;
                cl_estimate = estimate;
                cl_error = Stats.relative_error ~truth ~estimate }
          | _ -> None)
        pairs)
    methods
