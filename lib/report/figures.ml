module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Matrix = Cbsp_validate.Matrix
module Table = Cbsp_validate.Table
module Hierarchy = Cbsp_cache.Hierarchy
module Stats = Cbsp_util.Stats

let table1 ppf =
  let cfg = Hierarchy.paper_table1 in
  let rows =
    List.map
      (fun (l : Hierarchy.level_config) ->
        [ l.Hierarchy.lv_name;
          Fmt.str "%dKB" (l.Hierarchy.lv_capacity / 1024);
          Fmt.str "%d-way" l.Hierarchy.lv_assoc;
          Fmt.str "%d bytes" l.Hierarchy.lv_line;
          Fmt.str "%d cycles" l.Hierarchy.lv_latency; "WriteBack" ])
      cfg.Hierarchy.levels
    @ [ [ "DRAM"; ""; ""; ""; Fmt.str "%d cycles" cfg.Hierarchy.dram_latency; "" ] ]
  in
  Fmt.pf ppf "Table 1: Memory System Configuration@.";
  Table.render
    ~columns:
      [ { Table.header = "Cache Level"; align = Table.Left };
        { header = "Capacity"; align = Table.Right };
        { header = "Associativity"; align = Table.Right };
        { header = "Line Size"; align = Table.Right };
        { header = "Hit Latency"; align = Table.Right };
        { header = "Type"; align = Table.Left } ]
    ~rows ppf

let missing (m : Matrix.t) =
  List.filter_map
    (fun w ->
      match (Matrix.fli w, Matrix.vli w) with
      | Some _, Some _ -> None
      | _ -> Some w.Matrix.w_name)
    m.Matrix.m_workloads

let results (m : Matrix.t) =
  List.map
    (fun w ->
      match (Matrix.fli w, Matrix.vli w) with
      | Some fli, Some vli -> (w.Matrix.w_name, fli, vli)
      | _ ->
        invalid_arg
          (Printf.sprintf "Figures: %s lacks its FLI or VLI result"
             w.Matrix.w_name))
    m.Matrix.m_workloads

type series = {
  csv : string;
  chart : string;
  value : Pipeline.fli_result -> Pipeline.vli_result -> float;
}

type figure = {
  name : string;
  title : target:int -> string;
  unit_label : string;
  fmt_value : float -> string;
  series : series list;
}

let mean_over f binaries = Stats.mean (Array.of_list (List.map f binaries))

(* The FLI and VLI series of a per-binary quantity averaged over the
   four binaries, as Figures 1 and 3 plot it. *)
let both ~csv f =
  [ { csv = "fli_" ^ csv; chart = "FLI";
      value = (fun fli _ -> f fli.Pipeline.fli_binaries) };
    { csv = "vli_" ^ csv; chart = "VLI";
      value = (fun _ vli -> f vli.Pipeline.vli_binaries) } ]

let speedup_series pairs =
  List.concat_map
    (fun (a, b) ->
      let name m = Fmt.str "%s_%s%s" m a b in
      let error bs = Metrics.pair_error bs ~a ~b in
      [ { csv = name "fli"; chart = name "fli";
          value = (fun fli _ -> error fli.Pipeline.fli_binaries) };
        { csv = name "vli"; chart = name "vli";
          value = (fun _ vli -> error vli.Pipeline.vli_binaries) } ])
    pairs

(* Relative error of one extrapolated metric, averaged over a workload's
   four binaries; metrics with tiny true rates count as 0 (relative error
   on a near-zero base is noise, not signal). *)
let metric_error ~name binaries =
  let errors =
    List.filter_map
      (fun (r : Pipeline.binary_result) ->
        Array.to_list r.Pipeline.br_metrics
        |> List.find_opt (fun m -> m.Pipeline.m_name = name)
        |> Option.map (fun (m : Pipeline.metric) ->
               if m.Pipeline.m_true_pki < 0.5 then 0.0
               else
                 Float.abs (m.Pipeline.m_est_pki -. m.Pipeline.m_true_pki)
                 /. m.Pipeline.m_true_pki))
      binaries
  in
  Stats.mean (Array.of_list errors)

let cpi_error (b : Pipeline.binary_result) = b.Pipeline.br_cpi_error

let paper_figures =
  [ { name = "fig1";
      title =
        (fun ~target:_ ->
          "Figure 1: Number of SimPoints (avg across the four binaries)");
      unit_label = "simulation points";
      fmt_value = Fmt.str "%.1f";
      series =
        both ~csv:"points"
          (mean_over (fun b -> float_of_int b.Pipeline.br_n_points)) };
    { name = "fig2";
      title =
        (fun ~target ->
          Fmt.str
            "Figure 2: Average VLI interval size (target %d; FLI is fixed at \
             the target)"
            target);
      unit_label = "instructions";
      fmt_value = Fmt.str "%.0f";
      series =
        [ { csv = "vli_avg_interval"; chart = "VLI";
            value =
              (fun _ vli ->
                mean_over
                  (fun b -> b.Pipeline.br_avg_interval)
                  vli.Pipeline.vli_binaries) } ] };
    { name = "fig3";
      title =
        (fun ~target:_ -> "Figure 3: CPI error (avg across the four binaries)");
      unit_label = "relative error";
      fmt_value = Table.pct;
      series = both ~csv:"cpi_error" (mean_over cpi_error) };
    { name = "fig4";
      title =
        (fun ~target:_ ->
          "Figure 4: Speedup error, same platform (unoptimized vs optimized)");
      unit_label = "speedup error";
      fmt_value = Table.pct;
      series = speedup_series Matrix.same_platform_pairs };
    { name = "fig5";
      title =
        (fun ~target:_ ->
          "Figure 5: Speedup error, cross platform (32-bit vs 64-bit)");
      unit_label = "speedup error";
      fmt_value = Table.pct;
      series = speedup_series Matrix.cross_platform_pairs } ]

let figures =
  paper_figures
  @ [ { name = "metrics";
        title =
          (fun ~target:_ ->
            "Extension: DRAM accesses/KI estimation error (avg across the \
             four binaries)");
        unit_label = "relative error";
        fmt_value = Table.pct;
        series =
          both ~csv:"dram_apki_error" (metric_error ~name:"dram_accesses") } ]

(* Per-benchmark values for each series, with the trailing Avg entry the
   paper plots. *)
let chart f m ppf =
  let results = results m in
  let with_avg values = values @ [ Stats.mean (Array.of_list values) ] in
  let series =
    List.map
      (fun s ->
        ( s.chart,
          with_avg (List.map (fun (_, fli, vli) -> s.value fli vli) results) ))
      f.series
  in
  let labels = List.map (fun (name, _, _) -> name) results @ [ "Avg" ] in
  Table.bar_chart
    ~title:(f.title ~target:m.Matrix.m_options.Matrix.mo_target)
    ~unit_label:f.unit_label ~series ~labels ~fmt_value:f.fmt_value ppf

let phase_rows (r : Pipeline.binary_result) =
  Metrics.top_phases r ~n:3
  |> List.mapi (fun i (ph : Pipeline.phase_stat) ->
         [ string_of_int (i + 1);
           Fmt.str "%.2f" ph.Pipeline.ph_weight;
           Fmt.str "%.2f" ph.Pipeline.ph_true_cpi;
           Fmt.str "%.2f" ph.Pipeline.ph_sp_cpi;
           Table.pct (Metrics.phase_bias ph) ])

let phase_table m ~workload ~labels:(la, lb) ppf =
  let _, fli, vli =
    List.find (fun (name, _, _) -> name = workload) (results m)
  in
  let section method_name binaries =
    let ra = Pipeline.find_binary binaries ~label:la in
    let rb = Pipeline.find_binary binaries ~label:lb in
    Fmt.pf ppf "%s / %s:@." workload method_name;
    let columns =
      [ { Table.header = "Phase"; align = Table.Right };
        { header = "Weight"; align = Table.Right };
        { header = "True CPI"; align = Table.Right };
        { header = "SP CPI"; align = Table.Right };
        { header = "CPI Error"; align = Table.Right } ]
    in
    Fmt.pf ppf "  %s:@." la;
    Table.render ~columns ~rows:(phase_rows ra) ppf;
    Fmt.pf ppf "  %s:@." lb;
    Table.render ~columns ~rows:(phase_rows rb) ppf
  in
  section "VLI (mappable SimPoint)" vli.Pipeline.vli_binaries;
  section "FLI (per-binary SimPoint)" fli.Pipeline.fli_binaries

let table2 m ppf =
  Fmt.pf ppf
    "Table 2: gcc phase comparison, 32-bit vs 64-bit unoptimized@.";
  phase_table m ~workload:"gcc" ~labels:("32u", "64u") ppf

let table3 m ppf =
  Fmt.pf ppf
    "Table 3: apsi phase comparison, 32-bit vs 64-bit optimized@.";
  phase_table m ~workload:"apsi" ~labels:("32o", "64o") ppf

let summary m ppf =
  let results = results m in
  let suite_mean f = Stats.mean (Array.of_list (List.map f results)) in
  let fli f = suite_mean (fun (_, r, _) -> f r.Pipeline.fli_binaries)
  and vli f = suite_mean (fun (_, _, r) -> f r.Pipeline.vli_binaries) in
  let speedup_error bs =
    Stats.mean
      (Array.of_list
         (List.map (fun (a, b) -> Metrics.pair_error bs ~a ~b) Matrix.pairs))
  in
  Fmt.pf ppf "Suite summary (%d workloads, interval target %d):@."
    (List.length results) m.Matrix.m_options.Matrix.mo_target;
  Fmt.pf ppf "  avg CPI error        FLI %s   VLI %s@."
    (Table.pct (fli (mean_over cpi_error)))
    (Table.pct (vli (mean_over cpi_error)));
  Fmt.pf ppf "  avg speedup error    FLI %s   VLI %s@."
    (Table.pct (fli speedup_error))
    (Table.pct (vli speedup_error));
  Fmt.pf ppf
    "  (paper's claim: VLI keeps bias consistent across binaries, so its@.";
  Fmt.pf ppf
    "   speedup error is well below FLI's while CPI error stays comparable)@."

let all m ppf =
  table1 ppf;
  List.iter
    (fun f ->
      Fmt.pf ppf "@.";
      chart f m ppf)
    paper_figures;
  Fmt.pf ppf "@.";
  table2 m ppf;
  Fmt.pf ppf "@.";
  table3 m ppf;
  Fmt.pf ppf "@.";
  summary m ppf
