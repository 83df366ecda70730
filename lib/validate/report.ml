module Table = Cbsp_report.Table

let pct_or_dash f = if Float.is_finite f then Table.pct f else "-"

let ci_or_dash (a : Leaderboard.agg) =
  if Float.is_finite a.Leaderboard.a_ci_lo then
    Printf.sprintf "[%s, %s]"
      (Table.pct a.Leaderboard.a_ci_lo)
      (Table.pct a.Leaderboard.a_ci_hi)
  else "-"

let render matrix board ppf =
  let open Leaderboard in
  let o = matrix.Matrix.m_options in
  Fmt.pf ppf
    "Validation matrix — %d workload(s) x %d method(s) x (%d binaries + %d \
     pairs), target %d, scale %d, seed %d@.@."
    (List.length matrix.Matrix.m_workloads)
    (List.length Matrix.methods)
    Leaderboard.n_labels
    (List.length Matrix.pairs)
    o.Matrix.mo_target o.Matrix.mo_scale o.Matrix.mo_seed;
  let columns =
    Table.
      [ { header = "rank"; align = Right };
        { header = "method"; align = Left };
        { header = "CPI mean"; align = Right };
        { header = "CPI max"; align = Right };
        { header = "CPI p90"; align = Right };
        { header = "CPI 95% CI"; align = Right };
        { header = "speedup mean"; align = Right };
        { header = "speedup max"; align = Right };
        { header = "cells"; align = Right } ]
  in
  let rows =
    List.mapi
      (fun i r ->
        [ string_of_int (i + 1); r.r_method;
          pct_or_dash r.r_cpi.a_mean; pct_or_dash r.r_cpi.a_max;
          pct_or_dash r.r_cpi.a_p90; ci_or_dash r.r_cpi;
          pct_or_dash r.r_speedup.a_mean; pct_or_dash r.r_speedup.a_max;
          Printf.sprintf "%d/%d"
            (r.r_cpi.a_n + r.r_speedup.a_n)
            (r.r_cpi.a_n + r.r_cpi.a_skipped + r.r_speedup.a_n
            + r.r_speedup.a_skipped) ])
      board.lb_rows
  in
  Table.render ~columns ~rows ppf;
  let c = board.lb_coverage in
  Fmt.pf ppf "@.coverage: %d expected = %d evaluated + %d skipped + %d failed%s@."
    c.cov_expected c.cov_evaluated c.cov_skipped c.cov_failed
    (if c.cov_evaluated + c.cov_skipped + c.cov_failed = c.cov_expected then ""
     else "  (INCOMPLETE)");
  (* The samplers' CI calibration: do they know their own error? *)
  Fmt.pf ppf "@.Sampler CI calibration (%g%% CIs):@.@."
    (100.0 *. o.Matrix.mo_level);
  let columns =
    { Table.header = "method"; align = Table.Left }
    :: List.map
         (fun header -> { Table.header; align = Table.Right })
         [ "runs"; "CPI coverage"; "CI half"; "sim cost"; "speedup coverage" ]
  in
  let rows =
    List.filter_map
      (fun r ->
        Option.map
          (fun c ->
            r.r_method :: string_of_int c.c_runs
            :: List.map pct_or_dash
                 [ c.c_coverage; c.c_mean_rel_half; c.c_mean_cost_fraction;
                   c.c_speedup_coverage ])
          r.r_calibration)
      board.lb_rows
  in
  Table.render ~columns ~rows ppf;
  Fmt.pf ppf
    "@.(CI half = mean half-width / true CPI; sim cost = instructions \
     simulated in detail / total)@.";
  (match Matrix.failures matrix with
  | [] -> ()
  | failures ->
    Fmt.pf ppf "@.failures:@.";
    List.iter
      (fun (w, m, reason) -> Fmt.pf ppf "  %s/%s: %s@." w m reason)
      failures);
  match Matrix.truth_mismatches matrix with
  | [] -> ()
  | mismatches ->
    Fmt.pf ppf "@.truth mismatches (methods measured different baselines!):@.";
    List.iter
      (fun (w, m, l) -> Fmt.pf ppf "  %s: %s disagrees on %s@." w m l)
      mismatches

let render_breaches breaches ppf =
  List.iter
    (fun (b : Budgets.breach) ->
      Fmt.pf ppf "budget breach: %s %s = %s %s %s@." b.Budgets.br_method
        b.Budgets.br_metric
        (pct_or_dash b.Budgets.br_actual)
        (if b.Budgets.br_floor then "is below floor" else "exceeds limit")
        (pct_or_dash b.Budgets.br_limit))
    breaches
