(* cbsp: command-line front end for the Cross Binary SimPoint
   reproduction.  Subcommands cover workload inspection, single-workload
   pipeline runs, the paper's figures/tables, and the ablation studies. *)

module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Simpoint = Cbsp_simpoint.Simpoint
module Figures = Cbsp_report.Figures
module Ablation = Cbsp_report.Ablation
module Lint = Cbsp_analysis.Lint
module Prover = Cbsp_analysis.Prover

open Cmdliner

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let workloads_arg =
  let doc = "Workloads to run (default: the whole suite)." in
  Arg.(value & opt (some (list string)) None & info [ "w"; "workloads" ] ~doc)

(* Interval targets and cluster caps must be positive; rejecting the
   value here makes it a usage error before any work starts. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let target_arg =
  let doc = "Interval target size in instructions (stands for the paper's 100M)." in
  Arg.(value & opt positive_int Pipeline.default_target
       & info [ "t"; "target" ] ~doc)

let scale_arg =
  let doc = "Input scale (sizes the runs; the reference input uses 10)." in
  Arg.(value & opt int 10 & info [ "scale" ] ~doc)

let seed_arg =
  let doc = "Input seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let max_k_arg =
  let doc = "SimPoint's maximum number of clusters (paper: 10)." in
  Arg.(value & opt positive_int 10 & info [ "max-k" ] ~doc)

let primary_arg =
  let doc = "Primary binary index for mappable SimPoint (0=32u 1=32o 2=64u 3=64o)." in
  Arg.(value & opt int 0 & info [ "primary" ] ~doc)

let jobs_arg =
  let doc =
    "Number of parallel worker domains for independent pipeline jobs \
     (workloads, binaries, follower runs).  1 (the default) is strictly \
     sequential; results are bit-identical for any value.  0 means the \
     number of cores."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let timing_arg =
  Arg.(value & flag
       & info [ "timing" ]
           ~doc:"Print the per-stage timing report (wall-clock and sizes \
                 of every engine job) after the results.")

let resolve_jobs jobs =
  if jobs = 0 then Cbsp_engine.Scheduler.recommended_jobs ()
  else if jobs < 0 then begin
    Fmt.epr "bad --jobs %d@." jobs;
    exit 2
  end
  else jobs

let trace_arg =
  let doc =
    "Record every obs span as Chrome trace_event JSON at $(docv) (just \
     --trace writes trace.json); load it in chrome://tracing or Perfetto \
     to see the run as a flame chart, one row per worker domain."
  in
  Arg.(value & opt ~vopt:(Some "trace.json") (some string) None
       & info [ "trace" ] ~docv:"PATH" ~doc)

let manifest_arg =
  let doc = "Where to write the cbsp-manifest/1 run manifest (JSON)." in
  Arg.(value & opt string "cbsp-manifest.json"
       & info [ "manifest" ] ~docv:"PATH" ~doc)

(* Run [f] under the observability layer: enable the tracer when --trace
   was given, and always finish by exporting the trace and writing the
   run manifest — also when [f] raises, so a dead run leaves its stages,
   failure records and error message behind.  [timings] is a thunk
   because on failure it must read whatever the engine recorded so
   far. *)
let observed ~tool ~config ~trace ~manifest ~timings f =
  if trace <> None then Cbsp_obs.Tracer.enable ();
  let finish ?error () =
    (match trace with
     | Some path ->
       Cbsp_obs.Tracer.export ~path;
       Fmt.epr "wrote %d spans to %s@." (Cbsp_obs.Tracer.span_count ()) path
     | None -> ());
    let ts = timings () in
    Cbsp_obs.Manifest.write ~version:"1.0.0" ~argv:(Array.to_list Sys.argv)
      ~config ?error ~tool
      ~stages:(Cbsp_engine.Timing.manifest_stages ts)
      ~failures:(Cbsp_engine.Timing.manifest_failures ts)
      ~path:manifest ();
    Fmt.epr "wrote %s@." manifest
  in
  match f () with
  | () -> finish ()
  | exception e ->
    finish ~error:(Printexc.to_string e) ();
    Fmt.epr "error: %s@." (Printexc.to_string e);
    exit 1

let rep_arg =
  let doc =
    "Representative policy: 'centroid' (SimPoint default) or 'early[:TOL]' \
     (earliest near-optimal interval, PACT'03)."
  in
  Arg.(value & opt string "centroid" & info [ "rep" ] ~doc)

let search_arg =
  let doc = "k search strategy: 'all' (every k) or 'binary' (SimPoint 3.0)." in
  Arg.(value & opt string "all" & info [ "k-search" ] ~doc)

let input_of ~scale ~seed =
  Cbsp_source.Input.make ~name:(Printf.sprintf "scale%d" scale) ~seed ~scale ()

let rep_policy_of = function
  | "centroid" -> Simpoint.Centroid
  | "early" -> Simpoint.Early 0.1
  | s -> begin
    match String.split_on_char ':' s with
    | [ "early"; tol ] -> begin
      match float_of_string_opt tol with
      | Some tol when tol >= 0.0 -> Simpoint.Early tol
      | _ ->
        Fmt.epr "bad --rep %S@." s;
        exit 2
    end
    | _ ->
      Fmt.epr "bad --rep %S@." s;
      exit 2
  end

let k_search_of = function
  | "all" -> Simpoint.All_k
  | "binary" -> Simpoint.Binary_search
  | s ->
    Fmt.epr "bad --k-search %S@." s;
    exit 2

let sp_config_of ?(rep = "centroid") ?(search = "all") ~max_k () =
  { Simpoint.default_config with
    Simpoint.max_k; rep_policy = rep_policy_of rep;
    k_search = k_search_of search }

(* An unknown name is a usage error (exit 2), checked before any work
   starts. *)
let require_known n =
  if not (List.mem n Registry.names) then begin
    Fmt.epr "unknown workload %S; try `cbsp list`@." n;
    exit 2
  end

let workload_names = function
  | None -> Registry.names
  | Some names ->
    List.iter require_known names;
    names

let find_workload name =
  require_known name;
  Registry.find name

(* A points file that does not parse (or cannot be read) is the user's
   input error, not an internal one. *)
let load_points path =
  try Cbsp.Points_file.load ~path with
  | Cbsp.Points_file.Parse_error msg ->
    Fmt.epr "%s: malformed points file: %s@." path msg;
    exit 1
  | Sys_error msg ->
    Fmt.epr "%s@." msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) ->
        Fmt.pr "%-10s %s%s@." e.Registry.name e.Registry.description
          (if e.Registry.loop_splitting then "  [loop-splitting at O2]" else ""))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* show                                                                *)

let show_cmd =
  let run name =
    let entry = find_workload name in
    let program = entry.Registry.build () in
    Cbsp_source.Ast.pp_program ppf program;
    Fmt.pr "@.Binaries:@.";
    List.iter
      (fun config ->
        let binary = Cbsp_compiler.Lower.compile program config in
        Fmt.pr "  %a@." Cbsp_compiler.Binary.pp_summary binary)
      (Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ())
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a workload's source and binary summaries")
    Term.(const run $ name_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile_cmd =
  let run name scale seed =
    let entry = find_workload name in
    let program = entry.Registry.build () in
    let input = input_of ~scale ~seed in
    let configs =
      Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
    in
    let binaries = List.map (Cbsp_compiler.Lower.compile program) configs in
    let profiles =
      List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
    in
    List.iter2
      (fun (b : Cbsp_compiler.Binary.t) p ->
        Fmt.pr "--- %s: %d marker keys@." (Config.label b.Cbsp_compiler.Binary.config)
          (List.length (Cbsp_profile.Structprof.keys p)))
      binaries profiles;
    let mappable = Cbsp.Matching.find ~binaries ~profiles () in
    Fmt.pr "@.Mappable points:@.%a" Cbsp.Matching.pp mappable
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a workload's four binaries and show the mappable points")
    Term.(const run $ name_arg $ scale_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let print_binary_result label (r : Pipeline.binary_result) =
  Fmt.pr
    "  %s %-4s  insts=%9d  true_cpi=%5.2f  est_cpi=%5.2f  cpi_err=%6.2f%%  \
     k=%2d  intervals=%4d  avg_interval=%8.0f@."
    label
    (Config.label r.Pipeline.br_config)
    r.Pipeline.br_truth.Pipeline.t_insts r.Pipeline.br_truth.Pipeline.t_cpi
    r.Pipeline.br_est_cpi
    (100.0 *. r.Pipeline.br_cpi_error)
    r.Pipeline.br_n_points r.Pipeline.br_n_intervals r.Pipeline.br_avg_interval

let print_speedups fli_binaries vli_binaries =
  List.iter
    (fun (a, b) ->
      let ra = Pipeline.find_binary fli_binaries ~label:a in
      let rb = Pipeline.find_binary fli_binaries ~label:b in
      Fmt.pr "  speedup %s->%s  true=%5.2f  fli_err=%6.2f%%  vli_err=%6.2f%%@." a b
        (Metrics.true_speedup ra rb)
        (100.0 *. Metrics.pair_error fli_binaries ~a ~b)
        (100.0 *. Metrics.pair_error vli_binaries ~a ~b))
    Cbsp_validate.Matrix.pairs

let print_metrics label (r : Pipeline.binary_result) =
  Array.iter
    (fun (m : Pipeline.metric) ->
      Fmt.pr "  %s %-4s  %-18s true=%8.3f/ki  est=%8.3f/ki@." label
        (Config.label r.Pipeline.br_config)
        m.Pipeline.m_name m.Pipeline.m_true_pki m.Pipeline.m_est_pki)
    r.Pipeline.br_metrics

let run_cmd =
  let run name target scale seed max_k primary rep search metrics jobs timing
      smoke static semantic trace manifest =
    let matching : Pipeline.matching =
      if semantic then Recovered else if static then Static else Dynamic
    in
    let name =
      match (name, smoke) with
      | Some n, _ -> n
      | None, true -> "gcc"
      | None, false ->
        Fmt.epr "missing WORKLOAD (or pass --smoke for the CI preset)@.";
        exit 2
    in
    let target, scale =
      if smoke then (min target 20_000, min scale 4) else (target, scale)
    in
    let entry = find_workload name in
    let program = entry.Registry.build () in
    let input = input_of ~scale ~seed in
    let sp_config = sp_config_of ~rep ~search ~max_k () in
    let configs =
      Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
    in
    let jobs = resolve_jobs jobs in
    (* One engine for both pipelines: the four binaries compile once and
       are shared; jobs > 1 runs independent per-binary work in
       parallel. *)
    let engine = Pipeline.create_engine ~jobs () in
    observed ~tool:"run"
      ~config:
        [ ("workload", name); ("target", string_of_int target);
          ("scale", string_of_int scale); ("seed", string_of_int seed);
          ("jobs", string_of_int jobs) ]
      ~trace ~manifest
      ~timings:(fun () -> Pipeline.timings engine)
    @@ fun () ->
    let fli =
      Pipeline.run_fli ~sp_config ~engine program ~configs ~input ~target
    in
    let vli =
      Pipeline.run ~sp_config ~engine
        (Vli { matching; primary; match_options = None })
        program ~configs ~input ~target
    in
    Fmt.pr "== %s (target=%d, scale=%d)@." name target scale;
    Fmt.pr "mappable keys: %d of %d candidates; %d VLI boundaries@."
      (Cbsp.Matching.cardinal vli.Pipeline.vli_mappable)
      vli.Pipeline.vli_mappable.Cbsp.Matching.candidates
      vli.Pipeline.vli_n_boundaries;
    if matching <> Dynamic then begin
      let profiled, _ = Pipeline.profile_stats engine in
      Fmt.pr "static analysis: %d structure profile%s run for the undecided \
              residue@."
        profiled
        (if profiled = 1 then "" else "s")
    end;
    List.iter (print_binary_result "fli") fli.Pipeline.fli_binaries;
    List.iter (print_binary_result "vli") vli.Pipeline.vli_binaries;
    print_speedups fli.Pipeline.fli_binaries vli.Pipeline.vli_binaries;
    if metrics then begin
      Fmt.pr "@.Extra metrics (events per 1000 instructions):@.";
      List.iter (print_metrics "vli") vli.Pipeline.vli_binaries
    end;
    if timing then begin
      let computes, hits = Pipeline.compile_stats engine in
      Fmt.pr "@.Per-stage timing (compiles: %d run, %d memoized):@." computes
        hits;
      Cbsp_engine.Timing.pp_report ppf (Pipeline.timings engine)
    end
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Also print cache-miss metrics.")
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Tiny CI preset: WORKLOAD defaults to gcc and target/scale \
                   are clamped down.")
  in
  let static_arg =
    Arg.(value & flag
         & info [ "static" ]
             ~doc:"Use the static mappability prover for VLI matching; \
                   profile only the markers it cannot decide.")
  in
  let semantic_arg =
    Arg.(value & flag
         & info [ "semantic" ]
             ~doc:"Additionally recover markers lost to loop splitting by \
                   semantic (fingerprint) matching; implies --static.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run both SimPoint methods on one workload and compare them")
    Term.(const run $ name_arg $ target_arg $ scale_arg $ seed_arg $ max_k_arg
          $ primary_arg $ rep_arg $ search_arg $ metrics_arg $ jobs_arg
          $ timing_arg $ smoke_arg $ static_arg $ semantic_arg $ trace_arg
          $ manifest_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let module Matrix = Cbsp_validate.Matrix in
  let what_arg =
    let doc =
      "What to regenerate: table1, fig1, fig2, fig3, fig4, fig5, table2, \
       table3, metrics, summary or all."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc)
  in
  let csv_arg =
    let doc = "Also write the figure data as CSV files into this directory." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc)
  in
  let run what workloads target scale seed max_k primary csv jobs timing =
    let names = workload_names workloads in
    (* An unknown name is a usage error before any work starts. *)
    let render =
      match what with
      | "table1" -> None
      | "table2" -> Some Figures.table2
      | "table3" -> Some Figures.table3
      | "summary" -> Some Figures.summary
      | "all" -> Some Figures.all
      | _ -> (
        match List.find_opt (fun f -> f.Figures.name = what) Figures.figures with
        | Some f -> Some (Figures.chart f)
        | None ->
          Fmt.epr "unknown experiment %S@." what;
          exit 2)
    in
    match render with
    | None -> Figures.table1 ppf
    | Some render ->
      let names =
        (* Tables 2 and 3 need their specific workloads present. *)
        match what with
        | "table2" when not (List.mem "gcc" names) -> "gcc" :: names
        | "table3" when not (List.mem "apsi" names) -> "apsi" :: names
        | _ -> names
      in
      let options =
        { Matrix.default_options with
          Matrix.mo_target = target; mo_scale = scale; mo_seed = seed;
          mo_max_k = max_k; mo_primary = primary }
      in
      let m =
        Matrix.run ~options ~names ~jobs:(resolve_jobs jobs)
          ~progress:(fun n -> Fmt.epr "running %s...@." n)
          ()
      in
      (match Figures.missing m with
       | [] -> ()
       | missing ->
         Fmt.epr "no figures: FLI or VLI results missing for %s@."
           (String.concat ", " missing);
         List.iter
           (fun (w, meth, reason) -> Fmt.epr "  %s/%s: %s@." w meth reason)
           (Matrix.failures m);
         exit 1);
      if timing then begin
        Fmt.pr "Per-stage timing (suite, %d job%s):@." m.Matrix.m_jobs
          (if m.Matrix.m_jobs = 1 then "" else "s");
        Cbsp_engine.Timing.pp_report ppf (Matrix.timings m);
        Fmt.pr "@."
      end;
      render m ppf;
      match csv with
      | None -> ()
      | Some dir ->
        Cbsp_report.Csv.save_all m ~dir;
        Fmt.epr "wrote CSV data to %s/@." dir
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (Section 5)")
    Term.(
      const run $ what_arg $ workloads_arg $ target_arg $ scale_arg $ seed_arg
      $ max_k_arg $ primary_arg $ csv_arg $ jobs_arg $ timing_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)

let validate_cmd =
  let module Matrix = Cbsp_validate.Matrix in
  let module Leaderboard = Cbsp_validate.Leaderboard in
  let module Budgets = Cbsp_validate.Budgets in
  let module Vreport = Cbsp_validate.Report in
  let n_arg =
    Arg.(value & opt int 64
         & info [ "n" ]
             ~doc:"Intervals each sampler simulates in detail per run.")
  in
  let seeds_arg =
    Arg.(value & opt int 3
         & info [ "seeds" ]
             ~doc:"Number of sampling seeds per (binary, method); the \
                   scored estimate is their mean.")
  in
  let level_arg =
    Arg.(value & opt float 0.95
         & info [ "level" ] ~doc:"Sampling confidence level.")
  in
  let json_arg =
    let doc =
      "Write the machine-readable cbsp-validate/1 leaderboard to $(docv) \
       (default VALIDATE.json when the flag is given without a value)."
    in
    Arg.(value & opt ~vopt:(Some "VALIDATE.json") (some string) None
         & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let budget_arg =
    Arg.(value & opt (some file) None
         & info [ "budget-file" ] ~docv:"PATH"
             ~doc:"cbsp-validate-budgets/1 file with the per-method error \
                   limits; a breach makes the command exit 1.  Must \
                   exist when given; without the flag, \
                   validate-budgets.json is used if it exists and the \
                   check is skipped with a warning if it does not.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent artifact cache root: compiles, \
                   profiles and whole pipeline results are reused across \
                   runs, so re-validating an unchanged tree is served \
                   from disk.")
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Tiny CI preset: two workloads at a reduced scale, \
                   target and sample size, judged against the budget \
                   file's 'smoke' mode; implies --json=VALIDATE_smoke.json \
                   unless --json is given.")
  in
  let run workloads target scale seed max_k n seeds level json budget_file
      cache_dir smoke jobs timing trace manifest =
    if n < 2 then begin
      Fmt.epr "bad --n %d (need >= 2)@." n;
      exit 2
    end;
    if seeds < 1 then begin
      Fmt.epr "bad --seeds %d@." seeds;
      exit 2
    end;
    if level <= 0.0 || level >= 1.0 then begin
      Fmt.epr "bad --level %g (need 0 < level < 1)@." level;
      exit 2
    end;
    let names, target, scale, n, seeds =
      if smoke then
        ((match workloads with
          | None -> [ "gcc"; "apsi" ]
          | Some ws -> workload_names (Some ws)),
         min target 20_000, min scale 4, min n 24, min seeds 2)
      else (workload_names workloads, target, scale, n, seeds)
    in
    let json =
      match json with
      | Some _ -> json
      | None when smoke -> Some "VALIDATE_smoke.json"
      | None -> None
    in
    let mode = if smoke then "smoke" else "full" in
    let options =
      { Matrix.default_options with
        Matrix.mo_target = target; mo_scale = scale; mo_seed = seed;
        mo_max_k = max_k; mo_level = level; mo_sample_n = n;
        mo_sample_seeds = List.init seeds (fun i -> 2007 + i) }
    in
    let jobs = resolve_jobs jobs in
    let timings = ref [] in
    observed ~tool:"validate"
      ~config:
        [ ("workloads", String.concat "," names); ("mode", mode);
          ("target", string_of_int target); ("scale", string_of_int scale);
          ("seed", string_of_int seed); ("n", string_of_int n);
          ("jobs", string_of_int jobs) ]
      ~trace ~manifest
      ~timings:(fun () -> !timings)
    @@ fun () ->
    let matrix =
      Matrix.run ~options ~names ~jobs ?cache_dir
        ~progress:(fun n -> Fmt.epr "validating %s...@." n)
        ()
    in
    timings := Matrix.timings matrix;
    let board = Leaderboard.build matrix in
    Vreport.render matrix board ppf;
    if timing then begin
      Fmt.pr "@.Per-stage timing:@.";
      Cbsp_engine.Timing.pp_report ppf !timings;
      Fmt.pr "@."
    end;
    (match json with
    | None -> ()
    | Some path ->
      Cbsp_util.Io.with_out_file path (fun oc ->
          output_string oc
            (Cbsp_json.Jsonx.to_string
               (Leaderboard.to_json ~mode matrix board));
          output_char oc '\n');
      Fmt.epr "wrote %s@." path);
    let budget_file =
      Option.value budget_file ~default:"validate-budgets.json"
    in
    if Sys.file_exists budget_file then begin
      let budgets = Budgets.load ~path:budget_file ~mode in
      match Budgets.check budgets board with
      | [] -> Fmt.pr "@.budgets: OK (%s mode, %s)@." mode budget_file
      | breaches ->
        Fmt.pr "@.";
        Vreport.render_breaches breaches ppf;
        Printf.ksprintf failwith "%d budget breach(es) against %s"
          (List.length breaches) budget_file
    end
    else Fmt.epr "no budget file at %s; skipping the budget check@." budget_file
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run the full validation matrix (workloads x binary pairs x \
             methods), rank methods by accuracy against full-run truth, \
             and enforce the checked-in error budgets")
    Term.(
      const run $ workloads_arg $ target_arg $ scale_arg $ seed_arg $ max_k_arg
      $ n_arg $ seeds_arg $ level_arg $ json_arg $ budget_arg $ cache_dir_arg
      $ smoke_arg $ jobs_arg $ timing_arg $ trace_arg $ manifest_arg)

(* ------------------------------------------------------------------ *)
(* ablation                                                            *)

let ablation_cmd =
  let what_arg =
    let doc =
      "Study: primary, markers, target, maxk, inline, rep, ksearch or all."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"STUDY" ~doc)
  in
  let run what workloads =
    let names =
      match workloads with None -> Ablation.default_names | Some ns -> ns
    in
    let studies =
      match what with
      | "primary" -> [ Ablation.primary_choice ~names () ]
      | "rep" -> [ Ablation.rep_policy ~names () ]
      | "ksearch" -> [ Ablation.k_search ~names () ]
      | "markers" -> [ Ablation.marker_kinds ~names () ]
      | "target" -> [ Ablation.interval_target ~names () ]
      | "maxk" -> [ Ablation.max_k ~names () ]
      | "inline" -> [ Ablation.inline_recovery ~names () ]
      | "all" ->
        [ Ablation.primary_choice ~names (); Ablation.marker_kinds ~names ();
          Ablation.interval_target ~names (); Ablation.max_k ~names ();
          Ablation.inline_recovery ~names (); Ablation.rep_policy ~names ();
          Ablation.k_search ~names () ]
      | other ->
        Fmt.epr "unknown study %S@." other;
        exit 2
    in
    List.iter
      (fun s ->
        Ablation.render s ppf;
        Fmt.pr "@.")
      studies
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the design-choice ablation studies")
    Term.(const run $ what_arg $ workloads_arg)

(* ------------------------------------------------------------------ *)
(* phases                                                              *)

let phases_cmd =
  let run name target scale seed max_k =
    let entry = find_workload name in
    let program = entry.Registry.build () in
    let input = input_of ~scale ~seed in
    let configs =
      Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
    in
    let vli =
      Pipeline.run_vli ~sp_config:(sp_config_of ~max_k ()) program ~configs
        ~input ~target
    in
    let primary = List.nth vli.Pipeline.vli_binaries vli.Pipeline.vli_primary in
    Fmt.pr "%s: %d variable-length intervals, %d phases (primary %s)@.@." name
      (Array.length vli.Pipeline.vli_points.Pipeline.pt_phase_of)
      primary.Pipeline.br_n_points
      (Config.label primary.Pipeline.br_config);
    Cbsp_report.Timeline.render
      ~phase_of:vli.Pipeline.vli_points.Pipeline.pt_phase_of ppf;
    Fmt.pr "@.";
    Cbsp_report.Timeline.render_legend ~phases:primary.Pipeline.br_phases ppf
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "phases"
       ~doc:"Show a workload's phase timeline under mappable SimPoint")
    Term.(const run $ name_arg $ target_arg $ scale_arg $ seed_arg $ max_k_arg)

(* ------------------------------------------------------------------ *)
(* points: save / replay (the PinPoints workflow)                      *)

let points_save_cmd =
  let run name out target scale seed max_k =
    let entry = find_workload name in
    let program = entry.Registry.build () in
    let input = input_of ~scale ~seed in
    let configs =
      Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
    in
    let vli =
      Pipeline.run_vli ~sp_config:(sp_config_of ~max_k ()) program ~configs
        ~input ~target
    in
    Cbsp.Points_file.save ~path:out ~program:name ~input vli.Pipeline.vli_points;
    Fmt.pr "wrote %d boundaries, %d points to %s@."
      (Array.length vli.Pipeline.vli_points.Pipeline.pt_boundaries)
      (Array.length vli.Pipeline.vli_points.Pipeline.pt_reps)
      out
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let out_arg =
    Arg.(value & opt string "points.cbsp" & info [ "o"; "output" ]
           ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Choose mappable simulation points and write them to a file")
    Term.(const run $ name_arg $ out_arg $ target_arg $ scale_arg $ seed_arg
          $ max_k_arg)

let points_replay_cmd =
  let run file label =
    let header, points = load_points file in
    let entry = find_workload header.Cbsp.Points_file.h_program in
    let program = entry.Registry.build () in
    let input =
      Cbsp_source.Input.make ~name:header.Cbsp.Points_file.h_input_name
        ~scale:header.Cbsp.Points_file.h_scale
        ~seed:header.Cbsp.Points_file.h_seed ()
    in
    let config =
      match
        List.find_opt
          (fun c -> Config.label c = label)
          (Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ())
      with
      | Some c -> c
      | None ->
        Fmt.epr "unknown configuration %S (32u/32o/64u/64o)@." label;
        exit 2
    in
    let binary = Cbsp_compiler.Lower.compile program config in
    let r = Pipeline.replay binary ~input points in
    Fmt.pr "replayed %s points on %s/%s:@." file
      header.Cbsp.Points_file.h_program label;
    print_binary_result "   " r;
    print_metrics "   " r
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"POINTS_FILE")
  in
  let config_arg =
    Arg.(value & opt string "64o" & info [ "c"; "config" ]
           ~doc:"Binary to measure (32u/32o/64u/64o).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Measure a binary against simulation points from a file")
    Term.(const run $ file_arg $ config_arg)

let points_cmd =
  Cmd.group
    (Cmd.info "points"
       ~doc:"Write and consume simulation-point files (the PinPoints workflow)")
    [ points_save_cmd; points_replay_cmd ]

(* ------------------------------------------------------------------ *)
(* lint: static analysis over workloads and points files               *)

let lint_cmd =
  let run workloads scale json points_path semantic =
    let names =
      workload_names (match workloads with [] -> None | ws -> Some ws)
    in
    let findings = ref [] in
    let reports = ref [] in
    let add fs = findings := !findings @ fs in
    List.iter
      (fun name ->
        let entry = Registry.find name in
        let program = entry.Registry.build () in
        let program_findings = Lint.check_program ~workload:name ~scale program in
        add program_findings;
        (* Binary-level lints assume a program the validator accepts. *)
        if not (List.exists (fun f -> f.Lint.f_severity = Lint.Error) program_findings)
        then begin
          let configs =
            Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
          in
          let binaries =
            List.map (Cbsp_compiler.Lower.compile program) configs
          in
          let report = Prover.prove ~binaries ~scale in
          reports := (name, report) :: !reports;
          add (Lint.check_binaries ~workload:name ~scale ~report binaries)
        end)
      names;
    (match points_path with
    | None -> ()
    | Some path ->
      let header, points = load_points path in
      let markers =
        Array.to_list
          (Array.map
             (fun (b : Cbsp_profile.Interval.boundary) ->
               b.Cbsp_profile.Interval.bd_key)
             points.Pipeline.pt_boundaries)
      in
      add
        (Lint.check_points ~workload:header.Cbsp.Points_file.h_program ~markers));
    let findings = !findings in
    let reports = List.rev !reports in
    let totals = Lint.totals_of_reports (List.map snd reports) in
    let semantic_stats =
      if semantic then
        Some
          (List.map
             (fun (name, report) -> Lint.semantic_stat ~workload:name report)
             reports)
      else None
    in
    Fmt.pr "== lint: %d workload%s, scale %d@." (List.length names)
      (if List.length names = 1 then "" else "s")
      scale;
    List.iter (fun f -> Fmt.pr "%a@." Lint.pp_finding f) findings;
    (match semantic_stats with
    | None -> ()
    | Some stats ->
      Fmt.pr "recovered mappability (semantic matching over split-lost \
              markers):@.";
      List.iter (fun s -> Fmt.pr "  %a@." Lint.pp_semantic_stat s) stats);
    let count sev =
      List.length (List.filter (fun f -> f.Lint.f_severity = sev) findings)
    in
    let decided =
      totals.Lint.at_proved_mappable + totals.Lint.at_proved_unmappable
    in
    Fmt.pr "analysis: %d candidate markers, %d proved mappable, %d proved \
            unmappable, %d need dynamic profiling (%.1f%% decided)@."
      totals.Lint.at_candidates totals.Lint.at_proved_mappable
      totals.Lint.at_proved_unmappable totals.Lint.at_needs_dynamic
      (if totals.Lint.at_candidates = 0 then 100.0
       else 100.0 *. float_of_int decided /. float_of_int totals.Lint.at_candidates);
    Fmt.pr "summary: %d error%s, %d warning%s, %d info@."
      (count Lint.Error)
      (if count Lint.Error = 1 then "" else "s")
      (count Lint.Warning)
      (if count Lint.Warning = 1 then "" else "s")
      (count Lint.Info);
    (match json with
    | None -> ()
    | Some path ->
      Cbsp_util.Io.with_out_file path (fun oc ->
          output_string oc
            (Lint.to_json ~scale ~workloads:names ~totals
               ?semantic:semantic_stats findings));
      Fmt.pr "wrote %s@." path);
    if count Lint.Error > 0 then exit 1
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD")
  in
  let json_arg =
    let doc =
      "Also write the findings as a cbsp-lint/1 JSON report to PATH \
       (default LINT.json when the flag is given without a value)."
    in
    Arg.(value & opt ~vopt:(Some "LINT.json") (some string) None
         & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let points_arg =
    Arg.(value & opt (some string) None
         & info [ "points" ] ~docv:"FILE"
             ~doc:"Also lint a simulation-points file for mangled-marker \
                   leakage.")
  in
  let semantic_arg =
    Arg.(value & flag
         & info [ "semantic" ]
             ~doc:"Also run the semantic (fingerprint) matching pass over \
                   the markers the prover lost to loop splitting and \
                   report per-workload recovered mappability: lost / \
                   identified / order-safe / demoted.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze workloads: mappability proofs and program \
             diagnostics (exit 1 on error findings)")
    Term.(const run $ names_arg $ scale_arg $ json_arg $ points_arg
          $ semantic_arg)

(* ------------------------------------------------------------------ *)
(* dump-bbv: SimPoint .bb output                                       *)

let binary_of_label entry label =
  let program = entry.Registry.build () in
  match
    List.find_opt
      (fun c -> Config.label c = label)
      (Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ())
  with
  | Some config -> Cbsp_compiler.Lower.compile program config
  | None ->
    Fmt.epr "unknown configuration %S (32u/32o/64u/64o)@." label;
    exit 2

let config_arg =
  Arg.(value & opt string "32u" & info [ "c"; "config" ]
         ~doc:"Binary to use (32u/32o/64u/64o).")

let dump_bbv_cmd =
  let run name label out target scale seed =
    let entry = find_workload name in
    let binary = binary_of_label entry label in
    let input = input_of ~scale ~seed in
    let n_blocks = binary.Cbsp_compiler.Binary.n_blocks in
    (* Each interval goes from the builder straight into the file, so the
       dump holds one interval of memory whatever the run length. *)
    let n =
      Cbsp_util.Io.with_out_file out (fun oc ->
          let iobs, finish =
            Cbsp_profile.Interval.fli_stream ~n_blocks ~target
              ~emit:(Cbsp_profile.Bbv_file.write oc) ()
          in
          let (_ : Cbsp_exec.Executor.totals) =
            Cbsp_exec.Executor.run binary input iobs
          in
          finish ())
    in
    Fmt.pr "wrote %d frequency vectors (dim %d) to %s@." n n_blocks out
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let out_arg =
    Arg.(value & opt string "out.bb" & info [ "o"; "output" ]
           ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "dump-bbv"
       ~doc:"Write basic block vectors as SimPoint .bb frequency vectors")
    Term.(const run $ name_arg $ config_arg $ out_arg $ target_arg
          $ scale_arg $ seed_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "Cross Binary Simulation Points (ISPASS 2007) reproduction" in
  Cmd.group
    (Cmd.info "cbsp" ~version:"1.0.0" ~doc)
    [ list_cmd; show_cmd; profile_cmd; run_cmd; experiment_cmd;
      validate_cmd; ablation_cmd; phases_cmd; points_cmd; lint_cmd;
      dump_bbv_cmd ]

let () = exit (Cmd.eval main_cmd)
