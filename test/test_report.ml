module Pipeline = Cbsp.Pipeline
module Table = Cbsp_validate.Table
module Matrix = Cbsp_validate.Matrix
module Figures = Cbsp_report.Figures

let render_to_string f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let out =
    render_to_string
      (Table.render
         ~columns:
           [ { Table.header = "name"; align = Table.Left };
             { Table.header = "value"; align = Table.Right } ]
         ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ])
  in
  Tutil.check_bool "has header" true (contains out "name");
  Tutil.check_bool "has rows" true (contains out "alpha" && contains out "22");
  (* all lines equal width *)
  let widths =
    String.split_on_char '\n' out
    |> List.filter (fun l -> l <> "")
    |> List.map String.length
    |> List.sort_uniq compare
  in
  Tutil.check_int "rectangular" 1 (List.length widths)

let test_table_ragged_rows () =
  let out =
    render_to_string
      (Table.render
         ~columns:
           [ { Table.header = "a"; align = Table.Left };
             { Table.header = "b"; align = Table.Left } ]
         ~rows:[ [ "only" ] ])
  in
  Tutil.check_bool "short row padded" true (contains out "only")

let test_bar_chart () =
  let out =
    render_to_string
      (Table.bar_chart ~title:"T" ~unit_label:"u"
         ~series:[ ("s1", [ 1.0; 2.0 ]); ("s2", [ 2.0; 4.0 ]) ]
         ~labels:[ "x"; "y" ])
  in
  Tutil.check_bool "title present" true (contains out "T (u)");
  Tutil.check_bool "bars present" true (contains out "#");
  Tutil.check_bool "labels present" true (contains out "x" && contains out "y")

let test_bar_chart_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Table.bar_chart: series \"s\" length mismatch") (fun () ->
      render_to_string
        (Table.bar_chart ~title:"T" ~unit_label:"u" ~series:[ ("s", [ 1.0 ]) ]
           ~labels:[ "a"; "b" ])
      |> ignore)

let test_pct () =
  Alcotest.(check string) "pct formats" "12.34%" (Table.pct 0.12341)

let test_table1_static () =
  let out = render_to_string Figures.table1 in
  List.iter
    (fun needle ->
      Tutil.check_bool ("table1 mentions " ^ needle) true (contains out needle))
    [ "FLC(L1D)"; "MLC(L2D)"; "LLC(L3D)"; "32KB"; "512KB"; "1024KB"; "2-way";
      "8-way"; "16-way"; "250 cycles"; "WriteBack" ]

(* One small matrix drives every figure renderer. *)
let small_options =
  { Matrix.default_options with
    Matrix.mo_target = 50_000; mo_scale = 2; mo_sample_n = 8;
    mo_sample_seeds = [ 2007 ] }

let small_matrix =
  lazy (Matrix.run ~options:small_options ~names:[ "gcc"; "apsi" ] ())

(* The value of the series [csv] of figure [fig] for [workload]. *)
let series_value m ~fig ~csv ~workload =
  let f = List.find (fun f -> f.Figures.name = fig) Figures.figures in
  let s = List.find (fun s -> s.Figures.csv = csv) f.Figures.series in
  let _, fli, vli =
    List.find (fun (name, _, _) -> name = workload) (Figures.results m)
  in
  s.Figures.value fli vli

let test_matrix_structure () =
  let m = Lazy.force small_matrix in
  Alcotest.(check (list string)) "two workloads, in order" [ "gcc"; "apsi" ]
    (List.map (fun (name, _, _) -> name) (Figures.results m));
  Alcotest.(check (list string)) "nothing missing" [] (Figures.missing m);
  let v fig csv = series_value m ~fig ~csv ~workload:"gcc" in
  Tutil.check_bool "averages sane" true
    (v "fig1" "fli_points" >= 1.0
     && v "fig1" "vli_points" >= 1.0
     && v "fig2" "vli_avg_interval" > 10_000.0
     && v "fig3" "fli_cpi_error" >= 0.0)

(* The figures read exactly what the two paper pipelines return on their
   own: the matrix's FLI and Dynamic VLI outputs equal fresh-engine
   runs on the same program, binaries, input and SimPoint cap. *)
let test_matrix_outputs_are_pipeline_results () =
  let m = Lazy.force small_matrix in
  let entry = Cbsp_workloads.Registry.find "gcc" in
  let program = entry.Cbsp_workloads.Registry.build () in
  let configs =
    Cbsp_compiler.Config.paper_four
      ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ()
  in
  let o = m.Matrix.m_options in
  let input =
    Cbsp_source.Input.make
      ~name:(Printf.sprintf "scale%d" o.Matrix.mo_scale)
      ~seed:o.Matrix.mo_seed ~scale:o.Matrix.mo_scale ()
  in
  let sp_config =
    { Cbsp_simpoint.Simpoint.default_config with
      Cbsp_simpoint.Simpoint.max_k = o.Matrix.mo_max_k }
  in
  let target = o.Matrix.mo_target in
  let fli =
    Pipeline.run_fli ~sp_config ~engine:(Pipeline.create_engine ()) program
      ~configs ~input ~target
  in
  let vli =
    Pipeline.run_vli ~sp_config ~engine:(Pipeline.create_engine ()) program
      ~configs ~input ~target
  in
  let _, mfli, mvli = List.hd (Figures.results m) in
  Tutil.check_bool "fli output = run_fli" true (mfli = fli);
  Tutil.check_bool "vli output = run_vli" true (mvli = vli)

let test_figures_render () =
  let m = Lazy.force small_matrix in
  List.iter
    (fun (name, f) ->
      let out = render_to_string (f m) in
      Tutil.check_bool (name ^ " mentions workloads") true
        (contains out "gcc" || contains out "Phase" || contains out "Suite");
      Tutil.check_bool (name ^ " non-empty") true (String.length out > 50))
    (List.map (fun f -> (f.Figures.name, Figures.chart f)) Figures.figures
    @ [ ("table2", Figures.table2); ("summary", Figures.summary) ])

(* A workload without its VLI result is never rendered. *)
let test_figures_refuse_holes () =
  let m = Lazy.force small_matrix in
  let holed =
    { m with
      Matrix.m_workloads =
        List.map
          (fun w ->
            { w with
              Matrix.w_outputs =
                List.filter
                  (function
                    | Matrix.Output (Pipeline.Vli _, _) -> false
                    | Matrix.Output _ -> true)
                  w.Matrix.w_outputs })
          m.Matrix.m_workloads }
  in
  Alcotest.(check (list string)) "both missing" [ "gcc"; "apsi" ]
    (Figures.missing holed);
  Tutil.check_bool "summary refuses" true
    (match render_to_string (Figures.summary holed) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_timeline () =
  let module Timeline = Cbsp_report.Timeline in
  Alcotest.(check char) "digit" '3' (Timeline.phase_char 3);
  Alcotest.(check char) "letter" 'a' (Timeline.phase_char 10);
  Alcotest.(check char) "overflow" '?' (Timeline.phase_char 99);
  Alcotest.(check char) "negative" '?' (Timeline.phase_char (-1));
  let out =
    render_to_string (Timeline.render ~width:8 ~phase_of:(Array.init 20 (fun i -> i mod 3)))
  in
  Tutil.check_bool "strip content" true (contains out "01201201");
  Tutil.check_bool "wrapped with offsets" true
    (contains out "0  " && contains out "8  " && contains out "16  ");
  let legend =
    render_to_string
      (Timeline.render_legend
         ~phases:
           [| { Cbsp.Pipeline.ph_id = 0; ph_weight = 0.75; ph_true_cpi = 2.0;
                ph_sp_cpi = 2.1 } |])
  in
  Tutil.check_bool "legend has weight" true (contains legend "0.750")

let test_speedup_errors_accessor () =
  let m = Lazy.force small_matrix in
  List.iter
    (fun fig ->
      let f = List.find (fun f -> f.Figures.name = fig) Figures.figures in
      Tutil.check_int (fig ^ ": fli and vli per pair") 4
        (List.length f.Figures.series);
      List.iter
        (fun s ->
          let e = series_value m ~fig ~csv:s.Figures.csv ~workload:"gcc" in
          Tutil.check_bool (s.Figures.csv ^ " non-negative") true (e >= 0.0))
        f.Figures.series)
    [ "fig4"; "fig5" ]

let test_csv_export () =
  let module Csv = Cbsp_report.Csv in
  let m = Lazy.force small_matrix in
  List.iter
    (fun what ->
      let header, rows = Csv.figure_rows m ~what in
      Tutil.check_bool (what ^ " header starts with workload") true
        (List.hd header = "workload");
      Tutil.check_int (what ^ " one row per workload")
        (List.length m.Matrix.m_workloads)
        (List.length rows);
      List.iter
        (fun row ->
          Tutil.check_int (what ^ " row width") (List.length header)
            (List.length row);
          (* every data cell parses back as a float *)
          List.iteri
            (fun i cell ->
              if i > 0 && float_of_string_opt cell = None then
                Alcotest.failf "%s: non-numeric cell %S" what cell)
            row)
        rows;
      let text = Csv.to_string m ~what in
      Tutil.check_bool (what ^ " text has lines") true
        (List.length (String.split_on_char '\n' text) >= 3))
    [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "metrics" ];
  Tutil.check_bool "unknown figure rejected" true
    (match Cbsp_report.Csv.figure_rows m ~what:"fig9" with
     | (_ : string list * string list list) -> false
     | exception Invalid_argument _ -> true)

(* The ablation harness shares one engine per workload across every
   variant.  Its [maxk] and [markers] rows must equal each variant run
   on its own fresh engine, and its mappable-key count must equal a
   direct match of the compiled binaries' structure profiles. *)
let test_ablation_rows_equal_fresh_runs () =
  let module Ablation = Cbsp_report.Ablation in
  let module Registry = Cbsp_workloads.Registry in
  let module Config = Cbsp_compiler.Config in
  let module Matching = Cbsp.Matching in
  let module Simpoint = Cbsp_simpoint.Simpoint in
  let name = "art" in
  let entry = Registry.find name in
  let program = entry.Registry.build () in
  let configs =
    Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
  in
  let input = Cbsp_source.Input.ref_input in
  let target = Pipeline.default_target in
  let error binaries =
    Cbsp_util.Stats.mean
      (Array.of_list
         (List.map
            (fun (a, b) -> Cbsp.Metrics.pair_error binaries ~a ~b)
            Matrix.pairs))
  in
  let fli sp_config =
    error
      (Pipeline.run_fli ~sp_config program ~configs ~input ~target)
        .Pipeline.fli_binaries
  in
  let vli ?sp_config ?match_options () =
    Pipeline.run_vli ?sp_config ?match_options program ~configs ~input ~target
  in
  let check_rows what expected (study : Ablation.study) =
    Alcotest.(check (list (pair string (list (pair string (float 0.0))))))
      what expected
      (List.map
         (fun (r : Ablation.row) -> (r.Ablation.label, r.Ablation.values))
         study.Ablation.rows)
  in
  match Ablation.run ~names:[ name ] [ "maxk"; "markers" ] with
  | [ max_k; markers ] ->
    check_rows "max_k rows"
      (List.map
         (fun k ->
           let sp_config = { Simpoint.default_config with max_k = k } in
           ( Printf.sprintf "max_k=%d" k,
             [ ("FLI error", fli sp_config);
               ( "VLI error",
                 error (vli ~sp_config ()).Pipeline.vli_binaries ) ] ))
         [ 5; 10; 15; 20 ])
      max_k;
    let binaries = List.map (Cbsp_compiler.Lower.compile program) configs in
    let profiles =
      List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
    in
    let d = Matching.default_options in
    check_rows "markers rows"
      (List.map
         (fun (label, options) ->
           ( label,
             [ ( "mappable keys",
                 float_of_int
                   (Matching.cardinal
                      (Matching.find ~options ~binaries ~profiles ())) );
               ( "speedup error",
                 error (vli ~match_options:options ()).Pipeline.vli_binaries )
             ] ))
         [ ("all markers", d);
           ("no proc entries", { d with Matching.use_proc = false });
           ("no loop entries", { d with Matching.use_loop_entry = false });
           ("no loop back-edges", { d with Matching.use_loop_back = false }) ])
      markers
  | studies -> Alcotest.failf "%d studies, want 2" (List.length studies)

let () =
  Alcotest.run "report"
    [ ( "rendering",
        [ Tutil.quick "table render" test_table_render;
          Tutil.quick "ragged rows" test_table_ragged_rows;
          Tutil.quick "bar chart" test_bar_chart;
          Tutil.quick "bar chart mismatch" test_bar_chart_mismatch;
          Tutil.quick "pct" test_pct;
          Tutil.quick "table1" test_table1_static;
          Tutil.quick "timeline" test_timeline ] );
      ( "experiment",
        [ Alcotest.test_case "matrix structure" `Slow test_matrix_structure;
          Alcotest.test_case "outputs are pipeline results" `Slow
            test_matrix_outputs_are_pipeline_results;
          Alcotest.test_case "figures render" `Slow test_figures_render;
          Alcotest.test_case "figures refuse holes" `Slow test_figures_refuse_holes;
          Alcotest.test_case "speedup accessor" `Slow test_speedup_errors_accessor;
          Alcotest.test_case "csv export" `Slow test_csv_export ] );
      ( "ablation",
        [ Alcotest.test_case "rows equal fresh runs" `Slow
            test_ablation_rows_equal_fresh_runs ] ) ]
