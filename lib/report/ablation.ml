module Pipeline = Cbsp.Pipeline
module Matching = Cbsp.Matching
module Metrics = Cbsp.Metrics
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Simpoint = Cbsp_simpoint.Simpoint
module Stats = Cbsp_util.Stats
module Table = Cbsp_validate.Table

type row = { label : string; values : (string * float) list }

type study = { title : string; unit_label : string; rows : row list }

let default_names = [ "gcc"; "apsi"; "applu"; "mcf"; "swim"; "vortex" ]

let input = Cbsp_source.Input.ref_input

let avg_speedup_error binaries =
  Stats.mean
    (Array.of_list
       (List.map
          (fun (a, b) -> Metrics.pair_error binaries ~a ~b)
          Cbsp_validate.Matrix.pairs))

(* A cell of a study: one pipeline run on a workload's shared engine,
   reduced to a number. *)
let fli ?(sp_config = Simpoint.default_config)
    ?(target = Pipeline.default_target) () engine program configs =
  avg_speedup_error
    (Pipeline.run ~engine ~sp_config Pipeline.Fli program ~configs ~input
       ~target)
      .Pipeline.fli_binaries

let vli ?(sp_config = Simpoint.default_config)
    ?(target = Pipeline.default_target) ?(primary = 0) ?match_options
    ?(read = fun (r : Pipeline.vli_result) -> avg_speedup_error r.vli_binaries)
    () engine program configs =
  read
    (Pipeline.run ~engine ~sp_config
       (Pipeline.Vli { matching = Dynamic; primary; match_options })
       program ~configs ~input ~target)

let both sp_config =
  [ ("FLI error", fli ~sp_config ()); ("VLI error", vli ~sp_config ()) ]

let sp = Simpoint.default_config

let mo = Matching.default_options

(* Every study: its command-line name, title, unit, and rows of
   (column, cell). *)
let table =
  [ ( "primary", "Primary-binary choice (paper: arbitrary)",
      "avg speedup error",
      List.mapi
        (fun primary label ->
          ("primary=" ^ label, [ ("speedup error", vli ~primary ()) ]))
        [ "32u"; "32o"; "64u"; "64o" ] );
    ( "markers", "Marker classes", "avg over ablation workloads",
      List.map
        (fun (label, match_options) ->
          ( label,
            [ ( "mappable keys",
                vli ~match_options
                  ~read:(fun r ->
                    float_of_int (Matching.cardinal r.Pipeline.vli_mappable))
                  () );
              ("speedup error", vli ~match_options ()) ] ))
        [ ("all markers", mo);
          ("no proc entries", { mo with use_proc = false });
          ("no loop entries", { mo with use_loop_entry = false });
          ("no loop back-edges", { mo with use_loop_back = false }) ] );
    ( "target", "Interval target size", "avg speedup error",
      List.map
        (fun target ->
          ( Fmt.str "target=%d" target,
            [ ("FLI error", fli ~target ());
              ("VLI error", vli ~target ()) ] ))
        [ 25_000; 50_000; 100_000; 200_000 ] );
    ( "maxk", "SimPoint cluster budget (paper fixes max_k=10)",
      "avg speedup error",
      List.map
        (fun k -> (Fmt.str "max_k=%d" k, both { sp with max_k = k }))
        [ 5; 10; 15; 20 ] );
    ( "inline", "Inlined-loop recovery (Section 3.3)", "avg speedup error",
      [ ("recovery on", [ ("speedup error", vli ()) ]);
        ( "recovery off",
          [ ( "speedup error",
              vli ~match_options:{ mo with inline_recovery = false } () ) ] )
      ] );
    ( "rep", "Representative policy (early simulation points, PACT'03)",
      "avg speedup error",
      List.map
        (fun (label, rep_policy) -> (label, both { sp with rep_policy }))
        [ ("centroid", Simpoint.Centroid); ("early tol=0", Early 0.0);
          ("early tol=0.05", Early 0.05); ("early tol=0.2", Early 0.2) ] );
    ( "ksearch", "k search strategy (SimPoint 3.0 binary search)",
      "avg speedup error",
      List.map
        (fun (label, k_search) -> (label, both { sp with k_search }))
        [ ("exhaustive (all k)", Simpoint.All_k);
          ("binary search", Binary_search) ] ) ]

let studies = List.map (fun (name, _, _, _) -> name) table

let run ?(names = default_names) what =
  let specs =
    List.map
      (fun name ->
        match List.find_opt (fun (n, _, _, _) -> n = name) table with
        | Some spec -> spec
        | None -> invalid_arg ("Ablation.run: unknown study " ^ name))
      what
  in
  let cells =
    List.concat_map
      (fun (_, _, _, rows) -> List.concat_map (fun (_, cells) -> cells) rows)
      specs
  in
  (* One engine per workload, shared by every cell of every study:
     variants that agree on a cut plan share its passes, and variants
     that differ only in SimPoint settings share every pass. *)
  let per_workload =
    List.map
      (fun name ->
        let entry = Registry.find name in
        let program = entry.Registry.build () in
        let configs =
          Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
        in
        let engine = Pipeline.create_engine () in
        Array.of_list
          (List.map (fun (_, cell) -> cell engine program configs) cells))
      names
  in
  (* Average each cell over the workloads, in [cells] order. *)
  let next = ref (-1) in
  let mean_next () =
    incr next;
    Stats.mean (Array.of_list (List.map (fun vs -> vs.(!next)) per_workload))
  in
  List.map
    (fun (_, title, unit_label, rows) ->
      { title; unit_label;
        rows =
          List.map
            (fun (label, cells) ->
              { label;
                values = List.map (fun (c, _) -> (c, mean_next ())) cells })
            rows })
    specs

let render study ppf =
  Fmt.pf ppf "%s (%s)@." study.title study.unit_label;
  let value_names =
    match study.rows with [] -> [] | r :: _ -> List.map fst r.values
  in
  let columns =
    { Table.header = ""; align = Table.Left }
    :: List.map (fun n -> { Table.header = n; align = Table.Right }) value_names
  in
  let rows =
    List.map
      (fun r ->
        r.label
        :: List.map
             (fun (name, v) ->
               if
                 String.length name >= 5
                 && String.sub name (String.length name - 5) 5 = "error"
               then Table.pct v
               else Fmt.str "%.1f" v)
             r.values)
      study.rows
  in
  Table.render ~columns ~rows ppf
