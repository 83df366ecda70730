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

let mean xs = Stats.mean (Array.of_list xs)

let avg_speedup_error binaries =
  mean
    (List.map
       (fun (a, b) -> Metrics.pair_error binaries ~a ~b)
       Cbsp_validate.Matrix.pairs)

(* Run VLI over [names] with per-run knobs and average the speedup error. *)
let vli_error ?sp_config ?match_options ?primary ~target names =
  mean
    (List.map
       (fun name ->
         let entry = Registry.find name in
         let program = entry.Registry.build () in
         let configs =
           Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
         in
         let vli =
           Pipeline.run_vli ?sp_config ?match_options ?primary program ~configs
             ~input ~target
         in
         avg_speedup_error vli.Pipeline.vli_binaries)
       names)

let fli_error ?sp_config ~target names =
  mean
    (List.map
       (fun name ->
         let entry = Registry.find name in
         let program = entry.Registry.build () in
         let configs =
           Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
         in
         let fli = Pipeline.run_fli ?sp_config program ~configs ~input ~target in
         avg_speedup_error fli.Pipeline.fli_binaries)
       names)

let primary_choice ?(names = default_names) ?(target = Pipeline.default_target) () =
  let labels = [ "32u"; "32o"; "64u"; "64o" ] in
  let rows =
    List.mapi
      (fun primary label ->
        { label = Fmt.str "primary=%s" label;
          values = [ ("speedup error", vli_error ~primary ~target names) ] })
      labels
  in
  { title = "Primary-binary choice (paper: arbitrary)";
    unit_label = "avg speedup error"; rows }

let marker_kinds ?(names = default_names) ?(target = Pipeline.default_target) () =
  let variants =
    [ ("all markers", Matching.default_options);
      ("no proc entries", { Matching.default_options with Matching.use_proc = false });
      ("no loop entries",
       { Matching.default_options with Matching.use_loop_entry = false });
      ("no loop back-edges",
       { Matching.default_options with Matching.use_loop_back = false }) ]
  in
  let mappable_count options =
    mean
      (List.map
         (fun name ->
           let entry = Registry.find name in
           let program = entry.Registry.build () in
           let configs =
             Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
           in
           let binaries = List.map (Cbsp_compiler.Lower.compile program) configs in
           let profiles =
             List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
           in
           float_of_int
             (Matching.cardinal (Matching.find ~options ~binaries ~profiles ())))
         names)
  in
  let rows =
    List.map
      (fun (label, options) ->
        { label;
          values =
            [ ("mappable keys", mappable_count options);
              ("speedup error", vli_error ~match_options:options ~target names) ] })
      variants
  in
  { title = "Marker classes"; unit_label = "avg over ablation workloads"; rows }

let interval_target ?(names = default_names)
    ?(targets = [ 25_000; 50_000; 100_000; 200_000 ]) () =
  let rows =
    List.map
      (fun target ->
        { label = Fmt.str "target=%d" target;
          values =
            [ ("FLI error", fli_error ~target names);
              ("VLI error", vli_error ~target names) ] })
      targets
  in
  { title = "Interval target size"; unit_label = "avg speedup error"; rows }

let max_k ?(names = default_names) ?(ks = [ 5; 10; 15; 20 ])
    ?(target = Pipeline.default_target) () =
  let rows =
    List.map
      (fun k ->
        let sp_config = { Simpoint.default_config with Simpoint.max_k = k } in
        { label = Fmt.str "max_k=%d" k;
          values =
            [ ("FLI error", fli_error ~sp_config ~target names);
              ("VLI error", vli_error ~sp_config ~target names) ] })
      ks
  in
  { title = "SimPoint cluster budget (paper fixes max_k=10)";
    unit_label = "avg speedup error"; rows }

let inline_recovery ?(names = default_names) ?(target = Pipeline.default_target) () =
  let off = { Matching.default_options with Matching.inline_recovery = false } in
  { title = "Inlined-loop recovery (Section 3.3)";
    unit_label = "avg speedup error";
    rows =
      [ { label = "recovery on";
          values = [ ("speedup error", vli_error ~target names) ] };
        { label = "recovery off";
          values = [ ("speedup error", vli_error ~match_options:off ~target names) ] } ] }

let rep_policy ?(names = default_names) ?(target = Pipeline.default_target) () =
  let variants =
    [ ("centroid", Simpoint.Centroid); ("early tol=0", Simpoint.Early 0.0);
      ("early tol=0.05", Simpoint.Early 0.05);
      ("early tol=0.2", Simpoint.Early 0.2) ]
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let sp_config =
          { Simpoint.default_config with Simpoint.rep_policy = policy }
        in
        { label;
          values =
            [ ("FLI error", fli_error ~sp_config ~target names);
              ("VLI error", vli_error ~sp_config ~target names) ] })
      variants
  in
  { title = "Representative policy (early simulation points, PACT'03)";
    unit_label = "avg speedup error"; rows }

let k_search ?(names = default_names) ?(target = Pipeline.default_target) () =
  let variants =
    [ ("exhaustive (all k)", Simpoint.All_k);
      ("binary search", Simpoint.Binary_search) ]
  in
  let rows =
    List.map
      (fun (label, search) ->
        let sp_config =
          { Simpoint.default_config with Simpoint.k_search = search }
        in
        { label;
          values =
            [ ("FLI error", fli_error ~sp_config ~target names);
              ("VLI error", vli_error ~sp_config ~target names) ] })
      variants
  in
  { title = "k search strategy (SimPoint 3.0 binary search)";
    unit_label = "avg speedup error"; rows }

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
