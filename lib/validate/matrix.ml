module Pipeline = Cbsp.Pipeline
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Input = Cbsp_source.Input
module Simpoint = Cbsp_simpoint.Simpoint
module Scheduler = Cbsp_engine.Scheduler
module Stage = Cbsp_engine.Stage
module Timing = Cbsp_engine.Timing
module Experiment = Cbsp_report.Experiment
module Metrics = Cbsp_obs.Metrics
module Tracer = Cbsp_obs.Tracer

type options = {
  mo_target : int;
  mo_scale : int;
  mo_seed : int;
  mo_max_k : int;
  mo_level : float;
  mo_sample_n : int;
  mo_sample_seeds : int list;
}

let default_options =
  { mo_target = Pipeline.default_target; mo_scale = 10; mo_seed = 42;
    mo_max_k = 10; mo_level = 0.95; mo_sample_n = 64;
    mo_sample_seeds = [ 2007; 2008; 2009 ] }

let methods =
  [ "fli"; "vli"; "vli-static"; "vli-recovered" ] @ Pipeline.sampling_methods

let pairs =
  Experiment.paper_pairs_same_platform @ Experiment.paper_pairs_cross_platform

type workload_result = {
  w_name : string;
  w_cells : Errors.cell list;
  w_truth : Truth.entry list;
  w_mismatches : (string * string) list;
  w_failed : (string * string) list;
  w_timings : Timing.record list;
}

type t = {
  m_workloads : workload_result list;
  m_options : options;
  m_jobs : int;
}

let input_of options =
  Input.make
    ~name:(Printf.sprintf "scale%d" options.mo_scale)
    ~seed:options.mo_seed ~scale:options.mo_scale ()

let sp_config_of options =
  { Simpoint.default_config with Simpoint.max_k = options.mo_max_k }

let method_groups ~options program ~configs =
  let input = input_of options in
  let sp_config = sp_config_of options in
  let target = options.mo_target in
  let vli ~method_ ~static ~semantic engine =
    Pipeline.estimate_records_vli ~method_
      (Pipeline.run_vli ~sp_config ~static ~semantic ~engine program ~configs
         ~input ~target)
  in
  [ ( [ "fli" ],
      fun engine ->
        Pipeline.estimate_records_fli
          (Pipeline.run_fli ~sp_config ~engine program ~configs ~input ~target)
    );
    ([ "vli" ], vli ~method_:"vli" ~static:false ~semantic:false);
    ([ "vli-static" ], vli ~method_:"vli-static" ~static:true ~semantic:false);
    ( [ "vli-recovered" ],
      vli ~method_:"vli-recovered" ~static:true ~semantic:true );
    ( Pipeline.sampling_methods,
      fun engine ->
        Pipeline.estimate_records_sampling
          (Pipeline.run_sampling ~sp_config ~engine ~level:options.mo_level
             ~seeds:options.mo_sample_seeds program ~configs ~input ~target
             ~n:options.mo_sample_n) ) ]

let run_workload ~engine ~options name =
  Tracer.with_span ~name:"validate.workload" ~cat:"validate"
    ~attrs:[ ("workload", name) ]
  @@ fun () ->
  let entry = Registry.find name in
  let program = entry.Registry.build () in
  let configs =
    Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
  in
  (* Run each method group, converting a raised exception into failure
     entries for every method the group covers: a matrix cell may be
     skipped, a method may fail, but the matrix itself always completes
     and reports exactly what it could not evaluate. *)
  let failed = ref [] in
  let records =
    List.concat_map
      (fun (names, run) ->
        try run engine with
        | exn ->
          let reason = Printexc.to_string exn in
          failed := !failed @ List.map (fun m -> (m, reason)) names;
          [])
      (method_groups ~options program ~configs)
  in
  (* Only the error arithmetic runs under Stage.Validate — the pipeline
     work above already timed itself under its own stages, and a
     validate job that re-covered them would double-count the run. *)
  let cells =
    Timing.time engine.Pipeline.eng_timing ~stage:Stage.Validate ~label:name
      ~in_size:(List.length records)
      ~out_size:List.length
      (fun () ->
        Errors.cpi_cells ~workload:name records
        @ Errors.speedup_cells ~workload:name ~pairs records)
  in
  let skipped = List.length (List.filter Errors.is_skipped cells) in
  Metrics.incr ~by:(List.length cells) (Metrics.counter "validate.cells");
  Metrics.incr ~by:skipped (Metrics.counter "validate.skipped_cells");
  Metrics.incr ~by:(List.length !failed) (Metrics.counter "validate.failures");
  Metrics.incr (Metrics.counter "validate.workloads");
  { w_name = name; w_cells = cells; w_truth = Truth.table records;
    w_mismatches = Truth.mismatches records; w_failed = !failed;
    w_timings = Pipeline.timings engine }

let run ?(options = default_options) ?names ?(jobs = 1) ?cache_dir
    ?(progress = fun _ -> ()) () =
  let names =
    match names with None -> Registry.names | Some names -> names
  in
  (* Sanity-check names up front: Registry.find inside a worker domain
     would surface as a per-method failure, not the caller's typo. *)
  List.iter (fun n -> ignore (Registry.find n)) names;
  Tracer.with_span ~name:"validate.matrix" ~cat:"validate"
    ~attrs:[ ("workloads", string_of_int (List.length names)) ]
  @@ fun () ->
  let workloads =
    Scheduler.parallel_map ~jobs
      (fun name ->
        progress name;
        (* One engine per workload, like Experiment.run_suite: all four
           method groups share its binary/profile stores, and a shared
           ?cache_dir persists whole results across processes (the
           Diskcache shards are safe under concurrent writers). *)
        let engine = Pipeline.create_engine ~jobs ?cache_dir () in
        run_workload ~engine ~options name)
      names
  in
  { m_workloads = workloads; m_options = options; m_jobs = jobs }

let timings t = List.concat_map (fun w -> w.w_timings) t.m_workloads

let cells t = List.concat_map (fun w -> w.w_cells) t.m_workloads

let failures t =
  List.concat_map
    (fun w -> List.map (fun (m, r) -> (w.w_name, m, r)) w.w_failed)
    t.m_workloads

let truth_mismatches t =
  List.concat_map
    (fun w -> List.map (fun (m, l) -> (w.w_name, m, l)) w.w_mismatches)
    t.m_workloads
