module Pipeline = Cbsp.Pipeline
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Input = Cbsp_source.Input
module Simpoint = Cbsp_simpoint.Simpoint
module Scheduler = Cbsp_engine.Scheduler
module Store = Cbsp_engine.Store
module Diskcache = Cbsp_engine.Diskcache
module Stage = Cbsp_engine.Stage
module Timing = Cbsp_engine.Timing
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
  mo_primary : int;
}

let default_options =
  { mo_target = Pipeline.default_target; mo_scale = 10; mo_seed = 42;
    mo_max_k = 10; mo_level = 0.95; mo_sample_n = 64;
    mo_sample_seeds = [ 2007; 2008; 2009 ]; mo_primary = 0 }

let estimators options =
  let vli matching =
    Pipeline.Any
      (Vli { matching; primary = options.mo_primary; match_options = None })
  in
  [ Pipeline.Any Fli; vli Dynamic; vli Static; vli Recovered;
    Any
      (Sampling
         { level = options.mo_level; seeds = options.mo_sample_seeds;
           n = options.mo_sample_n }) ]

let methods = List.concat_map Pipeline.names (estimators default_options)

let same_platform_pairs = [ ("32u", "32o"); ("64u", "64o") ]

let cross_platform_pairs = [ ("32u", "64u"); ("32o", "64o") ]

let pairs = same_platform_pairs @ cross_platform_pairs

type output = Pipeline.output = Output : 'r Pipeline.estimator * 'r -> output

type workload_result = {
  w_name : string;
  w_cells : Errors.cell list;
  w_truth : Truth.entry list;
  w_mismatches : (string * string) list;
  w_failed : (string * string) list;
  w_outputs : output list;
  w_timings : Timing.record list;
}

let fli w =
  List.find_map
    (fun (Output (est, r)) : Pipeline.fli_result option ->
      match est with Fli -> Some r | Vli _ | Sampling _ -> None)
    w.w_outputs

let vli w =
  List.find_map
    (fun (Output (est, r)) : Pipeline.vli_result option ->
      match est with
      | Vli { matching = Dynamic; _ } -> Some r
      | Fli | Vli _ | Sampling _ -> None)
    w.w_outputs

let sampling w =
  List.find_map
    (fun (Output (est, r)) : Pipeline.sampling_result option ->
      match est with Sampling _ -> Some r | Fli | Vli _ -> None)
    w.w_outputs

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

(* The running build: a digest of its executable, read once per
   process.  An executable that cannot be read gets an identity of its
   own, so its lookups miss rather than trust another build's bytes. *)
let build_id =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ ->
       Printf.sprintf "unread-%d"
         (Random.State.bits (Random.State.make_self_init ())))

(* A workload's outputs are persisted under everything that determines
   them.  The build stands for what the code decides and the key cannot
   name: the sampler list, and the layout of the [Marshal]ed result
   types, which no decoder checks.  Another build's entry is a miss. *)
let workload_key ~build ~options program ~configs =
  Store.digest
    ( "workload/2", build, estimators options, program, configs,
      input_of options, options.mo_target, sp_config_of options )

let run_workload ~store ~engine ~options name =
  Tracer.with_span ~name:"validate.workload" ~cat:"validate"
    ~attrs:[ ("workload", name) ]
  @@ fun () ->
  let entry = Registry.find name in
  let program = entry.Registry.build () in
  let configs =
    Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
  in
  (* All five estimators in one batch, so each binary executes once for
     every pass they ask of it.  An estimator that raised becomes failure
     entries for every method it scores: a matrix cell may be skipped, a
     method may fail, but the matrix itself always completes and reports
     exactly what it could not evaluate.  With a [store], cached outputs
     skip the batch, and a batch's outputs are published only when no
     estimator raised: a failure is recomputed, never replayed. *)
  let estimators = estimators options in
  let cache =
    Option.map
      (fun (s, build) -> (s, workload_key ~build ~options program ~configs))
      store
  in
  let outcomes =
    match Option.bind cache (fun (s, key) -> Store.find_opt s ~key) with
    | Some outputs -> List.map Result.ok outputs
    | None ->
      let outcomes =
        Pipeline.run_batch ~sp_config:(sp_config_of options) ~engine
          estimators program ~configs ~input:(input_of options)
          ~target:options.mo_target
      in
      (match cache with
      | Some (s, key) when List.for_all Result.is_ok outcomes ->
        let outputs = List.filter_map Result.to_option outcomes in
        ignore (Store.find_or_compute s ~key (fun () -> outputs) : output list)
      | _ -> ());
      outcomes
  in
  let outputs = List.filter_map Result.to_option outcomes in
  let failed =
    List.concat
      (List.map2
         (fun est -> function
           | Ok _ -> []
           | Error exn ->
             let reason = Printexc.to_string exn in
             List.map (fun m -> (m, reason)) (Pipeline.names est))
         estimators outcomes)
  in
  let records =
    List.concat_map (fun (Output (est, r)) -> Pipeline.records est r) outputs
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
  Metrics.incr ~by:(List.length failed) (Metrics.counter "validate.failures");
  Metrics.incr (Metrics.counter "validate.workloads");
  { w_name = name; w_cells = cells; w_truth = Truth.table records;
    w_mismatches = Truth.mismatches records; w_failed = failed;
    w_outputs = outputs; w_timings = Pipeline.timings engine }

(* LRU bound of the cache directory, in bytes. *)
let disk_budget = 256 * 1024 * 1024

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
  (* One store for every workload domain.  Its Diskcache publishes by
     atomic rename, so concurrent writers of one key, in this process or
     another, leave one intact entry.  The build identity is read here,
     before the domains start: two domains forcing one lazy value at
     once would raise. *)
  let store =
    Option.map
      (fun dir ->
        let dir = Filename.concat dir "workloads" in
        let disk =
          Diskcache.create ~dir ~byte_budget:disk_budget ~name:"workloads" ()
        in
        (Store.create ~name:"workloads" ~disk (), Lazy.force build_id))
      cache_dir
  in
  let workloads =
    Scheduler.parallel_map ~jobs
      (fun name ->
        progress name;
        (* One engine per workload: all five estimators share its
           binary/profile stores and collection runs. *)
        let engine = Pipeline.create_engine ~jobs () in
        run_workload ~store ~engine ~options name)
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
