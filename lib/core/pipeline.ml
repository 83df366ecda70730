module Config = Cbsp_compiler.Config
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Structprof = Cbsp_profile.Structprof
module Simpoint = Cbsp_simpoint.Simpoint
module Cpu = Cbsp_cache.Cpu
module Stats = Cbsp_util.Stats
module Scheduler = Cbsp_engine.Scheduler
module Store = Cbsp_engine.Store
module Diskcache = Cbsp_engine.Diskcache
module Timing = Cbsp_engine.Timing
module Stage = Cbsp_engine.Stage
module Rng = Cbsp_util.Rng
module Sampler = Cbsp_sampling.Sampler
module Strata = Cbsp_sampling.Strata
module Tracer = Cbsp_obs.Tracer
module Prover = Cbsp_analysis.Prover
module Fingerprint = Cbsp_analysis.Fingerprint
module Locality = Cbsp_analysis.Locality
module Hierarchy = Cbsp_cache.Hierarchy

type truth = { t_insts : int; t_cycles : float; t_cpi : float }

type metric = { m_name : string; m_true_pki : float; m_est_pki : float }

type phase_stat = {
  ph_id : int;
  ph_weight : float;
  ph_true_cpi : float;
  ph_sp_cpi : float;
}

type binary_result = {
  br_config : Config.t;
  br_truth : truth;
  br_est_cpi : float;
  br_est_cycles : float;
  br_cpi_error : float;
  br_n_points : int;
  br_n_intervals : int;
  br_avg_interval : float;
  br_phases : phase_stat array;
  br_metrics : metric array;
}

type points = {
  pt_target : int;
  pt_boundaries : Interval.boundary array;
  pt_phase_of : int array;
  pt_reps : int array;
}

type fli_result = { fli_binaries : binary_result list; fli_target : int }

type vli_result = {
  vli_binaries : binary_result list;
  vli_primary : int;
  vli_mappable : Matching.t;
  vli_n_boundaries : int;
  vli_target : int;
  vli_points : points;
}

let default_target = 100_000

type sampler_run = { sr_seed : int; sr_estimate : Sampler.estimate }

type method_runs = { mr_method : string; mr_runs : sampler_run list }

type sampling_binary = {
  sb_config : Config.t;
  sb_truth : truth;
  sb_sp_cpi : float;
  sb_sp_error : float;
  sb_sp_cost_insts : float;
  sb_n_intervals : int;
  sb_n_live : int;
  sb_methods : method_runs list;
}

type sampling_result = {
  smp_binaries : sampling_binary list;
  smp_target : int;
  smp_n : int;
  smp_level : float;
  smp_seeds : int list;
}

let sampling_methods =
  [ "srs"; "systematic"; "strat-phase"; "strat-mix"; "strat-static" ]

(* One (method, binary) estimate in a shape shared by every pipeline
   flavor, so the validation harness can fold FLI, VLI and sampling
   results through a single error computation. *)
type estimate_record = {
  er_method : string;
  er_label : string;
  er_truth : truth;
  er_est_cpi : float;
  er_est_cycles : float;
}

type clustering = {
  cl_phase_of : int array;               (* interval index -> phase *)
  cl_reps : int array;                   (* phase -> interval index *)
  cl_n_phases : int;
}

(* How a collection pass cuts its intervals.  [Fixed]: every [target]
   instructions (FLI and the samplers).  [Recorded]: a VLI primary,
   cutting at the first cut-key marker past [target]; the keys are the
   primary's local names, sorted.  [Replayed]: a VLI follower or a
   points replay, cutting exactly at the given local boundaries. *)
type plan =
  | Fixed of int
  | Recorded of int * Marker.key list
  | Replayed of Interval.boundary array

(* What consumers read of one pass, and nothing more: no BBV and no
   collector scratch outlives the pass. *)
type pass = {
  ps_truth : truth;
  ps_counter_names : string list;
  ps_stats : Streamprof.stats;
  ps_clustering : clustering option;        (* None for [Replayed] *)
  ps_boundaries : Interval.boundary array;  (* [Recorded]: the cuts made *)
  ps_mix : float array;       (* [Fixed]: per-interval access mix *)
  ps_locality : int array;    (* [Fixed]: per-interval locality class *)
}

let n_intervals pass = Streamprof.(Array.length pass.ps_stats.st_insts)

(* ------------------------------------------------------------------ *)
(* The engine: scheduler width + artifact stores + timing sink.        *)

type result_caches = {
  rc_fli : fli_result Store.t;
  rc_vli : vli_result Store.t;
  rc_sampling : sampling_result Store.t;
}

type engine = {
  eng_jobs : int;
  eng_binaries : Binary.t Store.t;
  eng_profiles : Structprof.t Store.t;
  eng_passes : pass Store.t;
  eng_results : result_caches option;
  eng_timing : Timing.sink;
}

(* Per-store LRU bound of the disk layer, in bytes. *)
let disk_budget = 256 * 1024 * 1024

let create_engine ?(jobs = 1) ?cache_dir () =
  let disk sub =
    match cache_dir with
    | None -> None
    | Some dir ->
      Some
        (Diskcache.create
           ~dir:(Filename.concat dir sub)
           ~byte_budget:disk_budget ~name:sub ())
  in
  let store name = Store.create ~name ?disk:(disk name) () in
  let results =
    match cache_dir with
    | None -> None
    | Some _ ->
      Some
        { rc_fli = store "results-fli"; rc_vli = store "results-vli";
          rc_sampling = store "results-sampling" }
  in
  { eng_jobs = max 1 jobs;
    eng_binaries = store "binaries";
    eng_profiles = store "profiles";
    (* In memory only: a pass is cheap next to the whole results the
       disk layer keeps, and its key holds a full boundary list. *)
    eng_passes = Store.create ~name:"passes" ();
    eng_results = results;
    eng_timing = Timing.create () }

let timings eng = Timing.records eng.eng_timing

let compile_stats eng = (Store.computes eng.eng_binaries, Store.hits eng.eng_binaries)

let profile_stats eng = (Store.computes eng.eng_profiles, Store.hits eng.eng_profiles)

(* Artifacts are keyed by the content of everything that determines them:
   a compiled binary by (program, config), a structure profile by
   (program, config, input) — the binary itself is a pure function of the
   first two, so its key doubles as part of the profile's. *)
let binary_key program (config : Config.t) = Store.digest (program, config)

let compile eng (program : Cbsp_source.Ast.program) config =
  Store.find_or_compute eng.eng_binaries ~key:(binary_key program config)
    (fun () ->
      Timing.time eng.eng_timing ~stage:Stage.Compile
        ~label:(program.Cbsp_source.Ast.prog_name ^ "/" ^ Config.label config)
        ~in_size:(List.length program.Cbsp_source.Ast.procs)
        ~out_size:(fun b -> b.Binary.n_blocks)
        (fun () -> Lower.compile program config))

let struct_profile eng (program : Cbsp_source.Ast.program) (binary : Binary.t)
    input =
  Store.find_or_compute eng.eng_profiles
    ~key:(Store.digest (binary_key program binary.Binary.config, input))
    (fun () ->
      Timing.time eng.eng_timing ~stage:Stage.Struct_profile
        ~label:
          (program.Cbsp_source.Ast.prog_name ^ "/"
          ^ Config.label binary.Binary.config)
        ~in_size:binary.Binary.n_blocks
        ~out_size:(fun p -> Marker.Map.cardinal p)
        (fun () -> Structprof.profile binary input))

(* Spread a Simpoint result over the full interval numbering: live
   intervals get their cluster's phase, empty (trailing) intervals
   inherit the previous live interval's phase, and representative
   indices are translated back to original interval indices. *)
let extend_clustering ~n ~live_idx ~is_live sp =
  let phase_of = Array.make n 0 in
  Array.iteri (fun j phase -> phase_of.(live_idx.(j)) <- phase) sp.Simpoint.phase_of;
  let last = ref 0 in
  for i = 0 to n - 1 do
    if is_live i then last := phase_of.(i) else phase_of.(i) <- !last
  done;
  let reps =
    Array.map (fun p -> live_idx.(p.Simpoint.rep)) sp.Simpoint.points
  in
  { cl_phase_of = phase_of; cl_reps = reps; cl_n_phases = sp.Simpoint.k }

(* Cluster the non-empty intervals; extend phase labels over empty
   (trailing) intervals by inheriting the previous label so every interval
   index has a phase and representative indices refer to the original
   interval numbering. *)
let cluster ~sp_config (intervals : Interval.interval array) =
  let live =
    Array.to_list (Array.mapi (fun i iv -> (i, iv)) intervals)
    |> List.filter (fun (_, iv) -> iv.Interval.insts > 0)
  in
  let live_idx = Array.of_list (List.map fst live) in
  let weights =
    Array.of_list (List.map (fun (_, iv) -> float_of_int iv.Interval.insts) live)
  in
  let bbvs = Array.of_list (List.map (fun (_, iv) -> iv.Interval.bbv) live) in
  let sp = Simpoint.pick ~config:sp_config ~weights ~bbvs () in
  extend_clustering ~n:(Array.length intervals) ~live_idx
    ~is_live:(fun i -> intervals.(i).Interval.insts > 0)
    sp

(* The streaming counterpart: the collector already normalized and
   projected each live interval at emission time, so clustering starts
   from [pick_projected] — same floats, same result as [cluster] over
   the materialized intervals. *)
let cluster_streamed ~sp_config (col : Streamprof.t) =
  let stats = Streamprof.stats col in
  let { Streamprof.ci_live_idx; ci_weights; ci_points } =
    Streamprof.cluster_inputs col
  in
  let sp =
    Simpoint.pick_projected ~config:sp_config ~weights:ci_weights
      ~points:ci_points ()
  in
  extend_clustering ~n:(Array.length stats.Streamprof.st_insts)
    ~live_idx:ci_live_idx
    ~is_live:(fun i -> stats.Streamprof.st_insts.(i) > 0)
    sp

(* Per-binary phase statistics and the SimPoint CPI estimate, from this
   binary's own per-interval measurements and the (shared or per-binary)
   clustering.  This is exactly the paper's step 6: weights are the
   fraction of *this binary's* dynamic instructions per phase.  Only the
   per-interval scalars ([insts], [cycles], [extras]) are read — never
   BBVs — so the collector's lightweight stats serve the streaming and
   materialized paths identically. *)
let summarize ~config ~truth ~counter_names ~clustering
    (stats : Streamprof.stats) =
  let { Streamprof.st_insts = insts; st_cycles = cycles; st_n_extras = n_extras;
        st_extras = extras } =
    stats
  in
  let k = clustering.cl_n_phases in
  let insts_per_phase = Array.make k 0.0 in
  let cycles_per_phase = Array.make k 0.0 in
  Array.iteri
    (fun i n ->
      let p = clustering.cl_phase_of.(i) in
      insts_per_phase.(p) <- insts_per_phase.(p) +. float_of_int n;
      cycles_per_phase.(p) <- cycles_per_phase.(p) +. cycles.(i))
    insts;
  let total_insts = Stats.sum insts_per_phase in
  let phases =
    Array.init k (fun p ->
        let rep = clustering.cl_reps.(p) in
        let sp_cpi =
          if insts.(rep) = 0 then 0.0
          else cycles.(rep) /. float_of_int insts.(rep)
        in
        let true_cpi =
          if insts_per_phase.(p) = 0.0 then 0.0
          else cycles_per_phase.(p) /. insts_per_phase.(p)
        in
        { ph_id = p;
          ph_weight = (if total_insts = 0.0 then 0.0 else insts_per_phase.(p) /. total_insts);
          ph_true_cpi = true_cpi; ph_sp_cpi = sp_cpi })
  in
  let est_cpi =
    Array.fold_left (fun acc ph -> acc +. (ph.ph_weight *. ph.ph_sp_cpi)) 0.0 phases
  in
  (* Extra metrics (per 1000 instructions): truth from interval totals,
     estimate from the representatives, exactly like CPI. *)
  let metrics =
    List.mapi
      (fun e name ->
        let total = ref 0.0 in
        if e < n_extras then
          Array.iteri
            (fun i _ -> total := !total +. extras.((i * n_extras) + e))
            insts;
        let true_pki =
          if truth.t_insts = 0 then 0.0
          else !total /. float_of_int truth.t_insts *. 1000.0
        in
        let est_pki =
          Array.fold_left
            (fun acc ph ->
              let rep = clustering.cl_reps.(ph.ph_id) in
              if insts.(rep) = 0 || e >= n_extras then acc
              else
                acc
                +. ph.ph_weight
                   *. (extras.((rep * n_extras) + e)
                       /. float_of_int insts.(rep) *. 1000.0))
            0.0 phases
        in
        { m_name = name; m_true_pki = true_pki; m_est_pki = est_pki })
      (if n_extras = 0 then [] else counter_names)
    |> Array.of_list
  in
  let n_live, live_insts =
    Array.fold_left
      (fun (n, sum) i -> if i > 0 then (n + 1, sum + i) else (n, sum))
      (0, 0) insts
  in
  let avg_interval =
    if n_live = 0 then 0.0 else float_of_int live_insts /. float_of_int n_live
  in
  { br_config = config; br_truth = truth; br_est_cpi = est_cpi;
    br_est_cycles = est_cpi *. float_of_int truth.t_insts;
    br_cpi_error = Stats.relative_error ~truth:truth.t_cpi ~estimate:est_cpi;
    br_n_points = k; br_n_intervals = Array.length insts;
    br_avg_interval = avg_interval; br_phases = phases; br_metrics = metrics }

let summarize_pass eng ~label ~config ~clustering pass =
  Timing.time eng.eng_timing ~stage:Stage.Summarize ~label
    ~in_size:(n_intervals pass)
    ~out_size:(fun r -> Array.length r.br_phases)
    (fun () ->
      summarize ~config ~truth:pass.ps_truth
        ~counter_names:pass.ps_counter_names ~clustering pass.ps_stats)

let measure_truth totals cpu =
  let insts = totals.Executor.insts in
  { t_insts = insts; t_cycles = Cpu.cycles cpu;
    t_cpi = (if insts = 0 then 0.0 else Cpu.cycles cpu /. float_of_int insts) }

let job_label (program : Cbsp_source.Ast.program) config ~kind =
  program.Cbsp_source.Ast.prog_name ^ "/" ^ Config.label config ^ "/" ^ kind

let llc_bytes cache_config =
  let cfg =
    match cache_config with Some c -> c | None -> Hierarchy.paper_table1
  in
  match List.rev cfg.Hierarchy.levels with
  | (last : Hierarchy.level_config) :: _ -> last.Hierarchy.lv_capacity
  | [] -> 0

(* One streaming collection pass: a full execution through the cache
   model with [plan]'s interval builder feeding a [Streamprof]
   collector.  The builder must observe each block BEFORE the CPU
   charges it, so a cut's cycle sample excludes the block that starts
   the next interval.  A [Fixed] pass also reduces each interval's BBV
   to the samplers' phase-1 features at emission time, so no consumer
   ever needs the BBVs back. *)
let run_pass ~timing ~label ~sp_config ~cache_config (binary : Binary.t)
    ~input plan =
  let n_blocks = binary.Binary.n_blocks in
  let cpu = Cpu.create ?config:cache_config () in
  let cycles () = Cpu.cycles cpu and extras () = Cpu.extra_counters cpu in
  let col =
    match plan with
    | Replayed _ -> Streamprof.create_stats_only ()
    | Fixed _ | Recorded _ -> Streamprof.create ~sp_config ~n_blocks ()
  in
  let mix_rev = ref [] and locality_rev = ref [] in
  let obs, finish =
    match plan with
    | Fixed target ->
      let mix_of = Strata.access_mix_of binary in
      let locality_of =
        Strata.static_locality_of binary ~llc_bytes:(llc_bytes cache_config)
      in
      let emit (iv : Interval.interval) =
        mix_rev := mix_of iv.Interval.bbv :: !mix_rev;
        locality_rev := locality_of iv.Interval.bbv :: !locality_rev;
        Streamprof.emit col iv
      in
      let obs, finish =
        Interval.fli_stream ~n_blocks ~target ~cycles ~extras ~emit ()
      in
      (obs, fun () -> ignore (finish () : int); [||])
    | Recorded (target, keys) ->
      let cut = Marker.Set.of_list keys in
      let obs, finish =
        Interval.vli_recorder_stream ~n_blocks ~target
          ~mappable:(fun key -> Marker.Set.mem key cut)
          ~cycles ~extras ~emit:(Streamprof.emit col) ()
      in
      (obs, fun () -> snd (finish ()))
    | Replayed boundaries ->
      let obs, finish =
        Interval.vli_follower_stream ~boundaries ~cycles ~extras
          ~emit:(Streamprof.emit col) ()
      in
      (obs, fun () -> ignore (finish () : int); [||])
  in
  let totals, boundaries =
    Timing.time timing ~stage:Stage.Interval_collection ~label ~in_size:n_blocks
      ~out_size:(fun (t, _) -> t.Executor.insts)
      (fun () ->
        let totals =
          Executor.run binary input (Executor.compose [ obs; Cpu.observer cpu ])
        in
        (totals, finish ()))
  in
  let stats = Streamprof.stats col in
  let clustering =
    match plan with
    | Replayed _ -> None
    | Fixed _ | Recorded _ ->
      Some
        (Timing.time timing ~stage:Stage.Clustering ~label
           ~in_size:(Array.length stats.Streamprof.st_insts)
           ~out_size:(fun c -> c.cl_n_phases)
           (fun () -> cluster_streamed ~sp_config col))
  in
  { ps_truth = measure_truth totals cpu;
    ps_counter_names = Cpu.extra_counter_names cpu; ps_stats = stats;
    ps_clustering = clustering; ps_boundaries = boundaries;
    ps_mix = Array.of_list (List.rev !mix_rev);
    ps_locality = Array.of_list (List.rev !locality_rev) }

(* Every engine-owned streaming pass goes through here.  The key is
   everything that determines a pass, so FLI and the samplers share one
   [Fixed] pass per binary, and VLI methods whose cut plans agree share
   their primary and follower passes. *)
let collect eng program (binary : Binary.t) ~label ~sp_config ?cache_config
    ~input plan =
  let key =
    Store.digest
      ( binary_key program binary.Binary.config, input, cache_config,
        sp_config, plan )
  in
  Store.find_or_compute eng.eng_passes ~key (fun () ->
      run_pass ~timing:eng.eng_timing ~label ~sp_config ~cache_config binary
        ~input plan)

(* The pre-streaming reference for [?materialize:true]: every interval
   materialized with its BBV, then clustered.  [observe] builds the
   interval observer from the CPU's counters.  Never reads or fills the
   pass store, so the differential tests compare two real passes. *)
let materialized_pass eng ~label ~sp_config ~cache_config (binary : Binary.t)
    ~input ~observe =
  let cpu = Cpu.create ?config:cache_config () in
  let obs, read =
    observe
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
  in
  let totals, (intervals, boundaries) =
    Timing.time eng.eng_timing ~stage:Stage.Interval_collection ~label
      ~in_size:binary.Binary.n_blocks
      ~out_size:(fun (t, _) -> t.Executor.insts)
      (fun () ->
        let totals =
          Executor.run binary input (Executor.compose [ obs; Cpu.observer cpu ])
        in
        (totals, read ()))
  in
  let clustering =
    Timing.time eng.eng_timing ~stage:Stage.Clustering ~label
      ~in_size:(Array.length intervals)
      ~out_size:(fun c -> c.cl_n_phases)
      (fun () -> cluster ~sp_config intervals)
  in
  { ps_truth = measure_truth totals cpu;
    ps_counter_names = Cpu.extra_counter_names cpu;
    ps_stats = Streamprof.stats_of_intervals intervals;
    ps_clustering = Some clustering; ps_boundaries = boundaries;
    ps_mix = [||]; ps_locality = [||] }

let clustering_of pass =
  match pass.ps_clustering with
  | Some c -> c
  | None -> invalid_arg "Pipeline: a replayed pass has no clustering"

let run_fli_uncached ~sp_config ~cache_config ~materialize ~eng program
    ~configs ~input ~target =
  Tracer.with_span ~name:"run_fli" ~cat:"pipeline"
    ~attrs:[ ("program", program.Cbsp_source.Ast.prog_name) ]
  @@ fun () ->
  (* One job per configuration: compile (memoized), one full execution
     collecting fixed-length intervals, per-binary clustering, summary.
     Jobs are independent, so the scheduler may run them concurrently;
     results keep the configs' order either way. *)
  let binaries =
    Scheduler.parallel_map ~jobs:eng.eng_jobs
      (fun (config : Config.t) ->
        let binary = compile eng program config in
        let label = job_label program config ~kind:"fli" in
        let pass =
          if materialize then
            materialized_pass eng ~label ~sp_config ~cache_config binary
              ~input ~observe:(fun ~cycles ~extras ->
                let obs, read =
                  Interval.fli_observer ~n_blocks:binary.Binary.n_blocks
                    ~target ~cycles ~extras ()
                in
                (obs, fun () -> (read (), [||])))
          else
            collect eng program binary ~label ~sp_config ?cache_config ~input
              (Fixed target)
        in
        summarize_pass eng ~label ~config ~clustering:(clustering_of pass)
          pass)
      configs
  in
  { fli_binaries = binaries; fli_target = target }

let run_fli ?(sp_config = Simpoint.default_config) ?cache_config
    ?(materialize = false) ?engine program ~configs ~input ~target =
  if configs = [] then invalid_arg "Pipeline.run_fli: no configs";
  let eng = match engine with Some e -> e | None -> create_engine () in
  let go () =
    run_fli_uncached ~sp_config ~cache_config ~materialize ~eng program
      ~configs ~input ~target
  in
  match eng.eng_results with
  | None -> go ()
  | Some rc ->
    (* Whole-result memoization, keyed by everything that determines the
       result.  [materialize] is deliberately absent: both regimes are
       bit-identical by the streaming invariant, so they share one
       entry.  Engines without a persistent cache skip this layer
       entirely — the differential tests compare regimes through such
       engines. *)
    let key =
      Store.digest
        ("fli/1", program, configs, input, target, sp_config, cache_config)
    in
    Store.find_or_compute rc.rc_fli ~key go

let m_profile_skips = Cbsp_obs.Metrics.counter "analysis.profile_skips"

let m_dynamic_fallbacks = Cbsp_obs.Metrics.counter "analysis.dynamic_fallbacks"

(* Steps 1-2 of the VLI method, statically: prove mappability from the
   symbolic marker counts and profile only when an undecided residue
   remains.  The proved verdicts are filtered through the same
   eligibility rules a dynamic match under [match_options] would apply,
   so ablations stay comparable. *)
let static_report eng program ~binaries ~input =
  let prog_name = program.Cbsp_source.Ast.prog_name in
  Timing.time eng.eng_timing ~stage:Stage.Analysis
    ~label:(prog_name ^ "/static") ~in_size:(List.length binaries)
    ~out_size:(fun r -> Marker.Map.cardinal r.Prover.pr_verdicts)
    (fun () -> Prover.prove ~binaries ~scale:input.Cbsp_source.Input.scale)

let static_matching_of_report eng program ~match_options ~binaries ~input
    report =
  let prog_name = program.Cbsp_source.Ast.prog_name in
  let eligible = Matching.eligibility ?options:match_options ~binaries () in
  let proved =
    Marker.Map.filter (fun key _ -> eligible key) report.Prover.pr_proved
  in
  (* One denominator for both branches below, counted through the same
     eligibility filter a dynamic match applies — [Matching.find]'s
     restricted candidate count would cover only the residue. *)
  let candidates =
    Marker.Map.cardinal
      (Marker.Map.filter (fun key _ -> eligible key) report.Prover.pr_verdicts)
  in
  let residue = Prover.residue report in
  if Marker.Set.is_empty residue then begin
    (* Every candidate is decided: the profiling stage is not needed at
       all for this workload. *)
    Cbsp_obs.Metrics.incr ~by:(List.length binaries) m_profile_skips;
    Matching.of_counts ~counts:proved ~candidates
  end
  else begin
    Cbsp_obs.Metrics.incr m_dynamic_fallbacks;
    let profiles =
      Scheduler.parallel_map ~jobs:eng.eng_jobs
        (fun b -> struct_profile eng program b input)
        binaries
    in
    let dyn =
      Timing.time eng.eng_timing ~stage:Stage.Matching
        ~label:(prog_name ^ "/vli-residue")
        ~in_size:(Marker.Set.cardinal residue) ~out_size:Matching.cardinal
        (fun () ->
          Matching.find ?options:match_options ~restrict:residue ~binaries
            ~profiles ())
    in
    Matching.of_counts
      ~counts:
        (Marker.Map.union (fun _ proved _ -> Some proved) proved
           dyn.Matching.counts)
      ~candidates
  end

let static_matching eng program ~match_options ~binaries ~input =
  static_matching_of_report eng program ~match_options ~binaries ~input
    (static_report eng program ~binaries ~input)

let m_semantic_lost = Cbsp_obs.Metrics.counter "match.semantic_lost"

let m_semantic_identified = Cbsp_obs.Metrics.counter "match.semantic_identified"

let m_semantic_recovered = Cbsp_obs.Metrics.counter "match.semantic_recovered"

let m_semantic_demoted = Cbsp_obs.Metrics.counter "match.semantic_demoted"

(* The semantic mode: static matching, then fingerprint recovery over
   the markers the prover lost to loop splitting.  Only order-safe
   (cuttable) pairs join the cut set, and exactly-matched keys the
   fission displaced are demoted from it — otherwise a recorded boundary
   list can be unreachable in a split follower (see Fingerprint). *)
let semantic_matching eng program ~match_options ~binaries ~input =
  let prog_name = program.Cbsp_source.Ast.prog_name in
  let report = static_report eng program ~binaries ~input in
  let base =
    static_matching_of_report eng program ~match_options ~binaries ~input
      report
  in
  let recovery =
    Timing.time eng.eng_timing ~stage:Stage.Fingerprint
      ~label:(prog_name ^ "/semantic")
      ~in_size:(Marker.Map.cardinal report.Prover.pr_verdicts)
      ~out_size:Fingerprint.n_cuttable
      (fun () -> Fingerprint.recover report)
  in
  Cbsp_obs.Metrics.incr ~by:(Fingerprint.n_lost recovery) m_semantic_lost;
  Cbsp_obs.Metrics.incr ~by:(Fingerprint.n_identified recovery)
    m_semantic_identified;
  Cbsp_obs.Metrics.incr ~by:(Fingerprint.n_cuttable recovery)
    m_semantic_recovered;
  Cbsp_obs.Metrics.incr
    ~by:(Marker.Set.cardinal recovery.Fingerprint.rc_demoted)
    m_semantic_demoted;
  let demoted = recovery.Fingerprint.rc_demoted in
  let counts =
    Marker.Map.union
      (fun _ base _ -> Some base)
      (Marker.Map.filter
         (fun key _ -> not (Marker.Set.mem key demoted))
         base.Matching.counts)
      (Fingerprint.cut_counts recovery)
  in
  ( Matching.of_counts ~counts ~candidates:base.Matching.candidates,
    Fingerprint.translations recovery )

(* Rewrite recorded boundary keys through a translation map (identity
   entries are omitted from the maps, so most runs touch nothing). *)
let translate_boundaries map boundaries =
  if Marker.Map.is_empty map then boundaries
  else
    Array.map
      (fun (b : Interval.boundary) ->
        match Marker.Map.find_opt b.Interval.bd_key map with
        | Some key -> { b with Interval.bd_key = key }
        | None -> b)
      boundaries

let run_vli_uncached ~sp_config ~cache_config ~match_options ~primary ~static
    ~semantic ~materialize ~eng program ~configs ~input ~target =
  let prog_name = program.Cbsp_source.Ast.prog_name in
  Tracer.with_span ~name:"run_vli" ~cat:"pipeline"
    ~attrs:[ ("program", prog_name) ]
  @@ fun () ->
  let binaries =
    Scheduler.parallel_map ~jobs:eng.eng_jobs (compile eng program) configs
  in
  let mappable, translations =
    if semantic then
      semantic_matching eng program ~match_options ~binaries ~input
    else if static then
      (static_matching eng program ~match_options ~binaries ~input, [||])
    else begin
      (* Step 1: call & branch profile of every binary (memoized; one job
         per binary). *)
      let profiles =
        Scheduler.parallel_map ~jobs:eng.eng_jobs
          (fun b -> struct_profile eng program b input)
          binaries
      in
      (* Step 2: mappable points across all binaries. *)
      ( Timing.time eng.eng_timing ~stage:Stage.Matching
          ~label:(prog_name ^ "/vli")
          ~in_size:
            (List.fold_left (fun a p -> a + Marker.Map.cardinal p) 0 profiles)
          ~out_size:(fun m -> Matching.cardinal m)
          (fun () -> Matching.find ?options:match_options ~binaries ~profiles ()),
        [||] )
    end
  in
  (* Per binary: canonical <-> local key maps for recovered markers
     (empty outside semantic mode).  The recorder tests primary-local
     keys, the boundary list is stored canonically, and each follower
     replays it under its own local names. *)
  let to_local j =
    if j < Array.length translations then fst translations.(j)
    else Marker.Map.empty
  in
  let to_canon j =
    if j < Array.length translations then snd translations.(j)
    else Marker.Map.empty
  in
  let primary_to_canon = to_canon primary in
  let is_cut key =
    Matching.is_mappable mappable
      (match Marker.Map.find_opt key primary_to_canon with
      | Some canonical -> canonical
      | None -> key)
  in
  (* Steps 3-4: VLIs and simulation points on the primary binary.  The
     cut plan is the set of primary-local keys [is_cut] accepts, taken
     over every marker the binary can emit: two runs with the same set
     cut the same intervals, whatever matching produced it. *)
  let primary_binary = List.nth binaries primary in
  let primary_label =
    job_label program primary_binary.Binary.config ~kind:"vli"
  in
  let primary_pass =
    if materialize then
      materialized_pass eng ~label:primary_label ~sp_config ~cache_config
        primary_binary ~input ~observe:(fun ~cycles ~extras ->
          Interval.vli_recorder ~n_blocks:primary_binary.Binary.n_blocks
            ~target ~mappable:is_cut ~cycles ~extras ())
    else
      collect eng program primary_binary ~label:primary_label ~sp_config
        ?cache_config ~input
        (Recorded
           (target, List.filter is_cut (Binary.static_marker_keys primary_binary)))
  in
  (* Store the boundary list under canonical key names; each follower
     replays it under its own local names. *)
  let boundaries =
    translate_boundaries primary_to_canon primary_pass.ps_boundaries
  in
  let clustering = clustering_of primary_pass in
  let primary_result =
    summarize_pass eng ~label:primary_label
      ~config:primary_binary.Binary.config ~clustering primary_pass
  in
  (* Steps 5-6: map boundaries into every binary (free: they are
     (marker, count) pairs) and recompute weights per binary.  Follower
     runs are independent of each other, so they are scheduler jobs
     too.  Followers collect no BBVs, so they always stream; only the
     materialized reference bypasses the pass store. *)
  let results =
    Scheduler.parallel_map ~jobs:eng.eng_jobs
      (fun (i, (binary : Binary.t)) ->
        if i = primary then primary_result
        else begin
          let label = job_label program binary.Binary.config ~kind:"vli" in
          let plan = Replayed (translate_boundaries (to_local i) boundaries) in
          let pass =
            if materialize then
              run_pass ~timing:eng.eng_timing ~label ~sp_config ~cache_config
                binary ~input plan
            else
              collect eng program binary ~label ~sp_config ?cache_config
                ~input plan
          in
          if n_intervals pass <> n_intervals primary_pass then
            invalid_arg
              (Printf.sprintf
                 "Pipeline.run_vli: interval count diverged across binaries \
                  (%s: %d intervals vs primary's %d)"
                 (Config.label binary.Binary.config)
                 (n_intervals pass) (n_intervals primary_pass));
          summarize_pass eng ~label ~config:binary.Binary.config ~clustering
            pass
        end)
      (List.mapi (fun i b -> (i, b)) binaries)
  in
  { vli_binaries = results; vli_primary = primary; vli_mappable = mappable;
    vli_n_boundaries = Array.length boundaries; vli_target = target;
    vli_points =
      { pt_target = target; pt_boundaries = boundaries;
        pt_phase_of = clustering.cl_phase_of; pt_reps = clustering.cl_reps } }

let run_vli ?(sp_config = Simpoint.default_config) ?cache_config ?match_options
    ?(primary = 0) ?(static = false) ?(semantic = false) ?(materialize = false)
    ?engine program ~configs ~input ~target =
  let n = List.length configs in
  if n = 0 then invalid_arg "Pipeline.run_vli: no configs";
  if primary < 0 || primary >= n then invalid_arg "Pipeline.run_vli: bad primary";
  let eng = match engine with Some e -> e | None -> create_engine () in
  let go () =
    run_vli_uncached ~sp_config ~cache_config ~match_options ~primary ~static
      ~semantic ~materialize ~eng program ~configs ~input ~target
  in
  match eng.eng_results with
  | None -> go ()
  | Some rc ->
    (* [materialize] is deliberately absent from the key (bit-identical
       regimes); [static] and [semantic] are included because they change
       which markers the matching decides, not just how fast. *)
    let key =
      Store.digest
        ( "vli/2", program, configs, input, target, sp_config, cache_config,
          match_options, primary, static, semantic )
    in
    Store.find_or_compute rc.rc_vli ~key go

(* ------------------------------------------------------------------ *)
(* Statistical sampling estimators: the third estimation method next   *)
(* to FLI and VLI SimPoint, sharing the engine's memoized artifacts.   *)

let run_sampling_uncached ~sp_config ~cache_config ~eng ~level ~seeds program
    ~configs ~input ~target ~n =
  Tracer.with_span ~name:"run_sampling" ~cat:"pipeline"
    ~attrs:[ ("program", program.Cbsp_source.Ast.prog_name) ]
  @@ fun () ->
  let binaries =
    Scheduler.parallel_map ~jobs:eng.eng_jobs
      (fun (ci, (config : Config.t)) ->
        let binary = compile eng program config in
        let label = job_label program config ~kind:"sample" in
        (* The same fixed-length pass FLI collects (shared through the
           pass store): it yields the per-interval population the
           samplers draw from, the true CPI the confidence intervals
           are judged against, and the k-means phases, which double as
           the SimPoint baseline and as one of the stratifications. *)
        let pass =
          collect eng program binary ~label ~sp_config ?cache_config ~input
            (Fixed target)
        in
        let truth = pass.ps_truth in
        let clustering = clustering_of pass in
        let sp = summarize_pass eng ~label ~config ~clustering pass in
        let insts = Array.map float_of_int pass.ps_stats.Streamprof.st_insts in
        let cycles = pass.ps_stats.Streamprof.st_cycles in
        let n_live =
          Array.fold_left (fun a i -> if i > 0 then a + 1 else a) 0
            pass.ps_stats.Streamprof.st_insts
        in
        (* Phase-1 instruction-mix proxy: drives Neyman allocation and
           provides the second (quantile) stratification.  The third,
           static locality, is a per-interval class from the binary's
           block-level access patterns and the LLC capacity — no
           clustering pass and no quantile computation. *)
        let mix = pass.ps_mix in
        let mix_strata =
          Strata.quantile_bins ~bins:(max 2 (min 8 (n / 2))) mix
        in
        let static_strata = pass.ps_locality in
        let run_method mi m seed =
          (* One independent stream per (binary, method, seed): sampling
             decisions never interact across methods or configurations. *)
          let rng =
            Rng.split (Rng.create ~seed) ~tag:((ci * 61) + mi)
          in
          let estimate =
            match m with
            | "srs" -> Sampler.srs ~level ~rng ~n ~insts ~cycles ()
            | "systematic" ->
              Sampler.systematic ~level ~rng ~n ~insts ~cycles ()
            | "strat-phase" ->
              Sampler.stratified ~level ~name:"strat-phase" ~proxy:mix ~rng ~n
                ~strata:clustering.cl_phase_of ~insts ~cycles ()
            | "strat-mix" ->
              Sampler.stratified ~level ~name:"strat-mix" ~proxy:mix ~rng ~n
                ~strata:mix_strata ~insts ~cycles ()
            | "strat-static" ->
              Sampler.stratified ~level ~name:"strat-static" ~proxy:mix ~rng
                ~n ~strata:static_strata ~insts ~cycles ()
            | other ->
              invalid_arg ("Pipeline.run_sampling: unknown method " ^ other)
          in
          { sr_seed = seed; sr_estimate = estimate }
        in
        let methods =
          List.mapi
            (fun mi m ->
              let runs =
                Timing.time eng.eng_timing ~stage:Stage.Sampling
                  ~label:(label ^ "/" ^ m)
                  ~in_size:(n_intervals pass)
                  ~out_size:(fun rs -> List.length rs)
                  (fun () -> List.map (run_method mi m) seeds)
              in
              { mr_method = m; mr_runs = runs })
            sampling_methods
        in
        let sp_cost =
          Array.fold_left
            (fun acc rep -> acc +. insts.(rep))
            0.0 clustering.cl_reps
        in
        { sb_config = config; sb_truth = truth; sb_sp_cpi = sp.br_est_cpi;
          sb_sp_error = sp.br_cpi_error; sb_sp_cost_insts = sp_cost;
          sb_n_intervals = n_intervals pass; sb_n_live = n_live;
          sb_methods = methods })
      (List.mapi (fun i c -> (i, c)) configs)
  in
  { smp_binaries = binaries; smp_target = target; smp_n = n;
    smp_level = level; smp_seeds = seeds }

let run_sampling ?(sp_config = Simpoint.default_config) ?cache_config ?engine
    ?(level = 0.95) ?(seeds = [ 2007 ]) program ~configs ~input ~target ~n =
  if configs = [] then invalid_arg "Pipeline.run_sampling: no configs";
  if n < 2 then invalid_arg "Pipeline.run_sampling: sample size must be >= 2";
  if seeds = [] then invalid_arg "Pipeline.run_sampling: no seeds";
  let eng = match engine with Some e -> e | None -> create_engine () in
  let go () =
    run_sampling_uncached ~sp_config ~cache_config ~eng ~level ~seeds program
      ~configs ~input ~target ~n
  in
  match eng.eng_results with
  | None -> go ()
  | Some rc ->
    (* Whole-result memoization like run_fli/run_vli: the sampling pass
       is a pure function of everything below, so a warm validation
       matrix (which is mostly sampling passes) is served from disk. *)
    let key =
      Store.digest
        ( "sampling/2", program, configs, input, target, sp_config,
          cache_config, level, seeds, n )
    in
    Store.find_or_compute rc.rc_sampling ~key go

let find_sampling_binary result ~label =
  List.find
    (fun sb -> Config.label sb.sb_config = label)
    result.smp_binaries

let sampling_speedup result ~a ~b ~method_ ~seed =
  let pick lbl =
    let sb = find_sampling_binary result ~label:lbl in
    let mr =
      List.find (fun mr -> mr.mr_method = method_) sb.sb_methods
    in
    let run = List.find (fun r -> r.sr_seed = seed) mr.mr_runs in
    (run.sr_estimate, float_of_int sb.sb_truth.t_insts)
  in
  let ea, ia = pick a in
  let eb, ib = pick b in
  Sampler.speedup ~a:ea ~insts_a:ia ~b:eb ~insts_b:ib

let run_locality ?cache_config ?engine program ~configs ~input =
  if configs = [] then invalid_arg "Pipeline.run_locality: no configs";
  let eng = match engine with Some e -> e | None -> create_engine () in
  (* Purely static: one compile (memoized) plus one abstract-interpretation
     pass per configuration, no executor run.  Timed under its own stage so
     the report shows how cheap the bracket is next to a profiling pass. *)
  List.map
    (fun (config : Config.t) ->
      let binary = compile eng program config in
      let report =
        Timing.time eng.eng_timing ~stage:Stage.Locality
          ~label:(job_label program config ~kind:"locality")
          ~in_size:binary.Binary.n_blocks
          ~out_size:(fun (r : Locality.report) ->
            List.length r.Locality.lc_regions)
          (fun () ->
            Locality.analyze ?config:cache_config binary
              ~scale:input.Cbsp_source.Input.scale)
      in
      (config, report))
    configs

let replay ?cache_config (binary : Binary.t) ~input points =
  (* A replay is a follower pass: boundaries come from the points file,
     phases are fixed, and only scalar stats are consumed.  It has no
     engine, so nothing memoizes it, and its timing goes to a throwaway
     sink. *)
  let pass =
    run_pass ~timing:(Timing.create ()) ~label:"replay" ~sp_config:Simpoint.default_config ~cache_config
      binary ~input (Replayed points.pt_boundaries)
  in
  if n_intervals pass <> Array.length points.pt_phase_of then
    invalid_arg
      (Printf.sprintf
         "Pipeline.replay: points do not match this (program, input): replay \
          produced %d intervals, the points file has %d phase labels"
         (n_intervals pass)
         (Array.length points.pt_phase_of));
  let clustering =
    { cl_phase_of = points.pt_phase_of; cl_reps = points.pt_reps;
      cl_n_phases = Array.length points.pt_reps }
  in
  summarize ~config:binary.Binary.config ~truth:pass.ps_truth
    ~counter_names:pass.ps_counter_names ~clustering pass.ps_stats

let find_binary results ~label =
  List.find (fun r -> Config.label r.br_config = label) results

(* --- uniform estimate records ------------------------------------- *)

let record_of_binary ~method_ (br : binary_result) =
  { er_method = method_; er_label = Config.label br.br_config;
    er_truth = br.br_truth; er_est_cpi = br.br_est_cpi;
    er_est_cycles = br.br_est_cycles }

let estimate_records_fli result =
  List.map (record_of_binary ~method_:"fli") result.fli_binaries

let estimate_records_vli ?(method_ = "vli") result =
  List.map (record_of_binary ~method_) result.vli_binaries

let estimate_records_sampling result =
  List.concat_map
    (fun sb ->
      let insts = float_of_int sb.sb_truth.t_insts in
      List.map
        (fun mr ->
          (* Collapse the per-seed runs to their mean point estimate:
             the harness scores a method, not one RNG stream. *)
          let est =
            Stats.mean
              (Array.of_list
                 (List.map (fun r -> r.sr_estimate.Sampler.e_point) mr.mr_runs))
          in
          { er_method = mr.mr_method; er_label = Config.label sb.sb_config;
            er_truth = sb.sb_truth; er_est_cpi = est;
            er_est_cycles = est *. insts })
        sb.sb_methods)
    result.smp_binaries
