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
module Timing = Cbsp_engine.Timing
module Stage = Cbsp_engine.Stage
module Rng = Cbsp_util.Rng
module Sampler = Cbsp_sampling.Sampler
module Strata = Cbsp_sampling.Strata
module Tracer = Cbsp_obs.Tracer
module Prover = Cbsp_analysis.Prover
module Fingerprint = Cbsp_analysis.Fingerprint

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

type sampler = Srs | Systematic | Strat_phase | Strat_mix

(* In scoring order, which is part of every result: a sampler's index
   feeds its RNG stream's tag. *)
let samplers =
  [ (Srs, "srs"); (Systematic, "systematic"); (Strat_phase, "strat-phase");
    (Strat_mix, "strat-mix") ]

let sampling_methods = List.map snd samplers

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

type matching = Dynamic | Static | Recovered

type vli_spec = {
  matching : matching;
  primary : int;
  match_options : Matching.options option;
}

type sampling_spec = { level : float; seeds : int list; n : int }

type _ estimator =
  | Fli : fli_result estimator
  | Vli : vli_spec -> vli_result estimator
  | Sampling : sampling_spec -> sampling_result estimator

type any = Any : _ estimator -> any

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
  ps_cluster_inputs : Streamprof.cluster_inputs;  (* empty for [Replayed] *)
  ps_boundaries : Interval.boundary array;  (* [Recorded]: the cuts made *)
  ps_mix : float array;       (* [Fixed]: per-interval access mix, else [||] *)
}

let n_intervals pass = Streamprof.(Array.length pass.ps_stats.st_insts)

(* ------------------------------------------------------------------ *)
(* The engine: scheduler width + artifact stores + timing sink.        *)

type engine = {
  eng_jobs : int;
  eng_binaries : Binary.t Store.t;
  eng_profiles : Structprof.t Store.t;
  eng_passes : pass Store.t;
  eng_clusterings : clustering Store.t;
  eng_timing : Timing.sink;
}

let create_engine ?(jobs = 1) () =
  { eng_jobs = max 1 jobs;
    eng_binaries = Store.create ~name:"binaries" ();
    eng_profiles = Store.create ~name:"profiles" ();
    eng_passes = Store.create ~name:"passes" ();
    eng_clusterings = Store.create ~name:"clusterings" ();
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

(* Cluster a pass's live intervals from the points its collector
   already normalized and projected at emission time — the floats the
   test suite's materialized reference ([Cbsp_oracle.Simpoint_ref.pick])
   computes from the BBVs — then spread the result
   over the full interval numbering: empty (trailing) intervals inherit
   the previous live interval's phase, and representatives are
   translated back to interval indices. *)
let cluster ~sp_config ~insts
    { Streamprof.ci_live_idx = live_idx; ci_weights; ci_points } =
  let sp =
    Simpoint.pick_projected ~config:sp_config ~weights:ci_weights
      ~points:ci_points ()
  in
  let phase_of = Array.make (Array.length insts) 0 in
  Array.iteri (fun j phase -> phase_of.(live_idx.(j)) <- phase) sp.Simpoint.phase_of;
  let last = ref 0 in
  Array.iteri
    (fun i n -> if n > 0 then last := phase_of.(i) else phase_of.(i) <- !last)
    insts;
  { cl_phase_of = phase_of;
    cl_reps = Array.map (fun p -> live_idx.(p.Simpoint.rep)) sp.Simpoint.points;
    cl_n_phases = sp.Simpoint.k }

(* Per-binary phase statistics and the SimPoint CPI estimate, from this
   binary's own per-interval measurements and the (shared or per-binary)
   clustering.  This is exactly the paper's step 6: weights are the
   fraction of *this binary's* dynamic instructions per phase.  Only the
   per-interval scalars ([insts], [cycles], [extras]) are read — never
   BBVs — so the collector's lightweight stats are all a summary needs,
   whatever plan cut the pass. *)
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

(* One execution of [binary] through the cache model serving every
   [(collector, plan)] of [plans], one interval builder per plan, and a
   pass for each, in order.  The builders must observe each block BEFORE
   the CPU charges it, so a cut's cycle sample excludes the block that
   starts the next interval; they only read the CPU, so a pass does not
   depend on which other plans share its run.  The builders ignore
   accesses, so the CPU takes them as same-line runs ([Cpu.runs]).  The
   CPU is this domain's borrowed one: the truth, the counter names and
   the builders' last samples are read before [Cpu.borrow] returns. *)
let run_plans ~timing ~label ~cache_config (binary : Binary.t) ~input plans =
  let n_blocks = binary.Binary.n_blocks in
  Cpu.borrow ?config:cache_config @@ fun cpu ->
  let cycles () = Cpu.cycles cpu and extras () = Cpu.extra_counters cpu in
  let builder (col, plan) =
    let obs, finish =
      match plan with
      | Fixed target ->
        let obs, finish =
          Interval.fli_stream ~n_blocks ~target ~cycles ~extras
            ~emit:(Streamprof.emit col) ()
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
    (obs, fun () -> (col, finish ()))
  in
  let builders = List.map builder plans in
  let totals, finished =
    Timing.time timing ~stage:Stage.Interval_collection ~label ~in_size:n_blocks
      ~out_size:(fun (t, _) -> t.Executor.insts)
      (fun () ->
        let totals =
          Executor.run ?runs:(Cpu.runs cpu) binary input
            (Executor.compose (List.map fst builders @ [ Cpu.observer cpu ]))
        in
        (totals, List.map (fun (_, finish) -> finish ()) builders))
  in
  let truth = measure_truth totals cpu in
  List.map
    (fun (col, boundaries) ->
      { ps_truth = truth;
        ps_counter_names = Cpu.extra_counter_names cpu;
        ps_stats = Streamprof.stats col;
        ps_cluster_inputs = Streamprof.cluster_inputs col;
        ps_boundaries = boundaries;
        ps_mix = Streamprof.mix col })
    finished

(* A pass's store key is everything that determines it, so FLI and the
   samplers share one [Fixed] pass per binary, and VLI methods whose cut
   plans agree share their primary and follower passes.  Of the SimPoint
   settings only the projection's reach a pass, so runs that differ in
   max-k, policy or k search share every pass. *)
let pass_key program (binary : Binary.t) ~(sp_config : Simpoint.config)
    ~cache_config ~input plan =
  let projection =
    match plan with
    | Replayed _ -> None
    | Fixed _ | Recorded _ -> Some Simpoint.(sp_config.dims, sp_config.seed)
  in
  Store.digest
    (binary_key program binary.Binary.config, input, cache_config, projection,
     plan)

(* A [Replayed] pass keeps no points, so its collector keeps stats only.
   A [Fixed] pass also reduces each interval's BBV to the samplers'
   phase-1 feature, its access mix, once per distinct BBV, so no
   consumer ever needs the BBVs back. *)
let collector ~sp_config (binary : Binary.t) plan =
  let n_blocks = binary.Binary.n_blocks in
  match plan with
  | Replayed _ -> Streamprof.create_stats_only ()
  | Fixed _ ->
    Streamprof.create ~mix:(Strata.access_mix_of binary) ~sp_config ~n_blocks ()
  | Recorded _ -> Streamprof.create ~sp_config ~n_blocks ()

(* Every engine-owned pass is read through here: a store hit after a
   batch's [collect_shared] ran it, otherwise one run of its own.
   Returns the key too, for clustering. *)
let collect_keyed eng program (binary : Binary.t) ~label ~sp_config
    ?cache_config ~input plan =
  let key = pass_key program binary ~sp_config ~cache_config ~input plan in
  ( key,
    Store.find_or_compute eng.eng_passes ~key (fun () ->
        List.hd
          (run_plans ~timing:eng.eng_timing ~label ~cache_config binary ~input
             [ (collector ~sp_config binary plan, plan) ])) )

let collect eng program binary ~label ~sp_config ?cache_config ~input plan =
  snd
    (collect_keyed eng program binary ~label ~sp_config ?cache_config ~input
       plan)

(* Fill the pass store with every plan of [plans] it lacks, in one
   execution of [binary]: one executor, one CPU, one builder and
   collector per plan, and one [Stage.Interval_collection] record
   labelled with the plans' kinds ("fli+vli").  Each plan still gets
   the key and the value a run of its own would give it.  A lone
   missing plan has nothing to share a run with, so it is left to its
   reader, which runs it when it needs it: a batch of one collects,
   clusters and summarizes in the order a single estimator always has,
   and holds no pass before it needs it.  Should the shared run raise,
   every plan is collected alone, so the failure is stored (and
   re-raised to its readers) under the plan that caused it and every
   other plan's pass is stored as usual.  Never raises. *)
let collect_shared eng program (binary : Binary.t) ~sp_config ?cache_config
    ~input plans =
  let config = binary.Binary.config in
  let keyed =
    List.fold_left
      (fun acc (kind, plan) ->
        let key = pass_key program binary ~sp_config ~cache_config ~input plan in
        if List.mem_assoc key acc || Store.mem eng.eng_passes ~key then acc
        else (key, (kind, plan)) :: acc)
      [] plans
    |> List.rev
  in
  let alone (_, (kind, plan)) =
    try
      ignore
        (collect eng program binary ~sp_config ?cache_config ~input
           ~label:(job_label program config ~kind) plan
          : pass)
    with _ -> ()
  in
  match keyed with
  | [] | [ _ ] -> ()
  | _ -> (
    let kinds = List.sort_uniq compare (List.map (fun (_, (k, _)) -> k) keyed) in
    match
      run_plans ~timing:eng.eng_timing ~cache_config binary ~input
        ~label:(job_label program config ~kind:(String.concat "+" kinds))
        (List.map
           (fun (_, (_, plan)) -> (collector ~sp_config binary plan, plan))
           keyed)
    with
    | passes ->
      List.iter2
        (fun (key, _) pass ->
          ignore (Store.find_or_compute eng.eng_passes ~key (fun () -> pass) : pass))
        keyed passes
    | exception _ -> List.iter alone keyed)

(* The clustering step: SimPoint over a pass's retained points, memoized
   by (pass, SimPoint configuration). *)
let cluster_pass eng ~label ~sp_config (key, pass) =
  Store.find_or_compute eng.eng_clusterings
    ~key:(Store.digest (key, sp_config))
    (fun () ->
      Timing.time eng.eng_timing ~stage:Stage.Clustering ~label
        ~in_size:(n_intervals pass)
        ~out_size:(fun c -> c.cl_n_phases)
        (fun () ->
          cluster ~sp_config ~insts:pass.ps_stats.Streamprof.st_insts
            pass.ps_cluster_inputs))

let clustering eng program binary ~label ~sp_config ?cache_config ~input plan =
  cluster_pass eng ~label ~sp_config
    (collect_keyed eng program binary ~label ~sp_config ?cache_config ~input
       plan)

(* A pass an estimator asks of one of its binaries. *)
type request = {
  rq_index : int;  (* of the binary, in [configs] order *)
  rq_binary : Binary.t;
  rq_kind : string;  (* the job label's last part *)
  rq_plan : plan;
}

(* An estimator split around its collection passes.  Planning compiles,
   matches and names the passes it knows up front ([Fixed target] for
   FLI and the samplers, [Recorded] for a VLI primary); following names
   the passes that depend on those (a VLI's [Replayed] followers, from
   its primary's boundaries); finishing clusters, summarizes and samples.
   Following and finishing read every pass through [collect_keyed], so
   whatever the batch ran is a store hit, and a pass it did not run is
   collected then. *)
type 'r planned = {
  pl_requests : request list;
  pl_follow : unit -> request list;
  pl_finish : unit -> 'r;
}

let compile_all eng program configs =
  List.mapi
    (fun i b -> (i, b))
    (Scheduler.parallel_map ~jobs:eng.eng_jobs (compile eng program) configs)

(* FLI and the samplers: one [Fixed target] pass per binary, then one
   job per binary over that pass and its clustering.  Jobs are
   independent, so the scheduler may run them concurrently; results
   keep the configs' order either way. *)
let plan_fixed eng program ~kind ~sp_config ~cache_config ~configs ~input
    ~target f =
  let binaries = compile_all eng program configs in
  { pl_requests =
      List.map
        (fun (i, b) ->
          { rq_index = i; rq_binary = b; rq_kind = kind; rq_plan = Fixed target })
        binaries;
    pl_follow = (fun () -> []);
    pl_finish =
      (fun () ->
        Scheduler.parallel_map ~jobs:eng.eng_jobs
          (fun (ci, (binary : Binary.t)) ->
            let config = binary.Binary.config in
            let label = job_label program config ~kind in
            let ((_, pass) as keyed) =
              collect_keyed eng program binary ~label ~sp_config ?cache_config
                ~input (Fixed target)
            in
            f ci config ~label pass (cluster_pass eng ~label ~sp_config keyed))
          binaries) }

let plan_fli ~sp_config ~cache_config ~eng program ~configs ~input ~target =
  let planned =
    plan_fixed eng program ~kind:"fli" ~sp_config ~cache_config ~configs
      ~input ~target (fun _ config ~label pass clustering ->
        summarize_pass eng ~label ~config ~clustering pass)
  in
  { planned with
    pl_finish =
      (fun () -> { fli_binaries = planned.pl_finish (); fli_target = target }) }

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

let plan_vli ~sp_config ~cache_config { matching; primary; match_options }
    ~eng program ~configs ~input ~target =
  let prog_name = program.Cbsp_source.Ast.prog_name in
  let indexed = compile_all eng program configs in
  let binaries = List.map snd indexed in
  let mappable, translations =
    match matching with
    | Recovered -> semantic_matching eng program ~match_options ~binaries ~input
    | Static ->
      (static_matching eng program ~match_options ~binaries ~input, [||])
    | Dynamic ->
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
  let primary_plan =
    Recorded
      (target, List.filter is_cut (Binary.static_marker_keys primary_binary))
  in
  (* The primary's pass and its boundary list under canonical key names;
     each follower replays it under its own local names. *)
  let recorded () =
    let ((_, pass) as keyed) =
      collect_keyed eng program primary_binary ~label:primary_label ~sp_config
        ?cache_config ~input primary_plan
    in
    (keyed, translate_boundaries primary_to_canon pass.ps_boundaries)
  in
  let followers = List.filter (fun (i, _) -> i <> primary) indexed in
  let follower_plan boundaries i =
    Replayed (translate_boundaries (to_local i) boundaries)
  in
  { pl_requests =
      [ { rq_index = primary; rq_binary = primary_binary; rq_kind = "vli";
          rq_plan = primary_plan } ];
    pl_follow =
      (fun () ->
        let _, boundaries = recorded () in
        List.map
          (fun (i, b) ->
            { rq_index = i; rq_binary = b; rq_kind = "vli";
              rq_plan = follower_plan boundaries i })
          followers);
    pl_finish =
      (fun () ->
        let ((_, primary_pass) as primary_keyed), boundaries = recorded () in
        let clustering =
          cluster_pass eng ~label:primary_label ~sp_config primary_keyed
        in
        let primary_result =
          summarize_pass eng ~label:primary_label
            ~config:primary_binary.Binary.config ~clustering primary_pass
        in
        (* Steps 5-6: map boundaries into every binary (free: they are
           (marker, count) pairs) and recompute weights per binary.
           Followers are independent of each other, so they are
           scheduler jobs too. *)
        let results =
          Scheduler.parallel_map ~jobs:eng.eng_jobs
            (fun (i, (binary : Binary.t)) ->
              if i = primary then primary_result
              else begin
                let label = job_label program binary.Binary.config ~kind:"vli" in
                let pass =
                  collect eng program binary ~label ~sp_config ?cache_config
                    ~input (follower_plan boundaries i)
                in
                if n_intervals pass <> n_intervals primary_pass then
                  invalid_arg
                    (Printf.sprintf
                       "Pipeline.run_vli: interval count diverged across \
                        binaries (%s: %d intervals vs primary's %d)"
                       (Config.label binary.Binary.config)
                       (n_intervals pass) (n_intervals primary_pass));
                summarize_pass eng ~label ~config:binary.Binary.config
                  ~clustering pass
              end)
            indexed
        in
        { vli_binaries = results; vli_primary = primary;
          vli_mappable = mappable; vli_n_boundaries = Array.length boundaries;
          vli_target = target;
          vli_points =
            { pt_target = target; pt_boundaries = boundaries;
              pt_phase_of = clustering.cl_phase_of;
              pt_reps = clustering.cl_reps } }) }

(* ------------------------------------------------------------------ *)
(* Statistical sampling estimators: the third estimation method next   *)
(* to FLI and VLI SimPoint, sharing the engine's memoized artifacts.   *)

let plan_sampling ~sp_config ~cache_config { level; seeds; n } ~eng program
    ~configs ~input ~target =
  let planned =
    plan_fixed eng program ~kind:"sample" ~sp_config ~cache_config ~configs
      ~input ~target (fun ci config ~label pass clustering ->
        (* FLI's pass yields the per-interval population the samplers
           draw from, the true CPI the confidence intervals are judged
           against, and the k-means phases, which serve as one of the
           stratifications. *)
        let truth = pass.ps_truth in
        let insts = Array.map float_of_int pass.ps_stats.Streamprof.st_insts in
        let cycles = pass.ps_stats.Streamprof.st_cycles in
        let n_live =
          Array.fold_left (fun a i -> if i > 0 then a + 1 else a) 0
            pass.ps_stats.Streamprof.st_insts
        in
        (* Phase-1 instruction-mix proxy: drives Neyman allocation and
           provides the second (quantile) stratification. *)
        let mix = pass.ps_mix in
        let mix_strata =
          Strata.quantile_bins ~bins:(max 2 (min 8 (n / 2))) mix
        in
        let run_method mi (sampler, name) seed =
          (* One independent stream per (binary, method, seed): sampling
             decisions never interact across methods or configurations. *)
          let rng =
            Rng.split (Rng.create ~seed) ~tag:((ci * 61) + mi)
          in
          let stratified strata =
            Sampler.stratified ~level ~name ~proxy:mix ~rng ~n ~strata ~insts
              ~cycles ()
          in
          let estimate =
            match sampler with
            | Srs -> Sampler.srs ~level ~rng ~n ~insts ~cycles ()
            | Systematic -> Sampler.systematic ~level ~rng ~n ~insts ~cycles ()
            | Strat_phase -> stratified clustering.cl_phase_of
            | Strat_mix -> stratified mix_strata
          in
          { sr_seed = seed; sr_estimate = estimate }
        in
        let methods =
          List.mapi
            (fun mi ((_, m) as sampler) ->
              let runs =
                Timing.time eng.eng_timing ~stage:Stage.Sampling
                  ~label:(label ^ "/" ^ m)
                  ~in_size:(n_intervals pass)
                  ~out_size:(fun rs -> List.length rs)
                  (fun () -> List.map (run_method mi sampler) seeds)
              in
              { mr_method = m; mr_runs = runs })
            samplers
        in
        { sb_config = config; sb_truth = truth; sb_n_live = n_live;
          sb_methods = methods })
  in
  { planned with
    pl_finish =
      (fun () ->
        { smp_binaries = planned.pl_finish (); smp_target = target; smp_n = n;
          smp_level = level; smp_seeds = seeds }) }

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

let replay ?cache_config (binary : Binary.t) ~input points =
  (* A replay is a follower pass: boundaries come from the points file,
     phases are fixed, and only scalar stats are consumed.  It has no
     engine, so nothing memoizes it, and its timing goes to a throwaway
     sink. *)
  let plan = Replayed points.pt_boundaries in
  let pass =
    List.hd
      (run_plans ~timing:(Timing.create ()) ~label:"replay" ~cache_config
         binary ~input
         [ (Streamprof.create_stats_only (), plan) ])
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

(* ------------------------------------------------------------------ *)
(* One entry point for every estimator.                                *)

type output = Output : 'r estimator * 'r -> output

(* A batch member: an estimator and where its outcome goes. *)
type 'a slot = Slot : 'r estimator * (('r, exn) result -> 'a) -> 'a slot

let span_name : type r. r estimator -> string = function
  | Fli -> "run_fli"
  | Vli _ -> "run_vli"
  | Sampling _ -> "run_sampling"

let plan_estimator (type r) ~sp_config ~cache_config ~eng (est : r estimator)
    program ~configs ~input ~target : r planned =
  (* Every check runs before any work, so a bad call compiles nothing. *)
  let reject what = invalid_arg ("Pipeline." ^ span_name est ^ ": " ^ what) in
  if configs = [] then reject "no configs";
  if target <= 0 then reject "target must be positive";
  match est with
  | Fli -> plan_fli ~sp_config ~cache_config ~eng program ~configs ~input ~target
  | Vli { primary; _ } when primary < 0 || primary >= List.length configs ->
    reject "bad primary"
  | Vli spec ->
    plan_vli ~sp_config ~cache_config spec ~eng program ~configs ~input ~target
  | Sampling { n; _ } when n < 2 -> reject "sample size must be >= 2"
  | Sampling { seeds = []; _ } -> reject "no seeds"
  | Sampling spec ->
    plan_sampling ~sp_config ~cache_config spec ~eng program ~configs ~input
      ~target

(* Plan one slot, its result type hidden behind the slot's continuation:
   the planned [follow] and [finish] never raise. *)
let plan_slot ~sp_config ~cache_config ~eng program ~configs ~input ~target
    (Slot (est, k)) =
  let traced phase f =
    Tracer.with_span ~name:(span_name est) ~cat:"pipeline"
      ~attrs:
        [ ("program", program.Cbsp_source.Ast.prog_name); ("phase", phase) ]
      f
  in
  match
    traced "plan" (fun () ->
        plan_estimator ~sp_config ~cache_config ~eng est program ~configs
          ~input ~target)
  with
  | exception e ->
    { pl_requests = []; pl_follow = (fun () -> []);
      pl_finish = (fun () -> k (Error e)) }
  | p ->
    let broken = ref None in
    { pl_requests = p.pl_requests;
      pl_follow =
        (fun () ->
          try traced "follow" p.pl_follow
          with e ->
            broken := Some e;
            []);
      pl_finish =
        (fun () ->
          k
            (match !broken with
            | Some e -> Error e
            | None -> (
              try Ok (traced "finish" p.pl_finish) with e -> Error e))) }

(* Fill the pass store with [requests], one [collect_shared] per binary,
   binaries in parallel. *)
let collect_wave eng program ~sp_config ~cache_config ~input requests =
  let indices = List.sort_uniq compare (List.map (fun r -> r.rq_index) requests) in
  ignore
    (Scheduler.parallel_map ~jobs:eng.eng_jobs
       (fun i ->
         let mine = List.filter (fun r -> r.rq_index = i) requests in
         collect_shared eng program (List.hd mine).rq_binary ~sp_config
           ?cache_config ~input
           (List.map (fun r -> (r.rq_kind, r.rq_plan)) mine))
       indices
      : unit list)

(* The one driver: plan every slot, then run each binary once for every
   request known for it.  A binary some plan records as its VLI primary
   runs in the first wave; every other binary waits for the second, so
   its [Fixed] plans share a run with the [Replayed] plans that follow
   from the first wave's boundaries.  Then finish every slot, in
   order. *)
let batch ?(sp_config = Simpoint.default_config) ?cache_config ?engine program
    ~configs ~input ~target slots =
  let eng = match engine with Some e -> e | None -> create_engine () in
  let planned =
    List.map
      (plan_slot ~sp_config ~cache_config ~eng program ~configs ~input ~target)
      slots
  in
  let known = List.concat_map (fun p -> p.pl_requests) planned in
  let primaries =
    List.filter_map
      (fun r ->
        match r.rq_plan with Recorded _ -> Some r.rq_index | _ -> None)
      known
  in
  let first, rest =
    List.partition (fun r -> List.mem r.rq_index primaries) known
  in
  let wave = collect_wave eng program ~sp_config ~cache_config ~input in
  wave first;
  wave (rest @ List.concat_map (fun p -> p.pl_follow ()) planned);
  List.map (fun p -> p.pl_finish ()) planned

let run ?sp_config ?cache_config ?engine est program ~configs ~input ~target =
  match
    List.hd
      (batch ?sp_config ?cache_config ?engine program ~configs ~input ~target
         [ Slot (est, Fun.id) ])
  with
  | Ok r -> r
  | Error e -> raise e

let run_batch ?sp_config ?cache_config ?engine ests program ~configs ~input
    ~target =
  batch ?sp_config ?cache_config ?engine program ~configs ~input ~target
    (List.map
       (fun (Any est) -> Slot (est, Result.map (fun r -> Output (est, r))))
       ests)

let vli_name = function
  | Dynamic -> "vli"
  | Static -> "vli-static"
  | Recovered -> "vli-recovered"

let names (Any est) =
  match est with
  | Fli -> [ "fli" ]
  | Vli { matching; _ } -> [ vli_name matching ]
  | Sampling _ -> sampling_methods

let record_of_binary ~method_ (br : binary_result) =
  { er_method = method_; er_label = Config.label br.br_config;
    er_truth = br.br_truth; er_est_cpi = br.br_est_cpi;
    er_est_cycles = br.br_est_cycles }

let records (type r) (est : r estimator) (result : r) =
  match est with
  | Fli -> List.map (record_of_binary ~method_:"fli") result.fli_binaries
  | Vli { matching; _ } ->
    List.map (record_of_binary ~method_:(vli_name matching)) result.vli_binaries
  | Sampling _ ->
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

let run_fli ?sp_config ?cache_config ?engine program ~configs ~input ~target =
  run ?sp_config ?cache_config ?engine Fli program ~configs ~input ~target

let run_vli ?sp_config ?cache_config ?match_options ?(primary = 0)
    ?(static = false) ?(semantic = false) ?engine program ~configs ~input
    ~target =
  let matching =
    if semantic then Recovered else if static then Static else Dynamic
  in
  run ?sp_config ?cache_config ?engine
    (Vli { matching; primary; match_options })
    program ~configs ~input ~target

let run_sampling ?sp_config ?cache_config ?engine ?(level = 0.95)
    ?(seeds = [ 2007 ]) program ~configs ~input ~target ~n =
  run ?sp_config ?cache_config ?engine
    (Sampling { level; seeds; n })
    program ~configs ~input ~target

let estimate_records_fli = records Fli

let estimate_records_vli r =
  records
    (Vli { matching = Dynamic; primary = r.vli_primary; match_options = None })
    r

let estimate_records_sampling r =
  records (Sampling { level = r.smp_level; seeds = r.smp_seeds; n = r.smp_n }) r
