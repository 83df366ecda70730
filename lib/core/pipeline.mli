(** End-to-end simulation-point pipelines: the paper's two methods and
    the statistical samplers, each an {!estimator} run through {!run}.

    {b Per-binary SimPoint (FLI)} — Section 2: each binary independently
    gets fixed-length intervals, its own clustering and its own simulation
    points.  Accurate per binary; biases may differ across binaries.

    {b Mappable SimPoint (VLI)} — Section 3: mappable markers are
    intersected across all binaries, the primary binary is cut into
    variable-length intervals at mappable markers, clustered once, and the
    chosen simulation points are mapped to every binary as
    (marker, count) boundary pairs.  Weights are then recomputed per
    binary from its own per-phase instruction totals.

    Both SimPoint methods "simulate" each chosen region through the CMP$im-style
    CPI model in a single full pass that records per-interval
    (instructions, cycles) — methodologically the region's detailed
    simulation with perfectly warm state, which also yields the true CPI
    of every phase for the bias tables. *)

type truth = {
  t_insts : int;
  t_cycles : float;
  t_cpi : float;
}

type metric = {
  m_name : string;      (** e.g. ["LLC(L3D)_misses"]. *)
  m_true_pki : float;   (** True events per 1000 instructions. *)
  m_est_pki : float;    (** SimPoint-extrapolated events per 1000 insts. *)
}
(** SimPoint's step 6 covers "CPI, miss rate, etc."; besides CPI, both
    pipelines extrapolate every extra counter the CPU model exports
    (per-level misses, DRAM accesses) as per-kilo-instruction rates. *)

type phase_stat = {
  ph_id : int;
  ph_weight : float;   (** Fraction of this binary's instructions. *)
  ph_true_cpi : float; (** CPI over all the phase's intervals (this binary). *)
  ph_sp_cpi : float;   (** CPI of the phase's representative interval. *)
}

type binary_result = {
  br_config : Cbsp_compiler.Config.t;
  br_truth : truth;
  br_est_cpi : float;       (** SimPoint-extrapolated CPI. *)
  br_est_cycles : float;    (** [br_est_cpi * t_insts]. *)
  br_cpi_error : float;     (** |true - est| / true. *)
  br_n_points : int;
  br_n_intervals : int;
  br_avg_interval : float;  (** Mean interval size in instructions. *)
  br_phases : phase_stat array;  (** Indexed by phase id. *)
  br_metrics : metric array;     (** Extra extrapolated metrics. *)
}

(** A chosen set of cross-binary simulation points — the repository's
    analogue of the paper's PinPoints files: everything a simulator needs
    to run the same regions in any binary of the program.  Produced by
    {!run_vli}, serialized by {!Points_file}, consumed by {!replay}. *)
type points = {
  pt_target : int;
  pt_boundaries : Cbsp_profile.Interval.boundary array;
      (** Interval boundaries as (marker, count) pairs. *)
  pt_phase_of : int array;   (** Interval index -> phase id. *)
  pt_reps : int array;       (** Phase id -> representative interval. *)
}

type fli_result = {
  fli_binaries : binary_result list;  (** Parallel to the input configs. *)
  fli_target : int;
}

type vli_result = {
  vli_binaries : binary_result list;
  vli_primary : int;             (** Index of the primary binary. *)
  vli_mappable : Matching.t;
  vli_n_boundaries : int;
  vli_target : int;
  vli_points : points;           (** The mappable simulation points. *)
}

val default_target : int
(** 100_000 — stands for the paper's 100M-instruction interval size. *)

(** {1 Statistical sampling estimators}

    The third estimation method, benchmarked against SimPoint: estimate
    whole-program CPI by statistically sampling the per-interval profile
    the pipeline already collects, and report a Student-t confidence
    interval next to each point estimate (which SimPoint cannot do).
    See {!Cbsp_sampling.Sampler} for the estimator math. *)

type sampler_run = {
  sr_seed : int;                          (** RNG seed of this run. *)
  sr_estimate : Cbsp_sampling.Sampler.estimate;
}

type method_runs = {
  mr_method : string;   (** One of {!sampling_methods}. *)
  mr_runs : sampler_run list;  (** One per requested seed, in order. *)
}

type sampling_binary = {
  sb_config : Cbsp_compiler.Config.t;
  sb_truth : truth;
  sb_n_live : int;      (** Intervals with at least one instruction. *)
  sb_methods : method_runs list;  (** In {!sampling_methods} order. *)
}

type sampling_result = {
  smp_binaries : sampling_binary list;  (** Parallel to the input configs. *)
  smp_target : int;
  smp_n : int;       (** Requested per-run sample size. *)
  smp_level : float; (** Confidence level shared by all runs. *)
  smp_seeds : int list;
}


(** {1 The job-graph engine}

    Every estimator decomposes into jobs — (stage, binary) pairs: compile,
    structure profile, interval collection, clustering, summarize.  An
    {!engine} carries the three pieces of machinery shared by those jobs:

    - a scheduler width ([jobs]): independent jobs (compiles, profiles,
      one collection run per binary, per-binary clustering and
      summaries) run on up to [jobs] domains.  [jobs = 1] (the default)
      is strictly sequential; any [jobs] produces bit-identical results
      because jobs share no mutable state and results are assembled in
      input order;
    - content-keyed artifact stores memoizing compiled binaries by
      (program, config) and structure profiles by (program, config,
      input).  Passing one engine to several pipeline calls (as
      {!Cbsp_validate.Matrix.run} does for a workload's estimators)
      deduplicates that work: each binary compiles exactly once;
    - an in-memory pass store memoizing interval-collection passes by
      (binary, input, cache configuration, cut plan, and for [Fixed]
      and [Recorded] plans the projection's [dims] and [seed]): FLI
      and the samplers cut the same fixed-length plan, and VLI runs
      whose cut plans agree (plain, static and recovered, outside
      loop-split programs) replay the same primary and followers, so
      each distinct pass is collected once per engine, and its
      clusterings are memoized by (pass, SimPoint configuration).
      Within one {!run_batch} the distinct passes of one binary go
      further and share a single execution ({!collect_shared});
    - a timing sink recording every job's wall-clock and input/output
      sizes, for the per-stage timing report.

    Omitting [?engine] creates a fresh sequential engine per call —
    exactly the seed behaviour. *)

type clustering = {
  cl_phase_of : int array;  (** Interval index -> phase. *)
  cl_reps : int array;      (** Phase -> representative interval index. *)
  cl_n_phases : int;
}
(** SimPoint phases spread over a pass's full interval numbering: empty
    (trailing) intervals inherit the previous live interval's phase. *)

(** How a collection pass cuts its intervals. *)
type plan =
  | Fixed of int  (** Every [target] instructions: FLI and the samplers. *)
  | Recorded of int * Cbsp_compiler.Marker.key list
      (** A VLI primary: cut at the first marker past [target] whose key
          is in the list (the primary's local names, sorted), recording
          each cut as a boundary. *)
  | Replayed of Cbsp_profile.Interval.boundary array
      (** A VLI follower or a points replay: cut exactly at these
          (local) boundaries. *)

type pass = {
  ps_truth : truth;
  ps_counter_names : string list;  (** Names of [st_extras]' counters. *)
  ps_stats : Streamprof.stats;
  ps_cluster_inputs : Streamprof.cluster_inputs;
      (** The live intervals' projected points, as the collector built
          them; empty for [Replayed]. *)
  ps_boundaries : Cbsp_profile.Interval.boundary array;
      (** [Recorded]: the boundaries cut; otherwise empty. *)
  ps_mix : float array;
      (** [Fixed]: per-interval {!Cbsp_sampling.Strata.access_mix_of},
          the collector's mix column ({!Streamprof.mix}): computed once
          per distinct BBV, 0.0 for an empty interval.  Otherwise
          empty. *)
}
(** One streaming collection pass as its consumers read it — never BBVs
    or collector scratch, which do not outlive the pass.  Clustering is
    not part of it: see {!clustering}. *)

type engine = {
  eng_jobs : int;  (** Scheduler width; 1 = sequential. *)
  eng_binaries : Cbsp_compiler.Binary.t Cbsp_engine.Store.t;
  eng_profiles : Cbsp_profile.Structprof.t Cbsp_engine.Store.t;
  eng_passes : pass Cbsp_engine.Store.t;
      (** Collection passes of this engine. *)
  eng_clusterings : clustering Cbsp_engine.Store.t;
      (** SimPoint clusterings of those passes. *)
  eng_timing : Cbsp_engine.Timing.sink;
}

val create_engine : ?jobs:int -> unit -> engine
(** [jobs] defaults to 1 (sequential); values below 1 are clamped to 1.
    Every store lives in memory and dies with the engine; persistence
    across processes is {!Cbsp_validate.Matrix.run}'s, per workload. *)

val collect :
  engine ->
  Cbsp_source.Ast.program ->
  Cbsp_compiler.Binary.t ->
  label:string ->
  sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  input:Cbsp_source.Input.t ->
  plan ->
  pass
(** One streaming collection pass of [binary] (compiled from [program])
    on [input], memoized in the engine's pass store under everything
    that determines it: the binary's (program, config) key, [input],
    [cache_config] and [plan], and for a [Fixed] or [Recorded] plan the
    [dims] and [seed] of [sp_config], which fix the projection its
    collector applies.  No other SimPoint setting is read, and a
    [Replayed] pass reads none.  The first caller runs the pass — timed
    under [Stage.Interval_collection] with [label] — and every later
    caller with an equal key gets the same value.  Every {!run} reads
    its passes through here, after {!collect_shared} filled them. *)

val collect_shared :
  engine ->
  Cbsp_source.Ast.program ->
  Cbsp_compiler.Binary.t ->
  sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  input:Cbsp_source.Input.t ->
  (string * plan) list ->
  unit
(** Store the pass of every [(kind, plan)] that the pass store lacks,
    in one execution of [binary]: one executor run and one CPU model,
    with one interval builder and collector per plan composed before
    the CPU.  Each plan's stored pass is the very value {!collect}
    would store for it alone (same key, bit-identical), so read them
    back with {!collect}.  The run is timed under
    [Stage.Interval_collection] as [<program>/<config>/<kinds>], the
    distinct kinds sorted and joined by ["+"] (["fli+vli"]).  Plans
    with equal keys count once, and with fewer than two plans missing
    there is nothing to share and nothing runs: a lone plan runs when
    {!collect} first asks for it.

    Never raises.  If the shared run raises, each plan is collected
    alone, so the exception is stored under the plan that caused it (a
    later {!collect} of that plan re-raises it) and every other plan
    is stored as usual. *)

val clustering :
  engine ->
  Cbsp_source.Ast.program ->
  Cbsp_compiler.Binary.t ->
  label:string ->
  sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  input:Cbsp_source.Input.t ->
  plan ->
  clustering
(** SimPoint under [sp_config] over the points of the pass {!collect}
    returns for the same arguments, memoized by (pass, [sp_config]) and
    timed under [Stage.Clustering] by the first caller.  Every {!run}
    clusters through here.
    @raise Invalid_argument if the pass has no live interval (so for
    every [Replayed] plan). *)

val timings : engine -> Cbsp_engine.Timing.record list
(** Every job record accumulated so far, in canonical (stage, label)
    order. *)

val compile_stats : engine -> int * int
(** [(computes, hits)] of the binary store: how many compiles ran and how
    many requests were served memoized. *)

val profile_stats : engine -> int * int
(** [(computes, hits)] of the structure-profile store — with
    [run_vli ~static:true], [computes] stays at zero whenever the static
    prover decided every candidate marker. *)

(** {1 Estimators}

    Every scored method is one {!estimator} value, and {!run} is the one
    entry point; {!run_fli}, {!run_vli} and {!run_sampling} apply it. *)

(** How VLI decides which markers are mappable (steps 1-2). *)
type matching =
  | Dynamic  (** Profile every binary and intersect the markers seen. *)
  | Static
      (** The sound static prover ({!Cbsp_analysis.Prover}); only its
          [Needs_dynamic] residue is profiled and matched dynamically,
          so profiling is skipped when it decides every candidate.  The
          [analysis.*] metrics count proved / undecided / skipped. *)
  | Recovered
      (** [Static], plus {!Cbsp_analysis.Fingerprint} recovery of the
          markers loop splitting lost: order-safe recoveries join the
          cut set.  Boundaries are stored under canonical key names and
          translated into each follower's local names, so [vli_points]
          stays binary-independent.  Timed under [fingerprint]; counted
          by the [match.semantic_*] metrics. *)

type vli_spec = {
  matching : matching;
  primary : int;  (** Index of the configuration cut into VLIs. *)
  match_options : Matching.options option;
}

type sampling_spec = {
  level : float;     (** Confidence level of every run. *)
  seeds : int list;  (** One run per seed. *)
  n : int;           (** Per-run sample size. *)
}

type _ estimator =
  | Fli : fli_result estimator
  | Vli : vli_spec -> vli_result estimator
  | Sampling : sampling_spec -> sampling_result estimator
      (** Every sampler in {!sampling_methods}. *)

type any = Any : _ estimator -> any

type output = Output : 'r estimator * 'r -> output
(** One estimator's typed result, with the estimator that produced
    it. *)

val run_batch :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?engine:engine ->
  any list ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  (output, exn) result list
(** Run several estimators over one program with one execution per
    binary, outcomes in the given order.  Three steps:

    - {e plan} each estimator: check its arguments, compile, match, and
      name the passes it knows up front ([Fixed target] for FLI and the
      samplers, [Recorded] for a VLI primary);
    - run every binary some plan records as a VLI primary (wave 1),
      then let each VLI {e follow} its primary's boundaries with
      [Replayed] plans and run every other binary (wave 2), so that a
      binary's [Fixed] and [Replayed] plans share one run.  Each binary
      goes through {!collect_shared} once per wave it appears in,
      binaries in parallel up to the engine's [jobs]; a binary asked
      for one plan only runs it when that plan is first read;
    - {e finish} each estimator in order: cluster, summarize and
      sample over the stored passes.

    Every pass, clustering and result is bit-identical to running the
    estimators one by one on fresh engines.  Failures stay isolated:
    an estimator that raises while planning, following or finishing
    yields [Error] and no other outcome changes, and a failed shared
    run falls back to one run per plan.  Passes already in the pass
    store are not run again. *)

val run :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?engine:engine ->
  'r estimator ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  'r
(** Run one estimator: {!run_batch} of one, its error re-raised.  Every
    pass streams: O(1 interval) of profile memory (the
    [profile.scratch_intervals] gauge reads 9 rows), shared with other
    estimators on the same engine.  Each step is traced as a [run_fli],
    [run_vli] or [run_sampling] span with a [phase] attribute ([plan],
    [follow], [finish]).
    @raise Invalid_argument ["Pipeline.<span>: ..."] before any work if
    [configs] is empty, [target <= 0], a VLI [primary] is out of range,
    or a sampling spec has [n < 2] or no seeds. *)

val names : any -> string list
(** The method names an estimator's {!records} carry: ["fli"]; ["vli"],
    ["vli-static"] or ["vli-recovered"] by matching; or
    {!sampling_methods}. *)

val run_fli :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?engine:engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  fli_result
(** [run Fli]. *)

val run_vli :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?match_options:Matching.options ->
  ?primary:int ->
  ?static:bool ->
  ?semantic:bool ->
  ?engine:engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  vli_result
(** [run (Vli spec)]: [primary] defaults to 0; the matching is
    [Recovered] if [semantic], else [Static] if [static], else
    [Dynamic] (both flags default to false). *)

val sampling_methods : string list
(** [["srs"; "systematic"; "strat-phase"; "strat-mix"]] — simple random,
    systematic, and the two stratified samplers: k-means phase strata and
    instruction-mix quantile strata.  Both stratified samplers are
    Neyman-allocated using the access-mix proxy. *)

val run_sampling :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?engine:engine ->
  ?level:float ->
  ?seeds:int list ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  n:int ->
  sampling_result
(** [run (Sampling {level; seeds; n})], [level] defaulting to 0.95 and
    [seeds] to [[2007]]: on {!run_fli}'s [Fixed target] pass per binary
    (shared through {!collect}), every sampler in {!sampling_methods}
    runs once per seed, each timed under [Stage.Sampling].  The pass
    also yields the true CPI the CIs are judged against. *)

val find_sampling_binary : sampling_result -> label:string -> sampling_binary
(** Look up by config label.  @raise Not_found if absent. *)

val sampling_speedup :
  sampling_result ->
  a:string ->
  b:string ->
  method_:string ->
  seed:int ->
  Cbsp_sampling.Sampler.ratio_ci
(** Estimated speedup of binary [a] over binary [b] (labels), with the
    CI propagated through the cycle ratio — "A is 1.31x ± 0.04 faster
    than B at 95%".  Uses each binary's own estimate from [method_] and
    [seed] and its true instruction total.
    @raise Not_found if a label, method or seed is absent. *)

val replay :
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  Cbsp_compiler.Binary.t ->
  input:Cbsp_source.Input.t ->
  points ->
  binary_result
(** Measure one binary against an existing set of simulation points (e.g.
    loaded from a points file): replay the boundaries, recompute weights,
    extrapolate CPI and the extra metrics.
    @raise Invalid_argument if the points do not come from the binary's
    (program, input): a boundary is never reached, or the interval count
    differs from the file's phase labels. *)

val find_binary : binary_result list -> label:string -> binary_result
(** Look up by {!Cbsp_compiler.Config.label} (["32u"], ["64o"], ...).
    @raise Not_found if absent. *)

(** {1 Uniform estimate records}

    Every pipeline flavor reduced to the same shape — one record per
    (method, binary) with the measured truth next to the estimate — so
    downstream consumers (the validation harness in particular) compute
    CPI and cross-binary speedup errors with a single code path. *)

type estimate_record = {
  er_method : string;      (** ["fli"], ["vli"], a sampling method, ... *)
  er_label : string;       (** {!Cbsp_compiler.Config.label} of the binary. *)
  er_truth : truth;        (** Full-run measurement for this binary. *)
  er_est_cpi : float;
  er_est_cycles : float;   (** [er_est_cpi *. er_truth.t_insts]. *)
}

val records : 'r estimator -> 'r -> estimate_record list
(** Records in input-config order, named by {!names}: one per binary,
    or for [Sampling] one per (binary, sampler) whose estimate is the
    mean over seeds — the record scores the method, not an RNG stream. *)

val estimate_records_fli : fli_result -> estimate_record list
(** [records Fli]. *)

val estimate_records_vli : vli_result -> estimate_record list
(** [records] of a [Dynamic] VLI: method ["vli"]. *)

val estimate_records_sampling : sampling_result -> estimate_record list
(** [records] of the result's own sampling spec. *)
