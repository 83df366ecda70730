(** End-to-end simulation-point pipelines: the paper's two methods.

    {b Per-binary SimPoint (FLI)} — Section 2: each binary independently
    gets fixed-length intervals, its own clustering and its own simulation
    points.  Accurate per binary; biases may differ across binaries.

    {b Mappable SimPoint (VLI)} — Section 3: mappable markers are
    intersected across all binaries, the primary binary is cut into
    variable-length intervals at mappable markers, clustered once, and the
    chosen simulation points are mapped to every binary as
    (marker, count) boundary pairs.  Weights are then recomputed per
    binary from its own per-phase instruction totals.

    Both pipelines "simulate" each chosen region through the CMP$im-style
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
  sb_sp_cpi : float;    (** SimPoint CPI estimate on the same intervals. *)
  sb_sp_error : float;  (** SimPoint's relative CPI error. *)
  sb_sp_cost_insts : float;
      (** Instructions inside SimPoint's representative intervals — its
          detailed-simulation cost, comparable to
          {!Cbsp_sampling.Sampler.estimate.e_cost_insts}. *)
  sb_n_intervals : int;
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

    Both pipelines decompose into jobs — (stage, binary) pairs: compile,
    structure profile, interval collection, clustering, summarize.  An
    {!engine} carries the three pieces of machinery shared by those jobs:

    - a scheduler width ([jobs]): independent jobs (distinct
      configurations in {!run_fli}, profile and follower runs in
      {!run_vli}) run on up to [jobs] domains.  [jobs = 1] (the default)
      is strictly sequential; any [jobs] produces bit-identical results
      because jobs share no mutable state and results are assembled in
      input order;
    - content-keyed artifact stores memoizing compiled binaries by
      (program, config) and structure profiles by (program, config,
      input).  Passing one engine to several pipeline calls (as
      {!Cbsp_report.Experiment.run_suite} does for a workload's FLI and
      VLI runs) deduplicates that work: each binary compiles exactly
      once;
    - an in-memory pass store memoizing interval-collection passes by
      (binary, input, cache and SimPoint configuration, cut plan): FLI
      and the samplers cut the same fixed-length plan, and VLI runs
      whose cut plans agree (plain, static and recovered, outside
      loop-split programs) replay the same primary and followers, so
      each distinct pass runs once per engine;
    - a timing sink recording every job's wall-clock and input/output
      sizes, for the per-stage timing report.

    Omitting [?engine] creates a fresh sequential engine per call —
    exactly the seed behaviour. *)

type result_caches = {
  rc_fli : fli_result Cbsp_engine.Store.t;
  rc_vli : vli_result Cbsp_engine.Store.t;
  rc_sampling : sampling_result Cbsp_engine.Store.t;
}
(** Whole-result stores, present only on engines created with
    [?cache_dir]: {!run_fli}/{!run_vli}/{!run_sampling} through such an
    engine memoize (and persist) the entire result keyed by everything
    that determines it, so a warm process answers repeat requests
    without touching the executor.  Engines without a persistent cache
    never use this layer — in particular the differential tests' fresh
    engines. *)

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
  ps_clustering : clustering option;  (** [None] for [Replayed]. *)
  ps_boundaries : Cbsp_profile.Interval.boundary array;
      (** [Recorded]: the boundaries cut; otherwise empty. *)
  ps_mix : float array;
      (** [Fixed]: per-interval {!Cbsp_sampling.Strata.access_mix_of};
          otherwise empty. *)
  ps_locality : int array;
      (** [Fixed]: per-interval
          {!Cbsp_sampling.Strata.static_locality_of} under the cache
          configuration's LLC; otherwise empty. *)
}
(** One streaming collection pass as its consumers read it — never BBVs
    or collector scratch, which do not outlive the pass. *)

type engine = {
  eng_jobs : int;  (** Scheduler width; 1 = sequential. *)
  eng_binaries : Cbsp_compiler.Binary.t Cbsp_engine.Store.t;
  eng_profiles : Cbsp_profile.Structprof.t Cbsp_engine.Store.t;
  eng_passes : pass Cbsp_engine.Store.t;
      (** Collection passes of this engine (memory only, no disk
          layer). *)
  eng_results : result_caches option;
  eng_timing : Cbsp_engine.Timing.sink;
}

val create_engine :
  ?jobs:int -> ?cache_dir:string -> unit -> engine
(** [jobs] defaults to 1 (sequential); values below 1 are clamped to 1.

    With [cache_dir], every store (binaries, profiles, and the
    whole-result caches) gets a sharded persistent
    {!Cbsp_engine.Diskcache} under that directory ([binaries/],
    [profiles/], [results-fli/], [results-vli/]), each LRU-bounded by
    256 MiB: a second process pointed at the same directory warm-starts
    from disk, and concurrent processes coalesce identical computes via
    the cache's lock files. *)

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
    [cache_config], [sp_config] and [plan].  The first caller runs the
    pass — timed under [Stage.Interval_collection] and, unless
    [Replayed], [Stage.Clustering], with [label] — and every later
    caller with an equal key gets the same value.  {!run_fli},
    {!run_vli} and {!run_sampling} collect through here. *)

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

val run_fli :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?materialize:bool ->
  ?engine:engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  fli_result
(** [materialize] (default false) selects the profile-memory regime and
    nothing else — results are bit-identical either way:

    - [false] (streaming): each interval is consumed by a
      {!Streamprof} collector the moment the builder emits it — its
      scalars kept, its BBV normalized into a small chunk buffer and
      projected chunk-at-a-time — so a pass holds O(1 interval) of
      profile memory (the [profile.scratch_intervals] gauge reads the
      builder's accumulator plus the collector's projection chunk, 9
      rows today), independent of run length;
    - [true] (the pre-streaming behaviour): all intervals are
      materialized as an array first, then clustered.  The gauge grows
      with run length.  Retained as the differential-test reference. *)

val run_vli :
  ?sp_config:Cbsp_simpoint.Simpoint.config ->
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?match_options:Matching.options ->
  ?primary:int ->
  ?static:bool ->
  ?semantic:bool ->
  ?materialize:bool ->
  ?engine:engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  target:int ->
  vli_result
(** [primary] defaults to 0 (the first configuration).

    [materialize] (default false) is {!run_fli}'s switch applied to the
    primary recorder pass; follower passes carry no BBVs and always
    stream.  Streaming and materialized runs are bit-identical.

    [static] (default false) replaces steps 1-2 with the static
    mappability prover ({!Cbsp_analysis.Prover}): profiles are computed
    and dynamically matched only for the [Needs_dynamic] residue, and
    skipped entirely when the prover decides every candidate marker.
    The resulting {!Matching.t} agrees with the dynamic one on every
    decided marker (the prover is sound), and the [analysis.*] metrics
    record proved / undecided / profile-skip counts.

    [semantic] (default false, implies the static path) additionally
    runs {!Cbsp_analysis.Fingerprint} over the markers the prover lost
    to loop splitting: lost loops are re-paired with the optimizer's
    mangled fragments by structural fingerprint similarity, verified
    against the symbolic count domain, and the order-safe recoveries
    join the cut set.  Recorded boundaries are stored under canonical
    (unmangled) key names and translated into each binary's local
    (possibly mangled) names before a follower replays them, so
    [vli_points] stays binary-independent.  A [fingerprint] timing
    stage and the [match.semantic_*] metrics (lost / identified /
    recovered / demoted) record the pass.
    @raise Invalid_argument if [primary] is out of range or [configs] is
    empty. *)

val sampling_methods : string list
(** [["srs"; "systematic"; "strat-phase"; "strat-mix"; "strat-static"]] —
    simple random, systematic, and the three stratified samplers: k-means
    phase strata, instruction-mix quantile strata, and the profile-free
    static-locality strata ({!Cbsp_sampling.Strata.static_locality} —
    interval labels derived from the binary alone, no clustering or
    quantile pass).  All stratified samplers are Neyman-allocated using
    the access-mix proxy. *)

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
(** One streaming [Fixed target] pass per binary — through {!collect},
    so an engine that already ran {!run_fli} at the same target reuses
    its passes — then every sampler in
    {!sampling_methods} runs once per seed on the resulting interval
    population, each timed under [Stage.Sampling].  The same pass also
    yields the SimPoint baseline ([sb_sp_cpi]) and the true CPI the CIs
    are judged against.  [level] defaults to 0.95, [seeds] to [[2007]].
    @raise Invalid_argument if [configs] or [seeds] is empty or [n < 2]. *)

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

val run_locality :
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  ?engine:engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  input:Cbsp_source.Input.t ->
  (Cbsp_compiler.Config.t * Cbsp_analysis.Locality.report) list
(** Static locality analysis of every configuration's binary: compile
    (memoized via the engine), then one {!Cbsp_analysis.Locality.analyze}
    pass per binary, timed under [Stage.Locality].  No executor run — the
    result depends only on (program, configs, input scale, cache
    geometry).  Order follows [configs].
    @raise Invalid_argument if [configs] is empty. *)

val replay :
  ?cache_config:Cbsp_cache.Hierarchy.config ->
  Cbsp_compiler.Binary.t ->
  input:Cbsp_source.Input.t ->
  points ->
  binary_result
(** Measure one binary against an existing set of simulation points (e.g.
    loaded from a points file): replay the boundaries, recompute weights,
    extrapolate CPI and the extra metrics.  The points must come from the
    same (program, input) — boundary replay fails otherwise. *)

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

val estimate_records_fli : fli_result -> estimate_record list
(** One record per binary, method ["fli"], in input-config order. *)

val estimate_records_vli : ?method_:string -> vli_result -> estimate_record list
(** One record per binary, in input-config order.  [method_] (default
    ["vli"]) names the record — pass e.g. ["vli-static"] when the result
    came from a prover-assisted run. *)

val estimate_records_sampling : sampling_result -> estimate_record list
(** One record per (binary, sampling method): the point estimate is the
    mean of the per-seed estimates, so the record scores the method
    rather than a single RNG stream.  Order: binaries in input-config
    order, methods in {!sampling_methods} order within each binary. *)
