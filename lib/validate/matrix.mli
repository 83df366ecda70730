(** The validation matrix: every requested workload x binary pair x
    estimation method, each cell a relative error against the full-run
    truth.  It is the one suite harness: the leaderboard scores its
    cells, and the paper's figures and tables ({!Cbsp_report.Figures})
    read the FLI and VLI results it keeps.

    One {!Cbsp.Pipeline.engine} per workload, and one
    {!Cbsp.Pipeline.run_batch} of the {!estimators} on it: each binary
    compiles once and executes once per workload, every pass the
    estimators ask of it riding that run.  Workloads fan out over scheduler
    domains, results in input order — bit-identical for every [jobs]
    value.  A [cache_dir] additionally memoizes whole pipeline results
    on disk, so re-validating an unchanged tree replays from the cache
    in seconds. *)

type options = {
  mo_target : int;        (** Interval target (instructions). *)
  mo_scale : int;         (** Input scale. *)
  mo_seed : int;          (** Input seed. *)
  mo_max_k : int;         (** SimPoint phase-count cap. *)
  mo_level : float;       (** Sampling confidence level. *)
  mo_sample_n : int;      (** Per-run sample size. *)
  mo_sample_seeds : int list;  (** Sampling RNG seeds (>= 1). *)
  mo_primary : int;
      (** Index of the binary the three VLI estimators cut into
          intervals.  Not part of [cbsp-validate/1]: validation always
          runs the default. *)
}

val default_options : options
(** Paper-faithful defaults: target 100k, scale 10, seed 42, max_k 10,
    level 0.95, n 64, seeds [2007; 2008; 2009], primary 0. *)

val estimators : options -> Cbsp.Pipeline.any list
(** The estimator table one matrix row runs, in order: FLI, VLI under
    [Dynamic], [Static] and [Recovered] matching (primary
    [mo_primary]), then the samplers at [options]' level, seeds and
    sample size. *)

val methods : string list
(** The eight scored methods, {!Cbsp.Pipeline.names} over {!estimators}:
    [["fli"; "vli"; "vli-static"; "vli-recovered"]] followed by
    {!Cbsp.Pipeline.sampling_methods}.  ["vli-recovered"] is the static
    VLI with {!Cbsp_analysis.Fingerprint} semantic recovery of
    split-lost markers. *)

val same_platform_pairs : (string * string) list
(** Figure 4's pairs: 32u->32o and 64u->64o. *)

val cross_platform_pairs : (string * string) list
(** Figure 5's pairs: 32u->64u and 32o->64o. *)

val pairs : (string * string) list
(** The paper's four speedup pairs: {!same_platform_pairs} then
    {!cross_platform_pairs}. *)

type output = Cbsp.Pipeline.output =
  | Output : 'r Cbsp.Pipeline.estimator * 'r -> output
(** One estimator's typed result, with the estimator that produced
    it. *)

type workload_result = {
  w_name : string;
  w_cells : Errors.cell list;
  w_truth : Truth.entry list;   (** Per-binary ground truth. *)
  w_mismatches : (string * string) list;
      (** {!Truth.mismatches} — empty on a healthy run. *)
  w_failed : (string * string) list;
      (** [(method, reason)] for every method of an estimator that
          raised; their cells are absent and counted as failed coverage,
          never silently dropped. *)
  w_outputs : output list;
      (** Every estimator's result, in {!estimators} order, minus those
          that raised: the figures read FLI and dynamic VLI here, the
          leaderboard's CI calibration the samplers' per-seed
          estimates. *)
  w_timings : Cbsp_engine.Timing.record list;
      (** Every job this workload's engine ran (including the
          [validate] error-computation stage). *)
}

type t = {
  m_workloads : workload_result list;  (** In requested-name order. *)
  m_options : options;
  m_jobs : int;
}

val run_estimator :
  options:options ->
  engine:Cbsp.Pipeline.engine ->
  Cbsp_source.Ast.program ->
  configs:Cbsp_compiler.Config.t list ->
  Cbsp.Pipeline.any ->
  output
(** One table entry on [engine] at [options]' input, target and
    SimPoint cap. *)

val fli : workload_result -> Cbsp.Pipeline.fli_result option
(** The workload's FLI result; [None] when FLI raised. *)

val vli : workload_result -> Cbsp.Pipeline.vli_result option
(** The workload's [Dynamic] VLI result — the paper's mappable
    SimPoint. *)

val sampling : workload_result -> Cbsp.Pipeline.sampling_result option
(** The samplers' result. *)

val run :
  ?options:options ->
  ?names:string list ->
  ?jobs:int ->
  ?cache_dir:string ->
  ?progress:(string -> unit) ->
  unit ->
  t
(** The full matrix over [names] (default: the whole registry).
    [jobs] (default 1) bounds worker domains; [progress] is called with
    each workload's name before it runs (from a worker domain when
    [jobs > 1]).  The result carries no wall-clock — it is a pure
    function of [(options, names)].
    @raise Not_found for unknown workload names (checked before any
    pipeline work). *)

val timings : t -> Cbsp_engine.Timing.record list
(** All workloads' job records concatenated, in matrix order. *)

val cells : t -> Errors.cell list
(** All cells concatenated, in matrix order. *)

val failures : t -> (string * string * string) list
(** [(workload, method, reason)], flattened. *)

val truth_mismatches : t -> (string * string * string) list
(** [(workload, method, label)], flattened. *)
