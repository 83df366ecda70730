(** Per-method aggregation of a validation matrix into a ranked
    leaderboard, and its serialization as the [cbsp-validate/1]
    document.

    Aggregation is skip-and-count: non-finite cell errors (the
    {!Cbsp_util.Stats.relative_error} nan contract) never enter a mean —
    they are counted per aggregate ([a_skipped]) and in the matrix-wide
    {!coverage}, so a "great" score backed by silently dropped cells is
    impossible. *)

type agg = {
  a_mean : float;
  a_max : float;
  a_p50 : float;
  a_p90 : float;
  a_ci_lo : float;  (** Student-t CI for the mean; [nan] when < 2 cells. *)
  a_ci_hi : float;
  a_n : int;        (** Finite cells aggregated. *)
  a_skipped : int;  (** Non-finite cells excluded. *)
}

(** A sampler's confidence intervals judged against the truth, pooled
    over every (workload, binary, seed) run; [nan] with no trials. *)
type calibration = {
  c_runs : int;
  c_coverage : float;  (** Share of CIs containing the true CPI. *)
  c_mean_rel_half : float;  (** Finite CI half-widths / true CPI. *)
  c_mean_cost_fraction : float;  (** [e_cost_insts / t_insts]. *)
  c_speedup_coverage : float;
      (** Share of {!Matrix.pairs} speedup CIs (same seed on both
          binaries) containing the true speedup; a [nan] CI misses. *)
}

type method_row = {
  r_method : string;
  r_cpi : agg;      (** Over the method's CPI cells, all workloads. *)
  r_speedup : agg;  (** Over the method's speedup cells. *)
  r_calibration : calibration option;
      (** [Some] exactly for the {!Cbsp.Pipeline.sampling_methods}. *)
}

type coverage = {
  cov_expected : int;
      (** workloads x methods x (labels + pairs) — the full matrix. *)
  cov_evaluated : int;  (** Cells with a finite error. *)
  cov_skipped : int;    (** Cells computed but non-finite. *)
  cov_failed : int;     (** Cells missing because a method group raised. *)
}

type t = {
  lb_rows : method_row list;
      (** Ranked: ascending mean CPI error, methods with no finite cells
          last, ties broken by method name — a total, deterministic
          order. *)
  lb_coverage : coverage;
}

val n_labels : int
(** Binaries per workload (the paper's four configurations). *)

val aggregate : float list -> agg
(** Skip-and-count aggregation of raw errors (exposed for tests). *)

val calibrate :
  Cbsp.Pipeline.sampling_result list -> method_:string -> calibration
(** Pool [method_]'s runs over one result per workload.  Never raises. *)

val build : Matrix.t -> t

val find : t -> method_:string -> method_row
(** @raise Not_found. *)

val to_json : ?mode:string -> Matrix.t -> t -> Cbsp_json.Jsonx.t
(** The [cbsp-validate/1] document: schema tag, [mode] (default
    ["full"]), the run options, workloads/methods/pairs, coverage, the
    ranked leaderboard (sampler rows carry a [calibration] object, [nan]
    written as [null]), every cell, and any failures or truth
    mismatches.  Deliberately excludes wall-clock and the scheduler
    width, so the document is byte-identical across [-j] values and
    cache states. *)
