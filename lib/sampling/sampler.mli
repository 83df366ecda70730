(** Statistical sampling estimators for whole-program CPI — the
    alternative to SimPoint's clustering, after Ekman's two-phase
    stratified CPU-simulation sampling.

    The population is the set of per-interval measurements the pipeline
    already collects: interval [i] has a size [insts.(i)] (instructions)
    and a cost [cycles.(i)].  The target quantity is the population ratio
    [sum cycles / sum insts] — whole-program CPI (the same machinery
    estimates any per-interval event total, e.g. cache misses, by passing
    the event counts as [cycles]).  Each estimator picks a subset of
    intervals ("simulate only these in detail"), forms the weighted point
    estimate, and attaches a Student-t confidence interval — the error
    bar SimPoint's single deterministic choice cannot provide.

    All estimators use the classical ratio estimator with the residual
    variance technique and finite-population correction (Cochran,
    {e Sampling Techniques}, ch. 6): for a sample [s],
    [R = sum_s cycles / sum_s insts], residuals
    [d_i = cycles_i - R insts_i], and
    [Var(R) ~= (1 - n/N) s_d^2 / (n m_bar^2)].  Two invariants hold for
    every estimator (and are property-tested): the reported per-sample
    weights sum to 1, and when the sample is the whole population the
    point estimate is exact and the half-width is 0.

    Intervals with [insts = 0] (the possibly-empty trailing interval) are
    excluded from the population, mirroring how clustering skips them. *)

type estimate = {
  e_method : string;        (** ["srs"], ["systematic"], ["strat-phase"]... *)
  e_point : float;          (** Estimated CPI (or metric ratio). *)
  e_half : float;           (** CI half-width; 0 for a census,
                                [infinity] when inestimable (n < 2). *)
  e_level : float;          (** Confidence level, e.g. 0.95. *)
  e_df : int;               (** Degrees of freedom of the t quantile. *)
  e_n : int;                (** Intervals simulated in detail (phase 2). *)
  e_population : int;       (** Non-empty intervals available. *)
  e_indices : int array;    (** Sampled interval indices, ascending. *)
  e_weights : float array;  (** Per-sample estimate weights (parallel to
                                [e_indices]); they sum to 1. *)
  e_cost_insts : float;     (** Instructions inside the sampled intervals —
                                the detailed-simulation cost of the
                                estimate. *)
}

val covers : estimate -> truth:float -> bool
(** Does the confidence interval [[e_point - e_half, e_point + e_half]]
    contain [truth]?  The coverage metric:
    a well-calibrated 95% estimator covers on ~95% of seeds. *)

val srs :
  ?level:float ->
  rng:Cbsp_util.Rng.t ->
  n:int ->
  insts:float array ->
  cycles:float array ->
  unit ->
  estimate
(** Simple random sampling without replacement of [n] intervals ([n] is
    clamped to the population size).  [level] defaults to 0.95.
    @raise Invalid_argument on length mismatch, [n <= 0], or an empty
    population. *)

val systematic :
  ?level:float ->
  rng:Cbsp_util.Rng.t ->
  n:int ->
  insts:float array ->
  cycles:float array ->
  unit ->
  estimate
(** Systematic sampling: every [N/n]-th interval from a random start.
    Captures periodic program structure cheaply; its variance (and hence
    CI) is approximated by the SRS formula, the standard practice when
    the period of the program and of the sampler do not resonate.
    @raise Invalid_argument as {!srs}. *)

val stratified :
  ?level:float ->
  ?name:string ->
  ?proxy:float array ->
  rng:Cbsp_util.Rng.t ->
  n:int ->
  strata:int array ->
  insts:float array ->
  cycles:float array ->
  unit ->
  estimate
(** Two-phase stratified sampling: [strata.(i)] is interval [i]'s stratum
    label from the cheap phase-1 pass (k-means phase or instruction-mix
    quantile bin).  Within each stratum, intervals are drawn by SRS; the
    per-stratum sample sizes come from Neyman allocation over the phase-1
    [proxy] (per-interval spread proxy, e.g. memory-access mix) — or
    proportional to instruction share when [proxy] is omitted.  Every
    non-empty stratum receives at least one sample, so [n] is raised to
    the stratum count if below it.  The estimate is
    [sum_h W_h R_h] with [W_h] the stratum's (phase-1, exact) instruction
    share; the variance sums the per-stratum SRS terms and the t quantile
    uses Satterthwaite's effective degrees of freedom
    [(sum_h g_h)^2 / sum_h g_h^2/(n_h - 1)] over the variance
    contributions [g_h = W_h^2 Var_h] — [sum_h (n_h - 1)] would overstate
    the df (and undercover) when one stratum dominates the variance.
    [name] overrides the reported method name (default ["stratified"]).
    @raise Invalid_argument on length mismatches, negative labels,
    [n <= 0], or an empty population. *)

(** {1 Cross-binary speedup with propagated confidence} *)

type ratio_ci = {
  r_point : float;  (** Estimated speedup (cycles A / cycles B). *)
  r_half : float;   (** CI half-width at [r_level]. *)
  r_level : float;
}

val speedup :
  a:estimate -> insts_a:float -> b:estimate -> insts_b:float -> ratio_ci
(** Speedup of binary [a] over binary [b]
    ([cpi_a * insts_a / (cpi_b * insts_b)], matching
    [Metrics.true_speedup]'s cycle-ratio convention) with the CI
    propagated by the delta method: the relative half-widths of the two
    independent CPI estimates add in quadrature.  This is what lets the
    harness report "A is 1.31x +/- 0.04 faster than B at 95%".
    Total on degenerate input: an estimate that is not positive (or is
    [nan]) gives [nan] for both the point and the half-width.
    @raise Invalid_argument if the levels differ (a caller bug). *)
