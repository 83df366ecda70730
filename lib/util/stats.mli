(** Small descriptive-statistics toolkit used throughout the evaluation
    harness: means, deviations, weighted aggregates and the error metrics
    the paper reports (relative CPI error, speedup error). *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Population variance; 0 for arrays of length < 2. *)

val stddev : float array -> float

val sample_variance : float array -> float
(** Unbiased sample variance (the [n - 1] denominator) — what the
    sampling estimators feed their standard errors; 0 for arrays of
    length < 2. *)

val t_quantile : df:int -> level:float -> float
(** Two-sided Student-t critical value: the [c] with
    [P(|T_df| <= c) = level], e.g. [t_quantile ~df:10 ~level:0.95]
    is 2.228.  Computed from the regularized incomplete beta function;
    accurate to well below 1e-8 over the whole table.  Total in [df]:
    [nan] when [df < 1] (no degrees of freedom, no interval).
    @raise Invalid_argument if [level] is outside (0, 1). *)

val confidence_interval : ?level:float -> float array -> float * float
(** [(lo, hi)] of the Student-t confidence interval for the mean of the
    samples: [mean -/+ t * sqrt (sample_variance / n)].  [level] defaults
    to 0.95.  Total in the samples: [(nan, nan)] for fewer than two,
    which have no spread to scale.
    @raise Invalid_argument if [level] is outside (0, 1). *)

val median : float array -> float
(** [percentile ~p:50.0] (does not modify the input); nan for the empty
    array. *)

val percentile : float array -> p:float -> float
(** Linear-interpolation percentile.  Total over the array contents, and
    consistent with {!relative_error}'s nan contract: nan for the empty
    array, and nan elements sort after every finite value (so quantiles
    of a partially-poisoned array read the finite values first, and a
    fully-poisoned array reads nan).  Does not modify the input.
    @raise Invalid_argument unless [p] is in [[0, 100]]. *)

val relative_error : truth:float -> estimate:float -> float
(** [|truth - estimate| / |truth|]; the paper's CPI-error and
    speedup-error metric.  Total: when [truth = 0] or either argument is
    non-finite the result is [nan] — the "this cell could not be
    evaluated" marker.  Consumers aggregating many errors (the validate
    leaderboard, the figures) must skip-and-count non-finite values
    rather than fold them into means.  The result is never negative and
    is [nan] only in the cases above. *)

val signed_relative_error : truth:float -> estimate:float -> float
(** [(estimate - truth) / truth]; used for the per-phase bias columns of
    Tables 2 and 3, where the sign of the bias matters.  Total, with
    {!relative_error}'s contract: [nan] when [truth = 0] or either
    argument is non-finite, never an exception. *)

val sum : float array -> float
(** Numerically-stable (Kahan) sum. *)

val normalize_into : float array -> float array -> unit
(** [normalize_into xs out] fills the caller-provided buffer [out] with
    [xs] scaled to sum to 1: [out.(i)] is [xs.(i) /. sum xs], divided in
    ascending order (a zero is stored as [+0.0] undivided, the same
    bits for a positive finite sum).
    @raise Invalid_argument on length mismatch or zero sum. *)

val sq_distance : float array -> float array -> float
(** Squared Euclidean distance.  @raise Invalid_argument on length
    mismatch. *)
