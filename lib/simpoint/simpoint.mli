(** The SimPoint 3.0 pipeline (paper Section 2.3): normalize BBVs, project
    to low dimension, cluster for k = 1..max_k, choose k by BIC, then pick
    one representative interval per phase with its weight.

    Works for fixed-length intervals (uniform weights) and variable-length
    intervals (weights = interval instruction counts) alike. *)

(** How the representative interval of each phase is chosen. *)
type rep_policy =
  | Centroid
      (** The member closest to the cluster centroid — SimPoint's
          default. *)
  | Early of float
      (** The {e earliest} member whose distance is within
          [(1 + tolerance)] of the best — "early simulation points"
          (Perelman et al., PACT 2003): near-equally representative but
          cheaper to fast-forward to. *)

(** How the space of k values is explored. *)
type k_search =
  | All_k  (** Cluster for every k in [1, max_k] (SimPoint default). *)
  | Binary_search
      (** Cluster k=1 and k=max_k to bracket the BIC range, then binary
          search for the smallest k above the threshold — SimPoint 3.0's
          faster search (assumes BIC is roughly monotone in k). *)

type config = {
  max_k : int;        (** Upper bound on phases (paper uses 10). *)
  dims : int;         (** Projected dimensionality (SimPoint uses 15). *)
  bic_fraction : float;  (** Threshold fraction of the BIC range (0.9). *)
  restarts : int;     (** k-means restarts per k. *)
  max_iters : int;    (** Lloyd iteration cap. *)
  seed : int;         (** Master seed for projection and seeding. *)
  rep_policy : rep_policy;
  k_search : k_search;
}

val default_config : config
(** max_k 10, dims 15, bic_fraction 0.9, restarts 5, max_iters 100,
    seed 2007, Centroid representatives, All_k search. *)

type sim_point = {
  phase : int;     (** Cluster id in [0, k). *)
  rep : int;       (** Index of the representative interval. *)
  weight : float;  (** Fraction of total weight in this phase. *)
}

type t = {
  k : int;
  phase_of : int array;        (** Interval index -> phase id. *)
  points : sim_point array;    (** One per phase, by phase id. *)
  bic_scores : (int * float) list;  (** (k, BIC) for every k tried
                                        (ascending k; a subset of
                                        [1, max_k] under
                                        {!Binary_search}). *)
}

val pick :
  ?config:config -> weights:float array -> bbvs:float array array -> unit -> t
(** [weights.(i)] is interval [i]'s instruction count (uniform for FLI);
    [bbvs.(i)] its basic block vector.  All weights must be finite and
    > 0 and every
    BBV must have a positive sum (callers exclude empty intervals).
    @raise Invalid_argument otherwise. *)

val pick_projected :
  ?config:config -> weights:float array -> points:float array array -> unit -> t
(** Everything {!pick} does after projection: BIC-searched clustering
    over already-projected points.  The streaming profile path projects
    each interval as it is emitted (via {!projection_for} and
    {!Projection.project_into}) and feeds the retained points here —
    because normalization and projection are per-interval pure, the
    result is bit-identical to materializing the BBVs and calling
    {!pick}.  @raise Invalid_argument as {!pick}. *)

val projection_for : ?config:config -> in_dim:int -> unit -> Projection.t
(** The exact projection {!pick} would build for [in_dim]-long BBVs
    (seeded from [config.seed], output dimension [min config.dims
    in_dim]) — what a streaming collector must apply to match it. *)

val estimate : t -> metric_of_rep:(int -> float) -> float
(** The SimPoint extrapolation (step 6): the weighted average of a metric
    measured on each representative interval, e.g. CPI. *)
