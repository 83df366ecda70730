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

val pick_projected :
  ?config:config -> weights:float array -> points:float array array -> unit -> t
(** Steps 3-5 over already-projected points: BIC-searched clustering, then
    one representative per phase.  [weights.(i)] is interval [i]'s
    instruction count (uniform for FLI); [points.(i)] its normalized,
    projected BBV.  The streaming profile path
    ([Cbsp.Streamprof]) normalizes each interval's BBV with
    {!Cbsp_util.Stats.normalize_into}, projects it with
    {!projection_for} and {!Projection.project_into} as it is emitted,
    and feeds the retained points here.  Both steps are per-interval
    pure, so the result is bit-identical to materializing every BBV
    first; the test suite's [Cbsp_oracle.Simpoint_ref.pick] is that
    materialized pipeline, and the suite checks the two agree.  The k
    sweep keeps each k's clustering per distinct point
    ({!Kmeans.run_grouped}) and expands only the chosen k's to one
    phase per interval.
    @raise Invalid_argument if there are no points, the lengths differ,
    or a weight is not finite and > 0. *)

val projection_for : ?config:config -> in_dim:int -> unit -> Projection.t
(** The projection for [in_dim]-long BBVs: seeded from [config.seed],
    output dimension [min config.dims in_dim]. *)
