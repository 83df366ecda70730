(** The pipeline stages the job-graph engine knows about.  A job is one
    stage applied to one (workload, binary) pair; the scheduler runs
    independent jobs concurrently and the timing sink aggregates
    wall-clock per stage.

    The stages mirror the paper's workflow: compile the binary, profile
    its call/loop structure, intersect mappable markers, collect
    intervals in one full execution, cluster the primary's BBVs, and
    summarize each binary against the clustering. *)

type t =
  | Compile             (** Lowering a program under one configuration. *)
  | Analysis            (** Static mappability proving (symbolic counts). *)
  | Struct_profile      (** Call-and-branch structure profile (VLI step 1). *)
  | Matching            (** Mappable-point intersection (VLI step 2). *)
  | Fingerprint         (** Semantic marker recovery over lost markers. *)
  | Interval_collection (** Full execution with interval observers. *)
  | Clustering          (** SimPoint k-means / BIC on the BBVs. *)
  | Summarize           (** Per-binary weights, CPI estimate, metrics. *)
  | Sampling            (** Statistical sampling estimator (one method). *)
  | Validate            (** Validation-matrix error computation. *)

val name : t -> string
(** Stable lower-case name, e.g. ["interval-collection"]. *)

val all : t list
(** Every stage, in pipeline order. *)

val compare : t -> t -> int
(** Pipeline order (the order of {!all}). *)
