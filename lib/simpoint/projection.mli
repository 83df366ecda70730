(** Random linear projection (SimPoint step 2).

    Basic block vectors have one dimension per static block — hundreds of
    dimensions — which makes k-means slow and distance concentration
    worse.  SimPoint projects to ~15 dimensions with a random matrix;
    by the Johnson-Lindenstrauss property, pairwise distances (all
    clustering ever looks at) are approximately preserved.

    The matrix is a flat row-major float64 [Bigarray] — one unboxed
    block, cache-friendly rows, no bounds checks on the hot path — but
    the draw order matches the historical array-of-rows fill, so a given
    seed produces the same matrix (and the same projected points) bit
    for bit as before the rewrite. *)

type t

val create : seed:int -> in_dim:int -> out_dim:int -> t
(** Entries drawn uniformly from [-1, 1], deterministically from [seed].
    @raise Invalid_argument unless [0 < out_dim] and [0 < in_dim]. *)

val in_dim : t -> int
val out_dim : t -> int

val apply : t -> float array -> float array
(** @raise Invalid_argument if the vector's length is not [in_dim]. *)

val project_into : t -> float array -> float array -> unit
(** [project_into t v out] projects [v] into the caller-provided buffer
    [out] (overwritten), avoiding the per-call allocation of {!apply} —
    the streaming collector's hot loop.
    @raise Invalid_argument if [v] is not [in_dim] long or [out] is not
    [out_dim] long. *)

val apply_all : t -> float array array -> float array array
(** Project every row into a freshly allocated output matrix.
    @raise Invalid_argument if a row is not [in_dim] long. *)
