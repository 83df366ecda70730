(** Weighted k-means (SimPoint step 3).

    SimPoint 3.0's variable-length-interval support weights every vector
    by the instructions its interval executed, so long intervals pull
    centroids harder and cluster sizes are measured in instructions, not
    interval counts.  Fixed-length intervals are the uniform-weight
    special case.

    Seeding is weighted k-means++ (D² sampling); Lloyd iterations follow
    until assignments stabilize or [max_iters] is hit.  Clusters that
    empty out are reseeded on the point farthest from its centroid, so the
    result always has exactly the k requested — unless there are fewer
    distinct points than k, in which case duplicate centroids are
    harmless.

    {!run} works on a {!prepared} point set: the points grouped by bit
    pattern once per point set, so every k and restart measures each
    distinct value once.  A program's loops repeat the exact same
    interval vector, so a pass of thousands of intervals often holds a
    few dozen distinct points.  Bit-equal points are at bit-equal
    distances from any centroid, so seeding, assignment, reseeding and
    distortion all measure distances per group.  Over the groups, {!run}
    fuses seeding with the first assignment (seeding already measures
    every group against all but the last centroid), computes those
    distances four at a time, and prunes later assignment steps with
    Hamerly-style triangle-inequality bounds (per-group upper/lower
    distance bounds, invalidated by centroid drift).  Every distance sums
    in ascending dimension order, and every reduction over points (seeding
    masses, centroid accumulation, the reseed's argmax, distortion) runs
    in one canonical order over fixed 256-point chunks.  Two of them are memoized in the
    {!prepared} set, because they depend on the points only through
    group-level state: a chunk's partial of the centroid accumulation,
    keyed by which of the chunk's groups one cluster holds, and a
    seeding pick's masses, keyed by the groups chosen as centroids so
    far.  Each entry is computed in the canonical order, so the result
    is bit-identical to plain sequential Lloyd over full distance scans
    with the same seeding.  That plain implementation is the test
    suite's [Cbsp_oracle.Kmeans_ref], which shares none of this module's
    helpers; the suite checks the two agree on random weighted point
    sets.

    Restarts keep their assignments per group, and only the winner's
    are expanded to one per point.  A k sweep can go further with
    {!run_grouped}: it scores every k from the grouped results
    ({!grouped_weights}, {!grouped_distortion}) and {!expand}s only the
    k it chooses, as [Simpoint.pick_projected] does. *)

type result = {
  k : int;
  assignments : int array;        (** Point index -> cluster in [0,k). *)
  centroids : float array array;  (** [k] centroids. *)
  distortion : float;             (** Weighted sum of squared distances
                                      to assigned centroids. *)
  iterations : int;               (** Lloyd iterations of the best run. *)
}

type prepared
(** Points and weights validated and grouped by value, ready for {!run}
    at any k.  Prepare once per point set and share it across every k
    and restart: it carries the memo of sums that {!run} fills and
    reuses, so later calls cost less; it grows with the distinct sets
    the calls meet and goes with the value.  That memo is mutable and
    unsynchronized, so a [prepared] value must not be shared across
    domains. *)

val prepare : weights:float array -> points:float array array -> prepared
(** Validates and groups the points.  All weights must be finite and
    > 0, and all points as long as the first.  The arrays are kept, not
    copied: do not mutate them while the value is in use.
    @raise Invalid_argument on bad arguments. *)

module Bits : Hashtbl.HashedType with type t = float array
(** Points keyed as {!prepare} groups them: equal iff every coordinate
    has the same bit pattern (so [0.0] and [-0.0] differ, and a nan
    equals a nan of the same bits), never by float equality.  Both
    points must have the same length. *)

val distinct : prepared -> int
(** The number of distinct point values (bit patterns) — the m every
    distance pass of {!run} scans. *)

val run :
  ?seed:int -> ?restarts:int -> ?max_iters:int -> k:int -> prepared -> result
(** Best-of-[restarts] (default 5) by distortion, with fused seeding and
    Hamerly-pruned assignment over distinct points, reusing and filling
    [prep]'s memo of sums.
    @raise Invalid_argument if [k] is outside [\[1, n\]] for [n] points or
    [restarts < 1]. *)

type grouped
(** A {!run} result before its assignments are expanded to points: one
    per distinct point value.  A k sweep keeps one per k and expands only
    the k it chooses. *)

val run_grouped :
  ?seed:int -> ?restarts:int -> ?max_iters:int -> k:int -> prepared -> grouped
(** {!run} without the expansion: [run ~k prep] is
    [expand (run_grouped ~k prep)], with the same defaults.  The value
    keeps [prep].
    @raise Invalid_argument as {!run}. *)

val expand : grouped -> result
(** The per-point result, as {!run} returns it. *)

val grouped_distortion : grouped -> float
(** [(expand g).distortion]. *)

val grouped_weights : grouped -> float array
(** [cluster_weights (expand g) ~weights], bit for bit ([weights] those
    [g] was prepared with): the same sums in point order, without the
    expansion. *)

val distances_to : points:float array array -> float array -> float array -> unit
(** [distances_to ~points c out] sets [out.(i)] to
    [Stats.sq_distance points.(i) c] for every point, bit for bit: the
    seeding kernel of {!run}, four points per sweep of [c].  [out] must
    be at least as long as [points].
    @raise Invalid_argument if a point is not as long as [c]. *)

val cluster_weights : result -> weights:float array -> float array
(** Total weight per cluster; sums to the total input weight. *)

val closest_to_centroid : result -> points:float array array -> int array
(** Per cluster, the index of the member point nearest its centroid —
    SimPoint's representative choice.  Entry is [-1] for an empty cluster
    (possible only when there were duplicate centroids). *)
