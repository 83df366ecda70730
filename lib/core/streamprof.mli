(** Streaming profile collector: the consumer side of the streaming
    interval builders.

    A collector is an {!Interval.emit} that keeps, per interval, only the
    scalar stats every summary reads ([insts], [cycles], [extras]) and —
    for live BBV-carrying intervals — the normalized-then-projected
    clustering point ([out_dim] ≈ 15 floats).  Its full-width
    (n_blocks-long) buffers are the {!chunk_size} normalization rows
    over which projection is batched (keeping the projection matrix
    cache-hot instead of re-fetching it every interval cut), so a whole
    pass runs in O(1 interval) of profile memory where materializing
    held O(run length).

    Bit-identity: normalization and projection are per-interval pure and
    applied in emission order, so the collected weights and points are
    bit-identical to materializing all BBVs, normalizing each and
    projecting the matrix — the test suite's
    [Cbsp_oracle.Simpoint_ref], against which the pipeline tests check
    the equivalence pass by pass on the whole registry. *)

type stats = {
  st_insts : int array;
  st_cycles : float array;
  st_n_extras : int;  (** Extra counters per interval (all alike). *)
  st_extras : float array;
      (** Interval [i]'s extra counter [e] at [i * st_n_extras + e]. *)
}
(** The per-interval scalars summaries consume, in columns. *)

type t

val chunk_size : int
(** Normalized rows buffered between projection batches (8).  A
    streaming pass's scratch peak is [chunk_size + 1] full-width
    buffers: these rows plus the builder's accumulator. *)

val create : sp_config:Cbsp_simpoint.Simpoint.config -> n_blocks:int -> unit -> t
(** A collector that also gathers clustering inputs, projecting with
    {!Cbsp_simpoint.Simpoint.projection_for}'s matrix. *)

val create_stats_only : unit -> t
(** For passes without BBVs (VLI followers): stats only. *)

val emit : t -> Cbsp_profile.Interval.interval -> unit
(** Feed one emitted interval.  Pass [emit t] as the builder's [~emit].
    @raise Invalid_argument if its extra-counter count differs from the
    first interval's. *)

val stats : t -> stats

type cluster_inputs = {
  ci_live_idx : int array;     (** Live interval index per point. *)
  ci_weights : float array;    (** Instruction counts of live intervals. *)
  ci_points : float array array;
      (** Projected points, emission order.  Points with the same bits
          ({!Cbsp_simpoint.Kmeans.Bits}) are one shared array: read
          them, never mutate them. *)
}

val cluster_inputs : t -> cluster_inputs
(** Empty on a stats-only collector. *)
