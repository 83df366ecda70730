(** Streaming profile collector: the consumer side of the streaming
    interval builders.

    A collector is an {!Interval.emit} that keeps, per interval, only the
    scalar stats every summary reads ([insts], [cycles], [extras]), the
    access mix when it was given a mix function, and — for live
    BBV-carrying intervals — the normalized-then-projected clustering
    point ([out_dim] ≈ 15 floats).  What a BBV determines (its point and
    its mix) is memoized in {!chunk_size} direct-mapped slots keyed on
    the raw counts, so a pass pays normalization, projection and the mix
    once per distinct BBV it meets, not once per interval: a program's
    loops repeat the same interval vector.  The slots' BBV rows are the
    collector's entire full-width footprint, so a whole pass runs in
    O(1 interval) of profile memory where materializing held O(run
    length).

    Bit-identity: a slot hits only when every raw count is equal, and a
    miss normalizes, projects and mixes the BBV exactly as once per
    interval would, so the collected points and mixes are bit-identical
    to materializing all BBVs, normalizing each and projecting the
    matrix — the test suite's [Cbsp_oracle.Simpoint_ref], against which
    the pipeline tests check the equivalence pass by pass on the whole
    registry. *)

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
(** Memo slots, each one full-width BBV row (8).  A streaming pass's
    scratch peak is [chunk_size + 1] full-width buffers: these rows plus
    the builder's accumulator.  Exported for perfbench's per-layer
    replay ([perfbench/layers.ml]), which sizes its projection batches
    by it. *)

val create :
  ?mix:(float array -> float) ->
  sp_config:Cbsp_simpoint.Simpoint.config -> n_blocks:int -> unit -> t
(** A collector that also gathers clustering inputs, projecting with
    {!Cbsp_simpoint.Simpoint.projection_for}'s matrix.  With [mix] (a
    function of a raw BBV, e.g. {!Cbsp_sampling.Strata.access_mix_of}),
    it also keeps one mix per interval, computed once per distinct BBV;
    an empty interval's mix is 0.0 without a call. *)

val create_stats_only : unit -> t
(** For passes without BBVs (VLI followers): stats only. *)

val emit : t -> Cbsp_profile.Interval.interval -> unit
(** Feed one emitted interval.  Pass [emit t] as the builder's [~emit].
    @raise Invalid_argument if its extra-counter count differs from the
    first interval's. *)

val stats : t -> stats

val mix : t -> float array
(** The mix of every interval, in emission order; empty without
    [create]'s [mix]. *)

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
