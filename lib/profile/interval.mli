(** Interval construction: slicing one execution into contiguous,
    non-overlapping intervals and collecting a basic block vector and
    performance counters for each.

    Three builders:

    - {!fli_stream}: fixed-length intervals — cut before the first block
      once the target instruction count is reached (SimPoint's classic
      FLI, Section 2.1);
    - {!vli_recorder_stream}: variable-length intervals on the *primary*
      binary — cut at the first mappable marker after the target, and
      record the boundary as a (marker, global execution count) pair
      (Section 3.2.3);
    - {!vli_follower_stream}: replay recorded boundaries in *another*
      binary — cut exactly when each boundary's marker reaches its
      recorded count (Section 3.2.5).

    Cut placement convention: a cut always falls between events, before
    the block (or at the marker) that triggers it, so a block's
    instructions, accesses and cycles land in the same interval.  The
    trailing partial interval is always kept, even when empty, so that a
    run with B boundaries has exactly B+1 intervals in *every* binary
    (consumers must tolerate a zero-instruction trailing interval).

    All builders accept an optional [cycles] thunk (typically reading a
    cache simulator running in the same pass) sampled at each cut, so each
    interval knows its simulated cycle count.

    Every builder streams: it emits each completed interval through an
    [emit] callback as soon as it is cut.  The emitted interval's [bbv]
    and [extras] arrays alias a single pre-allocated scratch buffer that
    is zeroed and reused for the next interval, so a whole run costs
    O(1 interval) of profile memory and a consumer that retains an
    interval must copy those arrays.

    Peak scratch usage is tracked in the [profile.scratch_intervals]
    gauge: the largest number of full-width (n_blocks-long) BBV buffers
    any single pass held at once.  Streaming passes report 1; a pass
    that copies out all n intervals reports n + 1 — which is how the
    validate-smoke CI budget catches accidental materialization.  The
    gauge is per plan: one execution that serves several plans runs one
    builder (and one consumer) per plan, holding one set of buffers
    each, and reports the largest single plan's peak, not their sum. *)

type interval = {
  insts : int;        (** Instructions in this interval. *)
  cycles : float;     (** Simulated cycles (0 when no [cycles] thunk). *)
  extras : float array;
      (** Additional per-interval counters sampled at each cut (deltas of
          the [extras] thunk), e.g. per-level cache misses; [[||]] when no
          thunk was given. *)
  bbv : float array;  (** Basic block vector, instruction-weighted;
                          [[||]] when BBV collection is off. *)
}

type boundary = {
  bd_key : Cbsp_compiler.Marker.key;
  bd_count : int;
      (** The cut lies immediately after the [bd_count]-th execution
          (1-based, counted from the start of the run) of [bd_key]. *)
}

val cpi : interval -> float
(** [cycles / insts].  @raise Invalid_argument on an empty interval. *)

type emit = interval -> unit
(** Streaming consumer.  The interval argument is only valid for the
    duration of the call: its [bbv] and [extras] alias scratch buffers
    overwritten at the next cut.  Copy anything you keep. *)

val note_scratch_peak : int -> unit
(** Raise the [profile.scratch_intervals] gauge to [n] if it is below —
    for consumers (e.g. the streaming cluster collector) that hold
    full-width BBV scratch of their own beyond what the builders here
    account for. *)

val fli_stream :
  n_blocks:int ->
  target:int ->
  ?cycles:(unit -> float) ->
  ?extras:(unit -> float array) ->
  emit:emit ->
  unit ->
  Cbsp_exec.Executor.observer * (unit -> int)
(** Streaming fixed-length intervals.  The finisher emits the trailing
    interval (idempotently) and returns the total interval count.
    @raise Invalid_argument if [target <= 0]. *)

val vli_recorder_stream :
  n_blocks:int ->
  target:int ->
  mappable:(Cbsp_compiler.Marker.key -> bool) ->
  ?cycles:(unit -> float) ->
  ?extras:(unit -> float array) ->
  emit:emit ->
  unit ->
  Cbsp_exec.Executor.observer * (unit -> int * boundary array)
(** Streaming VLI recorder.  The finisher returns (interval count,
    boundaries); the count is always [Array.length boundaries + 1]. *)

val vli_follower_stream :
  ?n_blocks:int ->
  boundaries:boundary array ->
  ?cycles:(unit -> float) ->
  ?extras:(unit -> float array) ->
  emit:emit ->
  unit ->
  Cbsp_exec.Executor.observer * (unit -> int)
(** Streaming boundary replay.  The finisher raises [Invalid_argument]
    (with the reached/expected boundary counts) if the run ended before
    every boundary was met. *)
