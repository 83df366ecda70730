(** Deterministic execution of a binary on an input, delivered as an event
    stream — the role Pin plays in the paper.

    Events are emitted in program order:

    - [on_block id insts]: a machine basic block (or the back-edge tail of
      a loop, attributed to the loop header's id) executed;
    - [on_access addr is_write]: one data-memory access (emitted after the
      block that performs it);
    - [on_marker key]: a marker site executed — procedure entry (before
      the callee body), loop entry (before the header block), loop
      back-edge (after the back-edge instructions).

    A fourth event exists only where a consumer asks for it ({!runs}):

    - [on_run addr n any_write]: [n] more accesses to the line of [addr],
      all of them directly after the access to [addr] that opened the
      run, with [any_write] true iff at least one of them writes.

    Determinism: for a fixed (binary, input) the event stream is
    bit-identical across runs; for two binaries of the same program on the
    same input, the subsequence of *unmangled, non-unrolled* marker events
    is identical — the semantic-equivalence invariant the cross-binary
    technique relies on (and which the test suite checks).

    Cost: per element, address generation neither allocates nor divides,
    except for the remainders that define the streams — the random
    draw's [mod] of a random or hot-window site and the pointer chase's
    hash [mod] the array's length.  Cursors wrap by compare and
    subtract, spill slots by a mask, and run lengths on a power-of-two
    step by a shift.

    The test suite's [Cbsp_oracle.Executor_ref] keeps the tree-walking
    interpreter this module was first written as; {!run} must emit its
    event stream and totals bit for bit, on the registry and on random
    programs, per element and on the run route. *)

type observer = {
  on_block : int -> int -> unit;
  on_access : int -> bool -> unit;
  on_marker : Cbsp_compiler.Marker.key -> unit;
}

and totals = {
  insts : int;      (** Total instructions executed. *)
  blocks : int;     (** Block events. *)
  accesses : int;   (** Memory accesses (data + spill). *)
  markers : int;    (** Marker events. *)
}

(* [Marker] below refers to [Cbsp_compiler.Marker]. *)

type runs = {
  line_bytes : int;  (** Run line size, a power of two. *)
  access : int -> bool -> unit;
      (** The [on_access] these runs stand in for. *)
  on_run : int -> int -> bool -> unit;
      (** [on_run addr n any_write], see the event list above. *)
}
(** An opt-in way for a consumer of accesses that treats repeats on one
    line in bulk (the CPU model: {!Cbsp_cache.Cpu.runs}) to receive them
    so.  {!run} uses it only while the observer's [on_access] is
    physically [access]: any other consumer of accesses, such as a
    recording observer composed beside the CPU, keeps the per-element
    stream. *)

val null_observer : observer
(** Ignores everything (for pure instruction counting via totals). *)

val compose : observer list -> observer
(** Fans every event out to each observer, in list order.  A callback
    that is physically {!null_observer}'s is dropped rather than called,
    so the other observers receive that event directly. *)

val run :
  ?runs:runs -> Cbsp_compiler.Binary.t -> Cbsp_source.Input.t -> observer ->
  totals
(** Execute the whole program, interpreting the flattened form
    ({!Cbsp_compiler.Binary.flat}): contiguous statement arrays, access
    patterns pre-decoded so the per-element inner loops carry no match or
    closure dispatch, pre-allocated marker keys, and dense line-counter
    slots in place of a hashtable.

    With [runs] whose [access] is physically the observer's [on_access],
    a sequential site whose step (stride times element size) is below
    [runs.line_bytes], and a block's spill slots, reach the observer as
    runs: each run's first access goes to [on_access] with its own write
    bit, and the rest of the run — the accesses after it that stay on
    its line, before the cursor wraps at the array's length and within
    the site's count — to one
    [runs.on_run].  Random, pointer-chase and hot-window sites stay per
    element.  Totals, block and marker events are unchanged, and no
    block or marker event falls inside a run.  Without [runs], or when
    [runs.access] is another closure, the stream is per element.
    @raise Invalid_argument if [runs] applies and its line size is not a
    positive power of two.

    An observer whose [on_access] is physically {!null_observer}'s (a
    structure profile, or {!null_observer} itself) gets identical totals
    and identical block and marker events, but the address streams —
    observable only through [on_access] — are never generated.  When
    its [on_block] is physically {!null_observer}'s too (a marker-only
    run: a structure profile, or a plain count), a loop whose body holds
    only blocks is not walked: its totals are summed in O(1) and its
    back-edge marker is emitted as often as the walk would, so the
    totals and the marker sequence are unchanged. *)

