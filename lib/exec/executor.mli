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

    Determinism: for a fixed (binary, input) the event stream is
    bit-identical across runs; for two binaries of the same program on the
    same input, the subsequence of *unmangled, non-unrolled* marker events
    is identical — the semantic-equivalence invariant the cross-binary
    technique relies on (and which the test suite checks). *)

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

val null_observer : observer
(** Ignores everything (for pure instruction counting via totals). *)

val compose : observer list -> observer
(** Fans every event out to each observer, in list order.  A callback
    that is physically {!null_observer}'s is dropped rather than called,
    so the other observers receive that event directly. *)

val counting_observer : unit -> observer * (unit -> int)
(** An observer that only counts instructions, and its reader. *)

val run : Cbsp_compiler.Binary.t -> Cbsp_source.Input.t -> observer -> totals
(** Execute the whole program, interpreting the flattened form
    ({!Cbsp_compiler.Binary.flat}): contiguous statement arrays, access
    patterns pre-decoded so the per-element inner loops carry no match or
    closure dispatch, pre-allocated marker keys, and dense line-counter
    slots in place of the reference interpreter's hashtable.

    An observer whose [on_access] is physically {!null_observer}'s (a
    structure profile, or {!null_observer} itself) gets identical totals
    and identical block and marker events, but the address streams —
    observable only through [on_access] — are never generated. *)

val run_tree : Cbsp_compiler.Binary.t -> Cbsp_source.Input.t -> observer -> totals
(** The tree-walking reference interpreter (the executor as originally
    written).  [run] and [run_tree] emit bit-identical event streams and
    totals for every (binary, input, observer); the test suite checks
    this on random programs.  Kept for equivalence testing and as
    executable documentation of the semantics.
    @raise Not_found if an [MCall] targets a procedure missing from the
    binary (cannot happen for binaries built by
    {!Cbsp_compiler.Lower.compile} on validated programs). *)
