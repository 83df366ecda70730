(** The static mappability prover.

    Compares the symbolic marker counts of every binary of a workload
    (from {!Absint.analyze_binary}) at one concrete input scale and
    classifies every candidate marker:

    - {!Proved_mappable}[ n] — every binary's count is statically decided
      at this scale and equal to [n >= 1].  Dynamic [Matching.find] is
      guaranteed to accept the marker with count [n].
    - {!Proved_unmappable} — some pair of binaries provably disagrees
      (decided-but-unequal counts, or disjoint count intervals).  Dynamic
      matching is guaranteed to reject the marker.
    - {!Needs_dynamic} — the intervals overlap but are not all decided
      ([Jitter] trips or [Select] arms feed the count); only profiling
      can settle it.  Note that [Jitter]/[Select] draws are functions of
      (seed, source line, index) and therefore binary-invariant, so
      overlapping intervals must never be ruled unmappable.

    A marker is a candidate when some binary can emit it at this scale
    (upper bound [>= 1]) and it is not compiler-mangled.  When every
    candidate is decided, the profiling stage can be skipped outright. *)

type reason =
  | Symbol_erased of string
      (** A procedure-entry marker whose procedure the named binary
          config inlined away. *)
  | Line_split of string
      (** A loop marker whose source line the named binary config
          mangled by loop splitting. *)
  | Unroll_divergence
      (** A back-edge marker whose counts diverge because some binary
          unrolled the loop. *)
  | Count_divergence  (** Any other statically proven disagreement. *)

type verdict =
  | Proved_mappable of int
  | Proved_unmappable of reason
  | Needs_dynamic

type report = {
  pr_scale : int;
  pr_verdicts : verdict Cbsp_compiler.Marker.Map.t;
      (** One verdict per candidate marker. *)
  pr_proved : int Cbsp_compiler.Marker.Map.t;
      (** The [Proved_mappable] subset with its agreed counts. *)
  pr_candidates : int;
  pr_summaries : (Cbsp_compiler.Binary.t * Sym.t Cbsp_compiler.Marker.Map.t) list;
      (** Per-binary symbolic marker counts ({!Absint.analyze_binary}),
          reused by {!Fingerprint.recover}. *)
}

val prove : binaries:Cbsp_compiler.Binary.t list -> scale:int -> report
(** Requires at least one binary.  Bumps the [analysis.*] metrics
    (candidates / proved_mappable / proved_unmappable / needs_dynamic).
    @raise Invalid_argument on an empty binary list. *)

val residue : report -> Cbsp_compiler.Marker.Set.t
(** The [Needs_dynamic] keys — what dynamic matching still has to
    settle. *)

val tally : report -> int * int * int
(** [(proved_mappable, proved_unmappable, needs_dynamic)] counts. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_verdict : Format.formatter -> verdict -> unit
