(** Semantic marker matching for heavily-optimized binaries (ROADMAP
    item 3; the paper's known [applu] failure).

    When the optimizer splits a loop, every marker under it survives
    only with a compiler-mangled line: the exact matcher loses the whole
    region and intervals balloon past the target.  This module re-pairs
    those lost markers by *structural fingerprint* instead of by name:
    for every loop the lowered IR still contains, it computes a
    fingerprint from the Poly/Sym count domain and the loop-nest shape —
    trip-count polynomial, symbolic entry count, nesting depth and
    sibling order, subtree size, and an access-mix signature — then
    matches a lost source loop to the mangled loop whose fingerprint is
    most similar, subject to a confidence threshold.  Debug source lines
    of mangled loops are deliberately *not* consulted: the matcher
    models binaries whose line info is gone.

    Every identification is verified before it is trusted: the symbolic
    marker counts of the paired keys must be statically decided at the
    probe scale and equal across *all* binaries, so a recovered
    (marker_a, marker_b) pair satisfies the same count-equality
    invariant as an exact match and can feed [Matching.of_counts].

    Order safety.  Loop fission reorders execution: all of fragment 0's
    events precede all of fragment 1's, while the original interleaves
    them per iteration.  A boundary list recorded against markers from
    two different fragments can therefore be unreachable in a split
    follower.  Recovered pairs are flagged [pr_cuttable] only when every
    matched site sits in the order-safe prefix position (fragment 0 of
    its fission run, not nested under a later fragment): those markers
    observe the same relative event order in every binary, so recorded
    boundaries stay monotone.  Exactly-mappable keys whose events a
    later fragment displaces (procedures called from fragment >= 1, and
    their loops) are reported in [rc_demoted] so the pipeline can drop
    them from the cut set for the same reason. *)

module Marker := Cbsp_compiler.Marker

type mix = {
  mx_reads : int;
  mx_writes : int;
  mx_seq : int;
  mx_rand : int;
  mx_chase : int;
  mx_hot : int;
  mx_stride : int;
}
(** Access-mix signature of a loop subtree: reads/writes and per-pattern
    access counts, plus the summed sequential stride. *)

type t = {
  fp_trips : Sym.t;    (** Symbolic trip count of the loop itself. *)
  fp_entries : Sym.t;  (** Symbolic entry count from the binary summary. *)
  fp_depth : int;      (** Enclosing-loop depth within its procedure. *)
  fp_sibling : int;    (** Order among the procedure's loops. *)
  fp_insts : int;      (** Static instructions in the subtree (inlining
                           followed through calls, so O0 and O2 shapes
                           are comparable). *)
  fp_loops : int;      (** Loops strictly inside the body. *)
  fp_mix : mix;
}
(** A loop's structural fingerprint. *)

val default_threshold : float
(** Confidence threshold a match must clear; [0.8].  A match's score is
    a similarity in [[0, 1]]: weighted over trip-count closeness (equal
    polynomials score 1), entry-count closeness, access-mix cosine
    (magnitude-free, so a fission fragment still resembles the whole),
    and shape (size ratio, nested-loop ratio, depth proximity), with
    polynomial comparisons falling back to midpoint closeness at the
    recovery's scale. *)

type pair = {
  pr_key : Marker.key;  (** The lost canonical (unmangled) key. *)
  pr_count : int;       (** Verified count, equal in every binary. *)
  pr_score : float;     (** Min similarity over the matched binaries. *)
  pr_cuttable : bool;   (** Order-safe in every binary (see above). *)
  pr_locals : Marker.key array;
      (** The key naming the same point in each binary, in the report's
          binary order (the canonical key itself where the line
          survived). *)
}

type recovery = {
  rc_scale : int;
  rc_threshold : float;
  rc_lost : Marker.Set.t;
      (** The attackable candidate set: loop keys the prover proved
          unmappable because some binary split their line. *)
  rc_pairs : pair list;  (** Verified identifications, by source line. *)
  rc_demoted : Marker.Set.t;
      (** Exactly-matchable keys that must leave the cut set when
          recovered markers are cut on (order safety, see above). *)
}

val recover : ?threshold:float -> Prover.report -> recovery
(** Run the semantic pass over a prover report.  Cheap when nothing was
    lost to splitting: the fingerprint walk only runs on a non-empty
    candidate set. *)

val n_lost : recovery -> int

val n_identified : recovery -> int

val n_cuttable : recovery -> int

val cut_counts : recovery -> int Marker.Map.t
(** Canonical key -> verified count for the [pr_cuttable] pairs only —
    the map to merge into [Matching.of_counts] for boundary cutting. *)

val translations :
  recovery -> (Marker.key Marker.Map.t * Marker.key Marker.Map.t) array
(** Per binary, [(canonical -> local, local -> canonical)] for cuttable
    pairs whose local key differs from the canonical one.  The pipeline
    rewrites recorded boundaries canonical->local before replaying them
    on a follower (and local->canonical after recording on the
    primary). *)
