(** Abstract interpretation of marker execution counts in the {!Sym}
    domain.

    One walker over the lowered per-binary IR: it sees inlining,
    unrolling and loop splitting exactly as {!Lower} performed them, so
    its counts are the ones each binary's markers really fire.

    It builds a context-insensitive summary per procedure and scales it
    by the procedure's symbolic execution count.  That is sound and, for
    [Fixed]/[Scaled] control flow, exact: trip counts ignore the entry
    index, and the entry-index-dependent forms ([Jitter], [Select]) are
    already widened to intervals by {!Sym.of_trips} / {!Sym.in_select}.
    The call graph is acyclic ({!Validate.check}), so summaries compose
    bottom-up. *)

val analyze_binary : Cbsp_compiler.Binary.t -> Sym.t Cbsp_compiler.Marker.Map.t
(** Symbolic execution count of every marker key the binary can emit,
    including compiler-mangled ones. *)
