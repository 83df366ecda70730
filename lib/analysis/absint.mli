(** Abstract interpretation of marker execution counts in the {!Sym}
    domain.

    Two walkers share the machinery: one over the lowered per-binary IR
    (the authoritative source for marker counts — it sees inlining,
    unrolling and loop splitting exactly as {!Lower} performed them) and
    one over the source AST (the basis for program-level lints, where no
    optimizer has rewritten anything yet).

    Both are context-insensitive per-procedure summaries scaled by the
    procedure's symbolic execution count.  That is sound and, for
    [Fixed]/[Scaled] control flow, exact: trip counts ignore the entry
    index, and the entry-index-dependent forms ([Jitter], [Select]) are
    already widened to intervals by {!Sym.of_trips} / {!Sym.in_select}.
    The call graph is acyclic ({!Validate.check}), so summaries compose
    bottom-up. *)

module SMap : Map.S with type key = string

type binary_summary = {
  bs_counts : Sym.t Cbsp_compiler.Marker.Map.t;
      (** Symbolic execution count of every marker key the binary can
          emit, including compiler-mangled ones. *)
  bs_insts : Sym.t;  (** Total dynamic instructions. *)
}

val analyze_binary : Cbsp_compiler.Binary.t -> binary_summary

type loop_site = { lp_line : int; lp_trips : Cbsp_source.Ast.trips; lp_entries : Sym.t }
type select_site = { st_line : int; st_arms : int; st_execs : Sym.t }

type program_summary = {
  ps_loops : loop_site list;      (** In increasing source-line order. *)
  ps_selects : select_site list;  (** In increasing source-line order. *)
  ps_accesses : Sym.t array;      (** Dynamic access count per array id. *)
  ps_insts : Sym.t;               (** Source-level [Work] instructions. *)
  ps_proc_execs : Sym.t SMap.t;
}

val analyze_program : Cbsp_source.Ast.program -> program_summary
