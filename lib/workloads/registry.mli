(** The benchmark suite: the 21 SPEC CPU2000 programs the paper evaluates
    (Figures 1-5), as synthetic workloads, in the paper's plotting order.

    Each entry carries the flag the experiments need: whether this
    program's optimized build triggers the aggressive loop-splitting pass
    (true only for applu, per Section 5.1's discussion of its inlined and
    split solver loops). *)

type entry = {
  name : string;
  description : string;
  loop_splitting : bool;
      (** Pass to {!Cbsp_compiler.Config.paper_four} when compiling. *)
  build : unit -> Cbsp_source.Ast.program;
}

val all : entry list
(** All 21, in paper order: ammp applu apsi art bzip2 crafty eon equake
    fma3d gcc gzip lucas mcf mesa perlbmk sixtrack swim twolf vortex vpr
    wupwise. *)

val names : string list
(** Names of {!all} — the paper suite only. *)

val find : string -> entry
(** Looks up {!all} by name.
    @raise Not_found for unknown names. *)
