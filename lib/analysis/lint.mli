(** Structured diagnostics over workload programs, their binaries, and
    points files.

    Severities gate behaviour: [cbsp lint] exits non-zero only on
    [Error] findings.  Errors are reserved for things that break the
    toolchain's own invariants (a program {!Validate.check} rejects, a
    compiler-mangled marker leaking into a points file); suspicious but
    well-formed workload shapes (dead loops, unreachable select arms,
    unused arrays, counter overflow risk) are warnings; facts worth
    knowing (back-edge markers that can never survive across the
    standard binaries) are info. *)

type severity = Error | Warning | Info

type finding = {
  f_severity : severity;
  f_workload : string;
  f_rule : string;  (** Stable kebab-case rule id, e.g. ["zero-trip-loop"]. *)
  f_line : int option;  (** Source line, when the finding has one. *)
  f_message : string;
}

val check_program :
  workload:string -> scale:int -> Cbsp_source.Ast.program -> finding list
(** Source-level lints at the given input scale: validation failures
    (rule [validate], severity error — deeper lints are skipped since
    the analyses assume a validated program), zero-trip loops
    ([zero-trip-loop]), statically unreachable select arms
    ([select-arms]), arrays never accessed syntactically
    ([unused-array]) or only by code that never executes at this scale
    ([dead-array]). *)

val check_binaries :
  workload:string ->
  scale:int ->
  ?report:Prover.report ->
  Cbsp_compiler.Binary.t list ->
  finding list
(** Binary-level lints: instruction-counter overflow risk at large
    scales ([inst-overflow]) and loop lines whose back-edge marker is
    proved unmappable by unrolling or splitting in every possible
    matching — i.e. can never survive across the standard binaries
    ([backedge-survival]).  Pass [report] to reuse an existing
    {!Prover.prove} result; otherwise one is computed. *)

val check_points :
  workload:string -> markers:Cbsp_compiler.Marker.key list -> finding list
(** Points-file lints: compiler-mangled markers leaking into interval
    boundaries ([mangled-marker], severity error) — no other binary can
    name such a marker, so the file cannot delimit cross-binary
    intervals. *)

val errors : finding list -> int
val pp_finding : Format.formatter -> finding -> unit

type analysis_totals = {
  at_candidates : int;
  at_proved_mappable : int;
  at_proved_unmappable : int;
  at_needs_dynamic : int;
}

val totals_of_reports : Prover.report list -> analysis_totals

type semantic_stat = {
  ss_workload : string;
  ss_lost : int;        (** Loop keys proved unmappable by splitting. *)
  ss_identified : int;  (** Re-paired by {!Fingerprint.recover}. *)
  ss_cuttable : int;    (** Identified AND order-safe (usable as cuts). *)
  ss_demoted : int;     (** Exact matches dropped for order safety. *)
}
(** Per-workload recovered-mappability, for [cbsp lint --semantic]. *)

val semantic_stat : workload:string -> Prover.report -> semantic_stat
(** Runs {!Fingerprint.recover} over the report and summarizes it. *)

val pp_semantic_stat : Format.formatter -> semantic_stat -> unit

val to_json :
  scale:int ->
  workloads:string list ->
  totals:analysis_totals ->
  ?semantic:semantic_stat list ->
  finding list ->
  string
(** The [cbsp-lint/1] report: schema, scale, workloads, findings (with
    severity / rule / line / message), aggregate prover totals, and a
    per-severity summary.  [semantic], when given, adds a per-workload
    recovered-mappability array; it is an additive field, and reports
    without it are byte-identical to before. *)
