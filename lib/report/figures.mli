(** Renderers for every table and figure in the paper's evaluation
    (Section 5), driven by a completed {!Cbsp_validate.Matrix.t}: each
    workload's FLI result and its [Dynamic] VLI result, the matrix's
    two paper methods.

    Each figure prints the same rows/series the paper plots —
    per-benchmark bars plus the Avg bar — as an ASCII bar chart followed
    by the numeric table.  Absolute numbers differ from the paper (our
    substrate is a synthetic simulator); the shapes are the reproduction
    target (see EXPERIMENTS.md).

    Every renderer taking a matrix raises [Invalid_argument] when
    {!missing} is non-empty: a figure is never drawn with a hole. *)

val table1 : Format.formatter -> unit
(** The memory-system configuration (static; from
    {!Cbsp_cache.Hierarchy.paper_table1}). *)

val missing : Cbsp_validate.Matrix.t -> string list
(** Workloads lacking their FLI or [Dynamic] VLI result (the estimator
    raised; {!Cbsp_validate.Matrix.failures} says why), in matrix
    order. *)

val results :
  Cbsp_validate.Matrix.t ->
  (string * Cbsp.Pipeline.fli_result * Cbsp.Pipeline.vli_result) list
(** [(workload, fli, vli)] in matrix order — what every figure reads. *)

(** One series of a per-benchmark figure, defined once for the chart
    and the CSV export ({!Csv}). *)
type series = {
  csv : string;    (** CSV column name, e.g. ["fli_points"]. *)
  chart : string;  (** Bar-chart series name, e.g. ["FLI"]. *)
  value : Cbsp.Pipeline.fli_result -> Cbsp.Pipeline.vli_result -> float;
      (** The workload's value. *)
}

type figure = {
  name : string;
      (** ["fig1"] .. ["fig5"] or ["metrics"]: the [cbsp experiment]
          verb and the CSV file stem. *)
  title : target:int -> string;  (** Given the interval target. *)
  unit_label : string;
  fmt_value : float -> string;
  series : series list;
}

val figures : figure list
(** The per-benchmark figures, in order:
    - fig1: number of simulation points, FLI vs VLI, averaged over the
      four binaries;
    - fig2: average VLI interval size (FLI is fixed at the target);
      applu's mapping failure shows as a blown-up bar;
    - fig3: CPI error, FLI vs VLI, averaged over the four binaries;
    - fig4: speedup error for the same-platform pairs (32u->32o,
      64u->64o);
    - fig5: speedup error for the cross-platform pairs (32u->64u,
      32o->64o);
    - metrics: an extension beyond the paper — DRAM
      accesses-per-kilo-instruction estimation error (SimPoint step 6's
      "miss rate, etc."), averaged over the four binaries. *)

val chart : figure -> Cbsp_validate.Matrix.t -> Format.formatter -> unit
(** The figure's bar chart and table: one group per workload plus
    Avg. *)

val table2 : Cbsp_validate.Matrix.t -> Format.formatter -> unit
(** gcc phase comparison across 32-bit and 64-bit unoptimized binaries:
    largest three phases, weight / true CPI / SimPoint CPI / CPI error,
    for VLI and FLI.  @raise Not_found if the matrix lacks gcc. *)

val table3 : Cbsp_validate.Matrix.t -> Format.formatter -> unit
(** apsi phase comparison across 32-bit and 64-bit optimized binaries.
    @raise Not_found if the matrix lacks apsi. *)

val summary : Cbsp_validate.Matrix.t -> Format.formatter -> unit
(** One-screen digest: suite-average CPI and speedup errors for both
    methods — the paper's headline claim in four numbers. *)

val all : Cbsp_validate.Matrix.t -> Format.formatter -> unit
(** Everything, in paper order: Table 1, Figures 1-5, Tables 2-3 and
    the summary. *)
