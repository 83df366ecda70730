(** Phase-1 stratification for two-phase sampling: ways of cutting the
    interval population into strata before any detailed simulation, plus
    the Neyman-style allocation of the phase-2 budget.

    Two stratifications are provided out of the box, both computable from
    the cheap BBV pass alone:

    - {b k-means phases} — reuse SimPoint's clustering labels as strata
      (the pipeline passes its [cl_phase_of] array straight through);
    - {b instruction-mix quantiles} — bin intervals by their
      memory-access mix ({!access_mix_of}), a static-rate-weighted BBV
      reduction that needs no cache model. *)

val quantile_bins : bins:int -> float array -> int array
(** [quantile_bins ~bins feature] labels each element with its quantile
    bin in [0, bins): element [x] gets the number of interior quantile
    thresholds strictly below [x].  Heavily tied features collapse bins
    (fewer distinct labels), which stratified sampling handles by
    dropping empty strata.  @raise Invalid_argument if [bins < 1]. *)

val access_mix_of : Cbsp_compiler.Binary.t -> float array -> float
(** [access_mix_of binary bbv] is one interval's memory-access mix:
    accesses (spills included) per instruction, reconstructed from the
    interval's BBV and the binary's static per-block access rates.  A
    phase-1 proxy for memory-boundness — intervals with high mix tend to
    have high and variable CPI — that costs one array product per
    interval, no simulation.  An all-zero BBV gets mix 0.  The rate
    table is built once, at partial application, so a streaming pass
    applies [access_mix_of binary] to each BBV as it is emitted.
    @raise Invalid_argument if a BBV's dimension is not [n_blocks]. *)

val allocate :
  scores:float array -> sizes:int array -> total:int -> int array
(** Split a phase-2 budget of [total] samples over strata of the given
    [sizes] (population counts): every non-empty stratum gets one sample,
    then one more while budget lasts (so its variance is estimable), then
    the rest go greedily by highest average [scores.(h) / (alloc_h + 1)]
    — the D'Hondt rule, which approximates proportional-to-score (Neyman,
    when scores are [W_h * S_h]) allocation under the integer and
    per-stratum-size constraints.  Pass the sizes themselves as scores
    for plain proportional allocation.  Allocations never exceed sizes; a
    [total] above the population is clamped.
    @raise Invalid_argument if [total] is below the number of non-empty
    strata, a size is negative, or [scores] has the wrong length. *)
