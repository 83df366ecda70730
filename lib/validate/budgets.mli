(** Declarative accuracy budgets: a checked-in JSON file
    ([cbsp-validate-budgets/1]) stating, per mode and per method, the
    error levels a validation run must not exceed.  CI loads the file,
    runs the matrix, and turns any breach into a red build — accuracy
    regressions fail the same way correctness regressions do.

    File shape:
    {v
    { "schema": "cbsp-validate-budgets/1",
      "modes": {
        "full":  { "vli": { "mean_cpi_error": 0.05, ... }, ... },
        "smoke": { ... } } }
    v}
    Each method object may set any of [mean_cpi_error], [max_cpi_error],
    [mean_speedup_error], [max_speedup_error] (ceilings) and
    [min_coverage] (a floor on the sampler's CI coverage,
    {!Leaderboard.calibration}); absent keys are unconstrained, and any
    other key is an error. *)

type limit = {
  bl_method : string;
  bl_bounds : (string * float) list;  (** [(key, limit)], in file order. *)
}

type t = {
  b_mode : string;
  b_limits : limit list;  (** In file order. *)
}

type breach = {
  br_method : string;
  br_metric : string;  (** e.g. ["mean_cpi_error"], or ["missing_method"]
                           when the budget names a method the matrix
                           does not score. *)
  br_floor : bool;     (** The limit is a floor ([min_coverage]). *)
  br_limit : float;
  br_actual : float;
}

val of_json : mode:string -> Cbsp_json.Jsonx.t -> t
(** @raise Failure on a schema/shape problem, an unknown [mode], or an
    unknown per-method key (the message names the key and the method). *)

val load : path:string -> mode:string -> t
(** Read and parse a budget file.
    @raise Failure on schema problems, [Sys_error] on IO,
    [Cbsp_json.Jsonx.Parse_error] on malformed JSON. *)

val check : t -> Leaderboard.t -> breach list
(** Every limit violation, in file order.  A method whose aggregate is
    [nan] (no finite cells; for [min_coverage], no calibrated runs or
    no calibration at all) breaches every limit set for it — an
    unmeasurable method never passes its budget.  Empty means the run is
    within budget. *)
