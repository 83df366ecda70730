(** The paper's comparison metrics.

    Speedup error (Section 5.2):
    [|TrueSpeedup - EstimatedSpeedup| / TrueSpeedup], where TrueSpeedup of
    a binary pair is the ratio of their total simulated cycles and
    EstimatedSpeedup is the same ratio built from SimPoint-estimated
    cycles ([est_cpi * total_insts]).  Every function here is total: a
    degenerate input yields [nan], never an exception. *)

val ratio : float -> float -> float
(** [ratio num den] is [num /. den], or [nan] when [den = 0] — the one
    speedup division, shared with the validation matrix's cells, so a
    dead binary becomes a skipped cell ({!Cbsp_util.Stats.relative_error}
    maps [nan] to [nan]) rather than an aborted run. *)

val true_speedup : Pipeline.binary_result -> Pipeline.binary_result -> float
(** [true_speedup a b] is [ratio cycles(a) cycles(b)] — how much faster
    [b] is than [a]. *)

val estimated_speedup :
  Pipeline.binary_result -> Pipeline.binary_result -> float
(** The same ratio over SimPoint-estimated cycles. *)

val speedup_error : Pipeline.binary_result -> Pipeline.binary_result -> float
(** [nan] if either binary has zero (true or estimated) cycles. *)

val pair_error :
  Pipeline.binary_result list -> a:string -> b:string -> float
(** Speedup error for the configuration pair with labels [a], [b]
    (e.g. ["32u"], ["32o"]).  @raise Not_found if a label is missing. *)

val phase_bias : Pipeline.phase_stat -> float
(** Signed per-phase CPI bias, [(sp_cpi - true_cpi) / true_cpi] — the
    "CPI Error" column of Tables 2 and 3.  0 when the phase is empty. *)

val top_phases : Pipeline.binary_result -> n:int -> Pipeline.phase_stat list
(** The [n] heaviest phases, by weight, heaviest first. *)
