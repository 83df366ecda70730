(** Human-readable rendering of a validation run: the ranked
    leaderboard table, the coverage identity (expected = evaluated +
    skipped + failed), the samplers' CI calibration table, and any
    failures, truth mismatches or budget breaches. *)

val render : Matrix.t -> Leaderboard.t -> Format.formatter -> unit

val render_breaches : Budgets.breach list -> Format.formatter -> unit
(** One line per breach; prints nothing for an empty list. *)
