(** Plain-text rendering helpers for the leaderboard and the paper's
    figures: aligned column tables and horizontal bar charts (our
    stand-in for the paper's plots). *)

type align = Left | Right

type column = { header : string; align : align }

val render :
  columns:column list -> rows:string list list -> Format.formatter -> unit
(** Renders a boxed table.  Rows shorter than the column list are padded
    with empty cells; longer rows are truncated. *)

val bar_chart :
  title:string ->
  unit_label:string ->
  series:(string * float list) list ->
  labels:string list ->
  ?fmt_value:(float -> string) ->
  Format.formatter ->
  unit
(** Renders grouped horizontal bars, one group per label, one bar per
    series, scaled to the global maximum.  [series] gives (name, values);
    every series must have one value per label.
    @raise Invalid_argument on length mismatch. *)

val pct : float -> string
(** Format a fraction as a percentage with two significant decimals. *)
