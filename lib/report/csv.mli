(** Machine-readable export of the figure data: one CSV per
    {!Figures.figures} entry, so the plots can be regenerated in any
    external tool without re-running the matrix.

    Values are written in full precision; the first column is the
    workload name, subsequent columns are the figure's series under
    their CSV names. *)

val figure_rows :
  Cbsp_validate.Matrix.t -> what:string -> string list * string list list
(** [(header, rows)] for the figure named [what] (["fig1"] .. ["fig5"]
    or ["metrics"]).
    @raise Invalid_argument for unknown names. *)

val to_string : Cbsp_validate.Matrix.t -> what:string -> string

val save_all : Cbsp_validate.Matrix.t -> dir:string -> unit
(** Write [<name>.csv] for every figure into [dir] (created if
    missing). *)
