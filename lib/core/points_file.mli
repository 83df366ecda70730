(** Text serialization of cross-binary simulation points — this
    repository's equivalent of the paper's PinPoints files (Section 4):
    the artifact one team produces once per (program, input) and every
    simulation run consumes.

    The format is line-oriented and versioned:

    {v
    # cbsp-points 1
    program gcc
    input ref 10 42
    target 100000
    boundary loop-back:17 4203
    boundary proc:compile_function 12
    ...
    label 0 0 1 1 2 ...          (phase of every interval, in order)
    point 0 14 0.3500            (phase, representative interval, weight)
    ...
    v}

    Weights are informational (each binary recomputes its own); the
    loader ignores them.  Lines starting with [#] are comments. *)

type header = {
  h_program : string;
  h_input_name : string;
  h_scale : int;
  h_seed : int;
}

exception Parse_error of string
(** Raised by {!load} / {!of_string} with a line-qualified message. *)

val to_string :
  program:string -> input:Cbsp_source.Input.t -> Pipeline.points -> string

val of_string : string -> header * Pipeline.points
(** @raise Parse_error on malformed input, including a boundary that
    names a compiler-mangled marker ({!Cbsp_compiler.Marker.is_mangled}):
    no other binary can name it, so it cannot be replayed. *)

val save :
  path:string ->
  program:string ->
  input:Cbsp_source.Input.t ->
  Pipeline.points ->
  unit
(** @raise Sys_error on I/O failure. *)

val load : path:string -> header * Pipeline.points
(** @raise Parse_error or [Sys_error]. *)
