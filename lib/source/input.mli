(** A program input: what the paper calls the "reference input" of a
    SPEC program.  Trip counts, select-arm choices and random address
    streams are all pure functions of the input, so every binary compiled
    from the same source executes the same source-level behaviour on it. *)

type t = {
  name : string;  (** e.g. ["ref"], ["test"]. *)
  scale : int;    (** Multiplies [Scaled] trip counts; sizes the run. *)
  seed : int;     (** Master seed for jitter, selects and address streams. *)
}

val ref_input : t
(** The default "reference" input used by the experiments. *)

val make : ?name:string -> ?seed:int -> scale:int -> unit -> t

val eval_trips : Ast.trips -> t -> line:int -> entry_index:int -> int
(** Trip count of a loop at its [entry_index]-th dynamic entry.  Always
    >= 0.  Deterministic in all arguments. *)

val select_arm : t -> line:int -> exec_index:int -> arms:int -> int
(** Which arm a [Select] takes at its [exec_index]-th execution. *)
