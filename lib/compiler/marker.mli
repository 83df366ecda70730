(** Marker keys: the identities by which execution points are matched
    across binaries.

    A marker names a *code structure* whose dynamic executions are
    source-semantic events: entering a procedure, entering a loop, or
    taking a loop back-edge.  Procedures are identified by symbol name
    (debug symbols); loops by source line (debug line info).  A
    (marker, execution count) pair then denotes one exact point in the
    execution of *any* binary that contains the marker — the paper's
    central device (Section 3.2). *)

type key =
  | Proc_entry of string  (** Entry of a (non-inlined) procedure. *)
  | Loop_entry of int     (** A loop's entry edge, by debug line. *)
  | Loop_back of int      (** A loop's back-edge branch, by debug line. *)

type kind = Kproc | Kloop_entry | Kloop_back
(** Marker classes, for ablations that disable one class. *)

val kind_of : key -> kind

val compare : key -> key -> int
(** Constructor first ([Proc_entry] < [Loop_entry] < [Loop_back]), then
    name or line: the order [Stdlib.compare] gives, computed without a
    polymorphic call. *)

val equal : key -> key -> bool
(** [equal a b] exactly when [compare a b = 0]. *)

val hash : key -> int
(** Consistent with {!equal}. *)

val is_mangled : key -> bool
(** True when the key refers to a compiler-mangled line (negative), i.e.
    a structure the optimizer created that no other binary can name. *)

val pp : Format.formatter -> key -> unit

val to_string : key -> string

val of_string : string -> key option
(** Inverse of {!to_string}; [None] on malformed input.  Procedure names
    containing [':'] round-trip (only the first colon separates the
    kind). *)

module Map : Map.S with type key = key
module Set : Set.S with type elt = key

module Table : Hashtbl.S with type key = key
