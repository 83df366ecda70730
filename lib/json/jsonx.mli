(** Minimal JSON reader/writer for the validation harness (error-budget
    files and [cbsp-validate/1] leaderboards).

    The rest of the repo only prints JSON by hand; these consumers must
    also parse it, and the toolchain ships no JSON library.  This covers
    the full value grammar with escape handling; numbers are doubles
    (printed with enough digits to round-trip).  {!to_string} emits no
    newlines. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

val of_string : string -> t
(** @raise Parse_error on malformed input (including trailing bytes). *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on absent field or non-object. *)

val to_num : t -> float option
