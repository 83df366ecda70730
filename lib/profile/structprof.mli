(** Call-and-branch structure profile (paper Section 3.2.1).

    Counts, for one (binary, input) run, how many times every marker site
    executes: procedure entries, loop entries, and loop back-edges (the
    "loop body count").  These totals are the evidence the cross-binary
    matcher uses: a key is mappable only if it exists with the *same*
    count in every binary. *)

type t = int Cbsp_compiler.Marker.Map.t
(** Total executions per marker key (mangled keys included — the matcher
    filters them). *)

type counts
(** Per-key execution counters, for observers that count marker events.
    The last key bumped is remembered: bumping a key physically equal to
    it ([==], as the executor's pre-allocated keys are on every repeat)
    skips the table.  Any other key, equal or not, goes through the
    table, so counts are per {!Cbsp_compiler.Marker.equal} key. *)

val counts : unit -> counts

val bump : counts -> Cbsp_compiler.Marker.key -> int
(** Count one more execution of the key; its count so far, this one
    included. *)

val observer : unit -> Cbsp_exec.Executor.observer * (unit -> t)
(** A fresh profiling observer and the function that reads the profile
    accumulated so far. *)

val profile :
  Cbsp_compiler.Binary.t -> Cbsp_source.Input.t -> t
(** Convenience: run the binary to completion and return its profile. *)

val count : t -> Cbsp_compiler.Marker.key -> int
(** 0 for keys never executed. *)

val keys : t -> Cbsp_compiler.Marker.key list

val pp : Format.formatter -> t -> unit
