(** The lowered ("machine") form of a program under one configuration.

    A binary mirrors the source structure but annotated with machine
    costs: every straight-line region is an {!mblock} with a dense id (the
    basic-block-vector dimension), an instruction count and its memory
    behaviour; loops carry possibly-mangled debug lines, unroll factors and
    split arity; calls to inlined procedures have disappeared (their bodies
    are spliced in).  The executor walks this structure. *)

type mblock = {
  mb_id : int;       (** Dense per-binary block id (BBV dimension). *)
  mb_insts : int;    (** Instructions per execution. *)
  mb_accesses : Cbsp_source.Ast.access list;  (** Source data accesses. *)
  mb_spills : int;   (** Stack spill accesses per execution. *)
}

type mstmt =
  | MBlock of mblock
  | MLoop of mloop
  | MCall of { mc_overhead : mblock; mc_target : string }
      (** Call to a non-inlined procedure; the overhead block models
          prologue/epilogue cost and fires the callee's entry marker. *)
  | MSelect of { ms_line : int; ms_dispatch : mblock; ms_arms : mstmt list array }

and mloop = {
  ml_uid : int;       (** Dense per-binary loop id. *)
  ml_line : int;      (** Debug line; negative when compiler-mangled. *)
  ml_src_line : int;  (** Original source line (trip-count identity). *)
  ml_trips : Cbsp_source.Ast.trips;
  ml_split_arity : int;
      (** How many machine loops the original source loop became (1 when
          unsplit).  The executor divides the per-source-line entry
          counter by this so split fragments of entry [k] all evaluate the
          trip count the original would have at entry [k]. *)
  ml_unroll : int;    (** >= 1; back-edge executes once per [ml_unroll]
                          source iterations. *)
  ml_header : mblock;
  ml_backedge_insts : int;
  ml_body : mstmt list;
}

type loop_info = {
  li_uid : int;
  li_line : int;
  li_src_line : int;
  li_unroll : int;
  li_split_arity : int;
}

(** {2 Flattened form}

    The executor's hot representation, built once at lowering time:
    statement lists become contiguous arrays, per-access pattern matches
    are pre-decoded into an integer kind tag plus parameter, marker keys
    are pre-allocated, and the per-source-line dynamic counters (loop
    entries and select executions) are renumbered into dense slots so the
    interpreter indexes a plain [int array] instead of a hashtable.  The
    flat form is semantically identical to the [mstmt] tree — the test
    suite proves the two interpreters emit bit-identical event streams. *)

val pat_seq : int

val pat_rand : int

val pat_chase : int

val pat_hot : int

type faccess = {
  fa_array : int;
  fa_kind : int;   (** One of {!pat_seq}/{!pat_rand}/{!pat_chase}/{!pat_hot}. *)
  fa_param : int;  (** Seq stride, or Hot window pre-clamped to the array
                       length; 0 otherwise. *)
  fa_count : int;
  fa_write_tenths : int;  (** Write ratio quantized to tenths: access [i]
                              of an execution is a write iff
                              [i mod 10 < fa_write_tenths]. *)
}

type fblock = {
  fb_id : int;
  fb_insts : int;
  fb_accesses : faccess array;
  fb_spills : int;
}

type fstmt =
  | FBlock of fblock
  | FLoop of floop
  | FCall of { fc_overhead : fblock; fc_proc : int; fc_marker : Marker.key }
  | FSelect of fselect

and floop = {
  fo_slot : int;       (** Dense line-counter slot of [fo_src_line]. *)
  fo_src_line : int;
  fo_trips : Cbsp_source.Ast.trips;
  fo_split_arity : int;
  fo_unroll : int;
  fo_header : fblock;
  fo_backedge_insts : int;
  fo_body : fstmt array;
  fo_entry_marker : Marker.key;  (** Pre-allocated [Loop_entry] key. *)
  fo_back_marker : Marker.key;   (** Pre-allocated [Loop_back] key. *)
  fo_blocks_only : bool;
      (** [fo_body] holds only {!FBlock}s: an innermost loop, whose
          iterations emit no marker. *)
  fo_body_insts : int;     (** Per iteration: [fb_insts] summed over
                               the body's blocks. *)
  fo_body_blocks : int;    (** Per iteration: the body's blocks. *)
  fo_body_accesses : int;  (** Per iteration: the body's accesses,
                               [fa_count]s and [fb_spills] summed. *)
}

and fselect = {
  fs_slot : int;     (** Dense line-counter slot of [fs_line]. *)
  fs_line : int;
  fs_dispatch : fblock;
  fs_arms : fstmt array array;
}

type flat = {
  fp_bodies : fstmt array array;  (** Indexed by proc slot, in [symbols]
                                      order; [FCall.fc_proc] indexes this. *)
  fp_main : int;                  (** Proc slot of the main procedure. *)
  fp_n_slots : int;               (** Size of the dense line-counter table. *)
  fp_main_marker : Marker.key;    (** Pre-allocated main [Proc_entry]. *)
}

type t = {
  program : Cbsp_source.Ast.program;
  config : Config.t;
  main_body : mstmt list;
  proc_bodies : (string, mstmt list) Hashtbl.t;
      (** Lowered bodies of non-inlined procedures, for [MCall]. *)
  n_blocks : int;
  layout : Layout.t;
  symbols : string list;  (** Non-inlined procedure names (debug symbols). *)
  loops : loop_info array;
  inlined : string list;  (** Procedures erased by inlining. *)
  flat : flat;            (** Flattened bodies, for the fast interpreter. *)
}

val find_proc_body : t -> string -> mstmt list
(** @raise Not_found for inlined or unknown procedures. *)

val flatten :
  proc_bodies:(string, mstmt list) Hashtbl.t ->
  symbols:string list ->
  main:string ->
  layout:Layout.t ->
  flat
(** Flatten lowered bodies (called by {!Cbsp_compiler.Lower.compile}).
    @raise Not_found if an [MCall] targets a procedure outside [symbols]
    (cannot happen for validated programs). *)

val static_marker_keys : t -> Marker.key list
(** Every marker key this binary can emit (procedure entries of surviving
    symbols; loop entry and back keys per loop line), deduplicated. *)

val iter_blocks : (mblock -> unit) -> t -> unit
(** Visit every static block (headers, dispatches and overheads
    included). *)

val total_static_insts : t -> int
(** Sum of [mb_insts] over static blocks — a crude size metric used in
    reports. *)

val pp_summary : Format.formatter -> t -> unit
