(** Data-memory layout of a binary: base address and element size of every
    program array, plus the synthetic stack region for spill traffic.

    The layout is ISA-dependent — pointer arrays occupy twice the bytes on
    a 64-bit ISA — which is how the 32/64-bit binaries of the same program
    come to have genuinely different cache footprints. *)

type t

val build : Cbsp_source.Ast.program -> Isa.t -> t

val elem_addr : t -> array_id:int -> index:int -> int
(** Byte address of element [index] of array [array_id].  The index is
    reduced modulo the array length, so callers may pass unreduced
    cursors. *)

val array_length : t -> array_id:int -> int
(** Elements in the array (for cursor arithmetic). *)

val array_base : t -> array_id:int -> int
(** Byte address of element 0 — with {!array_elem_bytes}, lets hot loops
    compute [elem_addr] inline for already-reduced indices. *)

val array_elem_bytes : t -> array_id:int -> int
(** Bytes per element of the array. *)

val stack_addr : t -> depth:int -> slot:int -> int
(** Address of spill slot [slot] in the frame at call [depth].  Slots wrap
    within {!Costmodel.frame_bytes}, and every frame starts at a multiple
    of it (the stack base is page-aligned), which the executor's spill
    runs rely on. *)

val stack_slot_bytes : int
(** Bytes per spill slot: slot [s] sits [s * stack_slot_bytes] bytes (mod
    {!Costmodel.frame_bytes}) above slot 0. *)

val footprint_bytes : t -> int
(** Total bytes of declared arrays (excludes stack). *)

val n_arrays : t -> int
