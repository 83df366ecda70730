module Ast = Cbsp_source.Ast

type t = {
  bases : int array;
  elem_bytes : int array;
  lengths : int array;
  stack_base : int;
  footprint : int;
}

let page = 4096

let align_up value alignment = (value + alignment - 1) / alignment * alignment

let build (program : Ast.program) isa =
  let pointer_bytes = Isa.pointer_bytes isa in
  let n = Array.length program.arrays in
  let bases = Array.make n 0 in
  let elem_bytes = Array.make n 0 in
  let lengths = Array.make n 0 in
  let cursor = ref page in
  Array.iteri
    (fun i decl ->
      let eb = Ast.elem_bytes decl ~pointer_bytes in
      elem_bytes.(i) <- eb;
      lengths.(i) <- decl.Ast.arr_length;
      bases.(i) <- !cursor;
      (* A guard page between arrays avoids accidental line sharing, which
         would make footprints layout-dependent rather than ISA-dependent. *)
      cursor := align_up (!cursor + (decl.Ast.arr_length * eb)) page + page)
    program.arrays;
  let footprint = !cursor - page in
  { bases; elem_bytes; lengths; stack_base = !cursor + (16 * page); footprint }

let elem_addr t ~array_id ~index =
  let len = t.lengths.(array_id) in
  let index = index mod len in
  let index = if index < 0 then index + len else index in
  t.bases.(array_id) + (index * t.elem_bytes.(array_id))

let array_length t ~array_id = t.lengths.(array_id)

let array_base t ~array_id = t.bases.(array_id)

let array_elem_bytes t ~array_id = t.elem_bytes.(array_id)

let stack_slot_bytes = 8

let stack_addr t ~depth ~slot =
  let offset = slot * stack_slot_bytes mod Costmodel.frame_bytes in
  t.stack_base + (depth * Costmodel.frame_bytes) + offset

let footprint_bytes t = t.footprint

let n_arrays t = Array.length t.bases
