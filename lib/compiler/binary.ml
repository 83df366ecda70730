type mblock = {
  mb_id : int;
  mb_insts : int;
  mb_accesses : Cbsp_source.Ast.access list;
  mb_spills : int;
}

type mstmt =
  | MBlock of mblock
  | MLoop of mloop
  | MCall of { mc_overhead : mblock; mc_target : string }
  | MSelect of { ms_line : int; ms_dispatch : mblock; ms_arms : mstmt list array }

and mloop = {
  ml_uid : int;
  ml_line : int;
  ml_src_line : int;
  ml_trips : Cbsp_source.Ast.trips;
  ml_split_arity : int;
  ml_unroll : int;
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

(* --- flattened form ---------------------------------------------------- *)

let pat_seq = 0

let pat_rand = 1

let pat_chase = 2

let pat_hot = 3

type faccess = {
  fa_array : int;
  fa_kind : int;
  fa_param : int;
  fa_count : int;
  fa_write_tenths : int;
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
  fo_slot : int;
  fo_src_line : int;
  fo_trips : Cbsp_source.Ast.trips;
  fo_split_arity : int;
  fo_unroll : int;
  fo_header : fblock;
  fo_backedge_insts : int;
  fo_body : fstmt array;
  fo_entry_marker : Marker.key;
  fo_back_marker : Marker.key;
  fo_blocks_only : bool;
  fo_body_insts : int;
  fo_body_blocks : int;
  fo_body_accesses : int;
}

and fselect = {
  fs_slot : int;
  fs_line : int;
  fs_dispatch : fblock;
  fs_arms : fstmt array array;
}

type flat = {
  fp_bodies : fstmt array array;
  fp_main : int;
  fp_n_slots : int;
  fp_main_marker : Marker.key;
}

type t = {
  program : Cbsp_source.Ast.program;
  config : Config.t;
  main_body : mstmt list;
  proc_bodies : (string, mstmt list) Hashtbl.t;
  n_blocks : int;
  layout : Layout.t;
  symbols : string list;
  loops : loop_info array;
  inlined : string list;
  flat : flat;
}

let find_proc_body t name = Hashtbl.find t.proc_bodies name

(* Flattening happens once, at the end of lowering: statement lists become
   contiguous arrays, access patterns are pre-decoded (kind tag + parameter,
   with the Hot window already clamped to the array length and the write
   ratio already quantized to tenths), marker keys are pre-allocated so the
   interpreter never allocates per event, and the per-source-line dynamic
   counters (loop entries, select executions) get dense slots so the
   executor can use a plain [int array] instead of a hashtable.  Slots are
   shared by line value, exactly like the hashtable they replace.  A loop
   also carries its body's per-iteration totals and whether the body is
   blocks only, so a run that observes no block or access can sum such a
   loop without walking it. *)
let flatten ~proc_bodies ~symbols ~main ~layout =
  let proc_slot = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace proc_slot name i) symbols;
  let line_slot = Hashtbl.create 32 in
  let n_slots = ref 0 in
  let slot_of line =
    match Hashtbl.find_opt line_slot line with
    | Some s -> s
    | None ->
      let s = !n_slots in
      incr n_slots;
      Hashtbl.add line_slot line s;
      s
  in
  let flat_access (a : Cbsp_source.Ast.access) =
    let kind, param =
      match a.Cbsp_source.Ast.acc_pattern with
      | Cbsp_source.Ast.Seq { stride } -> (pat_seq, stride)
      | Cbsp_source.Ast.Rand -> (pat_rand, 0)
      | Cbsp_source.Ast.Chase -> (pat_chase, 0)
      | Cbsp_source.Ast.Hot { window } ->
        (pat_hot, min window (Layout.array_length layout ~array_id:a.acc_array))
    in
    { fa_array = a.acc_array; fa_kind = kind; fa_param = param;
      fa_count = a.acc_count;
      fa_write_tenths = int_of_float ((a.acc_write_ratio *. 10.0) +. 0.5) }
  in
  let flat_block b =
    { fb_id = b.mb_id; fb_insts = b.mb_insts;
      fb_accesses = Array.of_list (List.map flat_access b.mb_accesses);
      fb_spills = b.mb_spills }
  in
  let rec flat_stmts stmts = Array.of_list (List.map flat_stmt stmts)
  and flat_stmt = function
    | MBlock b -> FBlock (flat_block b)
    | MCall { mc_overhead; mc_target } ->
      FCall
        { fc_overhead = flat_block mc_overhead;
          fc_proc = Hashtbl.find proc_slot mc_target;
          fc_marker = Marker.Proc_entry mc_target }
    | MSelect { ms_line; ms_dispatch; ms_arms } ->
      FSelect
        { fs_slot = slot_of ms_line; fs_line = ms_line;
          fs_dispatch = flat_block ms_dispatch;
          fs_arms = Array.map flat_stmts ms_arms }
    | MLoop l ->
      let body = flat_stmts l.ml_body in
      let sum f =
        Array.fold_left
          (fun acc -> function FBlock b -> acc + f b | _ -> acc)
          0 body
      in
      FLoop
        { fo_slot = slot_of l.ml_src_line; fo_src_line = l.ml_src_line;
          fo_trips = l.ml_trips; fo_split_arity = l.ml_split_arity;
          fo_unroll = l.ml_unroll; fo_header = flat_block l.ml_header;
          fo_backedge_insts = l.ml_backedge_insts;
          fo_body = body;
          fo_entry_marker = Marker.Loop_entry l.ml_line;
          fo_back_marker = Marker.Loop_back l.ml_line;
          fo_blocks_only =
            Array.for_all (function FBlock _ -> true | _ -> false) body;
          fo_body_insts = sum (fun b -> b.fb_insts);
          fo_body_blocks = sum (fun _ -> 1);
          fo_body_accesses =
            sum (fun b ->
                Array.fold_left
                  (fun acc a -> acc + a.fa_count)
                  b.fb_spills b.fb_accesses) }
  in
  let bodies =
    Array.of_list
      (List.map (fun name -> flat_stmts (Hashtbl.find proc_bodies name)) symbols)
  in
  { fp_bodies = bodies; fp_main = Hashtbl.find proc_slot main;
    fp_n_slots = !n_slots; fp_main_marker = Marker.Proc_entry main }

let rec iter_mstmt f = function
  | MBlock b -> f b
  | MLoop l ->
    f l.ml_header;
    List.iter (iter_mstmt f) l.ml_body
  | MCall { mc_overhead; _ } -> f mc_overhead
  | MSelect { ms_dispatch; ms_arms; _ } ->
    f ms_dispatch;
    Array.iter (List.iter (iter_mstmt f)) ms_arms

let iter_blocks f t =
  List.iter (iter_mstmt f) t.main_body;
  Hashtbl.iter (fun _ body -> List.iter (iter_mstmt f) body) t.proc_bodies

let static_marker_keys t =
  let keys = ref Marker.Set.empty in
  List.iter (fun name -> keys := Marker.Set.add (Marker.Proc_entry name) !keys) t.symbols;
  Array.iter
    (fun li ->
      keys := Marker.Set.add (Marker.Loop_entry li.li_line) !keys;
      keys := Marker.Set.add (Marker.Loop_back li.li_line) !keys)
    t.loops;
  Marker.Set.elements !keys

let total_static_insts t =
  let acc = ref 0 in
  iter_blocks (fun b -> acc := !acc + b.mb_insts) t;
  !acc

let pp_summary ppf t =
  Fmt.pf ppf "%s [%s]: %d blocks, %d loops, %d symbols, %d inlined, %d static insts"
    t.program.Cbsp_source.Ast.prog_name (Config.label t.config) t.n_blocks
    (Array.length t.loops) (List.length t.symbols) (List.length t.inlined)
    (total_static_insts t)
