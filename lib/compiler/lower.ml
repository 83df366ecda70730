module Ast = Cbsp_source.Ast

type state = {
  program : Ast.program;
  config : Config.t;
  inline_set : string list;
  mutable next_block : int;
  mutable next_loop : int;
  mutable next_mangle : int;
  mutable loops_rev : Binary.loop_info list;
}

let fresh_block st ~insts ~accesses ~spills =
  let id = st.next_block in
  st.next_block <- id + 1;
  { Binary.mb_id = id; mb_insts = max 1 insts; mb_accesses = accesses;
    mb_spills = spills }

let fresh_mangled_line st =
  st.next_mangle <- st.next_mangle - 1;
  st.next_mangle

let is_inlined st name = List.mem name st.inline_set

(* A loop is unrolled only when it is marked unrollable and its body is
   straight-line work — the innermost-loop restriction real unrollers
   apply. *)
let can_unroll (l : Ast.loop) =
  l.unrollable
  && List.for_all (function Ast.Work _ -> true | Ast.Call _ | Ast.Loop _ | Ast.Select _ -> false) l.body

let should_split st (l : Ast.loop) =
  st.config.Config.opt = Config.O2
  && st.config.Config.loop_splitting && l.splittable
  && List.length l.body > 1

let register_loop st ~line ~src_line ~unroll ~split_arity =
  let uid = st.next_loop in
  st.next_loop <- uid + 1;
  st.loops_rev <-
    { Binary.li_uid = uid; li_line = line; li_src_line = src_line;
      li_unroll = unroll; li_split_arity = split_arity }
    :: st.loops_rev;
  uid

let rec lower_stmts st ~mangled stmts =
  List.concat_map (lower_stmt st ~mangled) stmts

and lower_stmt st ~mangled (stmt : Ast.stmt) : Binary.mstmt list =
  match stmt with
  | Ast.Work w ->
    let insts = Costmodel.work_insts st.config w.insts in
    let spills = Costmodel.spill_accesses st.config w.insts in
    [ Binary.MBlock (fresh_block st ~insts ~accesses:w.accesses ~spills) ]
  | Ast.Call { callee; _ } ->
    if is_inlined st callee then begin
      let proc = Ast.find_proc st.program callee in
      lower_stmts st ~mangled proc.proc_body
    end
    else begin
      let overhead =
        fresh_block st
          ~insts:(Costmodel.call_overhead_insts st.config)
          ~accesses:[]
          ~spills:(Costmodel.call_stack_accesses st.config)
      in
      [ Binary.MCall { mc_overhead = overhead; mc_target = callee } ]
    end
  | Ast.Select s ->
    let dispatch =
      fresh_block st ~insts:(Costmodel.select_dispatch_insts st.config)
        ~accesses:[] ~spills:0
    in
    let arms = Array.map (lower_stmts st ~mangled) s.arms in
    [ Binary.MSelect { ms_line = s.sel_line; ms_dispatch = dispatch; ms_arms = arms } ]
  | Ast.Loop l ->
    if should_split st l then lower_split_loop st l
    else [ lower_plain_loop st ~mangled l ]

and lower_plain_loop st ~mangled (l : Ast.loop) =
  let unroll =
    if st.config.Config.opt = Config.O2 && can_unroll l then
      Costmodel.unroll_factor st.config
    else 1
  in
  let line = if mangled then fresh_mangled_line st else l.loop_line in
  let uid = register_loop st ~line ~src_line:l.loop_line ~unroll ~split_arity:1 in
  let header =
    fresh_block st ~insts:(Costmodel.loop_header_insts st.config) ~accesses:[]
      ~spills:0
  in
  let body = lower_stmts st ~mangled l.body in
  Binary.MLoop
    { ml_uid = uid; ml_line = line; ml_src_line = l.loop_line; ml_trips = l.trips;
      ml_split_arity = 1; ml_unroll = unroll; ml_header = header;
      ml_backedge_insts = Costmodel.backedge_insts st.config; ml_body = body }

(* Loop splitting distributes the loop over its top-level body statements:
   [for i { A; B }] becomes [for i { A }; for i { B }].  Every fragment
   (and everything lowered beneath it) carries mangled debug lines, because
   the optimizer's restructuring has detached the machine code from the
   source lines — no marker inside survives. *)
and lower_split_loop st (l : Ast.loop) =
  let arity = List.length l.body in
  List.map
    (fun body_stmt ->
      let line = fresh_mangled_line st in
      let uid =
        register_loop st ~line ~src_line:l.loop_line ~unroll:1 ~split_arity:arity
      in
      let header =
        fresh_block st ~insts:(Costmodel.loop_header_insts st.config)
          ~accesses:[] ~spills:0
      in
      let body = lower_stmt st ~mangled:true body_stmt in
      Binary.MLoop
        { ml_uid = uid; ml_line = line; ml_src_line = l.loop_line;
          ml_trips = l.trips; ml_split_arity = arity; ml_unroll = 1;
          ml_header = header;
          ml_backedge_insts = Costmodel.backedge_insts st.config;
          ml_body = body })
    l.body

let compile (program : Ast.program) (config : Config.t) =
  let inline_set =
    match config.Config.opt with
    | Config.O0 -> []
    | Config.O2 ->
      List.filter_map
        (fun p ->
          if p.Ast.inline_hint && p.Ast.proc_name <> program.Ast.main then
            Some p.Ast.proc_name
          else None)
        program.Ast.procs
  in
  let st =
    { program; config; inline_set; next_block = 0; next_loop = 0;
      next_mangle = 0; loops_rev = [] }
  in
  let survivors =
    List.filter (fun p -> not (is_inlined st p.Ast.proc_name)) program.Ast.procs
  in
  let proc_bodies = Hashtbl.create 16 in
  (* Declaration order fixes block numbering, keeping compiles
     deterministic. *)
  List.iter
    (fun p ->
      Hashtbl.replace proc_bodies p.Ast.proc_name
        (lower_stmts st ~mangled:false p.Ast.proc_body))
    survivors;
  let main_body = Hashtbl.find proc_bodies program.Ast.main in
  let layout = Layout.build program config.Config.isa in
  let symbols = List.map (fun p -> p.Ast.proc_name) survivors in
  { Binary.program; config; main_body; proc_bodies; n_blocks = st.next_block;
    layout; symbols; loops = Array.of_list (List.rev st.loops_rev);
    inlined = st.inline_set;
    flat = Binary.flatten ~proc_bodies ~symbols ~main:program.Ast.main ~layout }
