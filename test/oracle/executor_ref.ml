(* Test-only reference for the executor: the tree-walking interpreter
   as originally written.  It walks [Binary.main_body] and the procedure
   bodies as lists, decodes every access pattern per element, and keeps
   the per-line dynamic counters in a hashtable.  [Executor.run] walks
   the flattened form instead; it must emit a bit-identical event
   stream and totals for every (binary, input, observer), and
   test_exec and test_genprog check that on the registry and on random
   programs.  It shares only the modelled inputs with [Executor.run]:
   [Layout] addressing, [Input] trip counts and select arms, and [Rng]
   streams. *)

module Ast = Cbsp_source.Ast
module Input = Cbsp_source.Input
module Binary = Cbsp_compiler.Binary
module Layout = Cbsp_compiler.Layout
module Marker = Cbsp_compiler.Marker
module Rng = Cbsp_util.Rng
module Executor = Cbsp_exec.Executor

type observer = Executor.observer = {
  on_block : int -> int -> unit;
  on_access : int -> bool -> unit;
  on_marker : Marker.key -> unit;
}

(* An observer that only counts instructions, and its reader. *)
let counting_observer () =
  let count = ref 0 in
  ( { Executor.null_observer with
      on_block = (fun _ insts -> count := !count + insts) },
    fun () -> !count )

(* Byte address of element [index] of array [array_id].  The index is
   reduced modulo the array length, so callers may pass unreduced
   cursors; [Executor.run] computes the address inline from
   [Layout.array_base] and [Layout.array_elem_bytes] for indices it has
   already reduced. *)
let elem_addr layout ~array_id ~index =
  let len = Layout.array_length layout ~array_id in
  let index = index mod len in
  let index = if index < 0 then index + len else index in
  Layout.array_base layout ~array_id
  + (index * Layout.array_elem_bytes layout ~array_id)

type state = {
  binary : Binary.t;
  input : Input.t;
  obs : observer;
  layout : Layout.t;
  cursors : int array;          (* per-array Seq/Hot cursor, in elements *)
  chase_pos : int array;        (* per-array pointer-chase step counter *)
  rand_streams : Rng.t array;   (* per-array deterministic address stream *)
  line_counters : (int, int ref) Hashtbl.t;
      (* per-source-line dynamic counters: loop entries (for trip
         evaluation) and select executions (for arm choice) *)
  mutable depth : int;          (* call depth, for spill-slot addressing *)
  mutable t_insts : int;
  mutable t_blocks : int;
  mutable t_accesses : int;
  mutable t_markers : int;
}

let line_counter st line =
  match Hashtbl.find_opt st.line_counters line with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add st.line_counters line r;
    r

let emit_block st id insts =
  st.t_insts <- st.t_insts + insts;
  st.t_blocks <- st.t_blocks + 1;
  st.obs.on_block id insts

let emit_access st addr is_write =
  st.t_accesses <- st.t_accesses + 1;
  st.obs.on_access addr is_write

let emit_marker st key =
  st.t_markers <- st.t_markers + 1;
  st.obs.on_marker key

(* Writes are spread deterministically over the accesses of one execution
   so the ratio holds without any RNG involvement (the stream of
   reads/writes must be binary-invariant). *)
let is_write_at ~write_ratio i =
  let tenths = int_of_float ((write_ratio *. 10.0) +. 0.5) in
  i mod 10 < tenths

let perform_access st (acc : Ast.access) =
  let array_id = acc.acc_array in
  let len = Layout.array_length st.layout ~array_id in
  for i = 0 to acc.acc_count - 1 do
    let index =
      match acc.acc_pattern with
      | Ast.Seq { stride } ->
        let c = st.cursors.(array_id) in
        st.cursors.(array_id) <- (c + stride) mod len;
        c
      | Ast.Rand -> Rng.int st.rand_streams.(array_id) ~bound:len
      | Ast.Chase ->
        (* A counter-driven hash walk, not a fixed-point iteration: the
           latter collapses into an O(sqrt(len)) orbit that fits in cache
           and would make "pointer chasing" artificially cheap. *)
        let c = st.chase_pos.(array_id) in
        st.chase_pos.(array_id) <- c + 1;
        Rng.hash2 c (array_id + 1) mod len
      | Ast.Hot { window } ->
        (* The Seq cursor of the same array can sit anywhere below [len],
           so the window draw must wrap — an unreduced index would read
           past the array but for [elem_addr]'s defensive modulo. *)
        let w = min window len in
        (st.cursors.(array_id) + Rng.int st.rand_streams.(array_id) ~bound:w)
        mod len
    in
    let addr = elem_addr st.layout ~array_id ~index in
    emit_access st addr (is_write_at ~write_ratio:acc.acc_write_ratio i)
  done

let perform_spills st n =
  for slot = 0 to n - 1 do
    let addr = Layout.stack_addr st.layout ~depth:st.depth ~slot in
    emit_access st addr (slot land 1 = 1)
  done

let exec_mblock st (b : Binary.mblock) =
  emit_block st b.mb_id b.mb_insts;
  List.iter (perform_access st) b.mb_accesses;
  if b.mb_spills > 0 then perform_spills st b.mb_spills

let rec exec_stmts st stmts = List.iter (exec_stmt st) stmts

and exec_stmt st (stmt : Binary.mstmt) =
  match stmt with
  | Binary.MBlock b -> exec_mblock st b
  | Binary.MCall { mc_overhead; mc_target } ->
    exec_mblock st mc_overhead;
    emit_marker st (Marker.Proc_entry mc_target);
    let body = Binary.find_proc_body st.binary mc_target in
    st.depth <- st.depth + 1;
    exec_stmts st body;
    st.depth <- st.depth - 1
  | Binary.MSelect { ms_line; ms_dispatch; ms_arms } ->
    exec_mblock st ms_dispatch;
    let counter = line_counter st ms_line in
    let exec_index = !counter in
    counter := exec_index + 1;
    let arm =
      Input.select_arm st.input ~line:ms_line ~exec_index
        ~arms:(Array.length ms_arms)
    in
    exec_stmts st ms_arms.(arm)
  | Binary.MLoop l -> exec_loop st l

and exec_loop st (l : Binary.mloop) =
  emit_marker st (Marker.Loop_entry l.ml_line);
  exec_mblock st l.ml_header;
  (* The trip count is keyed by the ORIGINAL source line and the original
     entry index: split fragments (arity n) each see one machine entry per
     original entry, so machine-entry-count / arity recovers it. *)
  let counter = line_counter st l.ml_src_line in
  let machine_entry = !counter in
  counter := machine_entry + 1;
  let entry_index = machine_entry / l.ml_split_arity in
  let trips =
    Input.eval_trips l.ml_trips st.input ~line:l.ml_src_line ~entry_index
  in
  for i = 0 to trips - 1 do
    exec_stmts st l.ml_body;
    (* The back-edge branch exists once per *machine* iteration: every
       [ml_unroll] source iterations, plus the final (possibly partial)
       one. *)
    if i mod l.ml_unroll = l.ml_unroll - 1 || i = trips - 1 then begin
      emit_block st l.ml_header.Binary.mb_id l.ml_backedge_insts;
      emit_marker st (Marker.Loop_back l.ml_line)
    end
  done

let run_tree binary input obs =
  let program = binary.Binary.program in
  let n_arrays = Array.length program.Ast.arrays in
  let st =
    { binary; input; obs; layout = binary.Binary.layout;
      cursors = Array.make n_arrays 0;
      chase_pos = Array.make n_arrays 0;
      rand_streams =
        Array.init n_arrays (fun i ->
            Rng.split (Rng.create ~seed:input.Input.seed) ~tag:(i + 1));
      line_counters = Hashtbl.create 64; depth = 0; t_insts = 0;
      t_blocks = 0; t_accesses = 0; t_markers = 0 }
  in
  emit_marker st (Marker.Proc_entry program.Ast.main);
  exec_stmts st binary.Binary.main_body;
  { Executor.insts = st.t_insts; blocks = st.t_blocks;
    accesses = st.t_accesses; markers = st.t_markers }
