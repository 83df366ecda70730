module Ast = Cbsp_source.Ast
module Input = Cbsp_source.Input
module Binary = Cbsp_compiler.Binary
module Layout = Cbsp_compiler.Layout
module Marker = Cbsp_compiler.Marker
module Rng = Cbsp_util.Rng

type observer = {
  on_block : int -> int -> unit;
  on_access : int -> bool -> unit;
  on_marker : Marker.key -> unit;
}

and totals = { insts : int; blocks : int; accesses : int; markers : int }

let null_observer =
  { on_block = (fun _ _ -> ());
    on_access = (fun _ _ -> ());
    on_marker = (fun _ -> ()) }

let compose observers =
  match observers with
  | [] -> null_observer
  | [ obs ] -> obs
  | observers ->
    { on_block = (fun id insts -> List.iter (fun o -> o.on_block id insts) observers);
      on_access = (fun addr w -> List.iter (fun o -> o.on_access addr w) observers);
      on_marker = (fun key -> List.iter (fun o -> o.on_marker key) observers) }

let counting_observer () =
  let count = ref 0 in
  ( { null_observer with on_block = (fun _ insts -> count := !count + insts) },
    fun () -> !count )

(* ------------------------------------------------------------------ *)
(* Tree-walking reference interpreter.

   The original executor, kept as the semantic reference: the flat
   interpreter below must emit a bit-identical event stream (the test
   suite proves it on random programs).  All optimization happens in the
   flat path; this one stays deliberately simple. *)

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
    let addr = Layout.elem_addr st.layout ~array_id ~index in
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
  { insts = st.t_insts; blocks = st.t_blocks; accesses = st.t_accesses;
    markers = st.t_markers }

(* ------------------------------------------------------------------ *)
(* Flat interpreter.

   Walks [Binary.flat]: contiguous statement arrays, pre-decoded access
   patterns (the per-access match is performed once per access site, not
   once per element), pre-allocated marker keys, inline address
   arithmetic, and a dense [int array] for the per-line dynamic counters.

   When the caller passes [null_observer] (physically), the interpreter
   takes a counting-only fast path: totals are exact, but the address
   streams — observable only through the observer — are not materialized,
   so no cursor/RNG work is done at all. *)

type fstate = {
  f_input : Input.t;
  f_obs : observer;
  f_fast : bool;                      (* null observer: count, don't emit *)
  f_bodies : Binary.fstmt array array;
  f_layout : Layout.t;                (* for spill-slot addressing *)
  f_bases : int array;
  f_ebytes : int array;
  f_lengths : int array;
  f_cursors : int array;
  f_chase : int array;
  f_rand : Rng.t array;
  f_lines : int array;                (* dense per-line dynamic counters *)
  mutable f_depth : int;
  mutable f_insts : int;
  mutable f_blocks : int;
  mutable f_accesses : int;
  mutable f_markers : int;
}

let f_emit_block st id insts =
  st.f_insts <- st.f_insts + insts;
  st.f_blocks <- st.f_blocks + 1;
  if not st.f_fast then st.f_obs.on_block id insts

let f_emit_marker st key =
  st.f_markers <- st.f_markers + 1;
  if not st.f_fast then st.f_obs.on_marker key

let f_access st (a : Binary.faccess) =
  let n = a.fa_count in
  st.f_accesses <- st.f_accesses + n;
  if not st.f_fast then begin
    let aid = a.fa_array in
    let base = st.f_bases.(aid) in
    let eb = st.f_ebytes.(aid) in
    let len = st.f_lengths.(aid) in
    let tenths = a.fa_write_tenths in
    let obs = st.f_obs in
    if a.fa_kind = Binary.pat_seq then begin
      let stride = a.fa_param in
      let c = ref st.f_cursors.(aid) in
      for i = 0 to n - 1 do
        let idx = !c in
        c := (idx + stride) mod len;
        obs.on_access (base + (idx * eb)) (i mod 10 < tenths)
      done;
      st.f_cursors.(aid) <- !c
    end
    else if a.fa_kind = Binary.pat_rand then begin
      let rng = st.f_rand.(aid) in
      for i = 0 to n - 1 do
        let idx = Rng.int rng ~bound:len in
        obs.on_access (base + (idx * eb)) (i mod 10 < tenths)
      done
    end
    else if a.fa_kind = Binary.pat_chase then begin
      let c = ref st.f_chase.(aid) in
      for i = 0 to n - 1 do
        let idx = Rng.hash2 !c (aid + 1) mod len in
        incr c;
        obs.on_access (base + (idx * eb)) (i mod 10 < tenths)
      done;
      st.f_chase.(aid) <- !c
    end
    else begin
      (* Hot: the window was clamped to [len] at flatten time. *)
      let w = a.fa_param in
      let cur = st.f_cursors.(aid) in
      let rng = st.f_rand.(aid) in
      for i = 0 to n - 1 do
        let idx = (cur + Rng.int rng ~bound:w) mod len in
        obs.on_access (base + (idx * eb)) (i mod 10 < tenths)
      done
    end
  end

let f_spills st n =
  st.f_accesses <- st.f_accesses + n;
  if not st.f_fast then
    for slot = 0 to n - 1 do
      let addr = Layout.stack_addr st.f_layout ~depth:st.f_depth ~slot in
      st.f_obs.on_access addr (slot land 1 = 1)
    done

let f_exec_block st (b : Binary.fblock) =
  f_emit_block st b.fb_id b.fb_insts;
  let accs = b.fb_accesses in
  for i = 0 to Array.length accs - 1 do
    f_access st accs.(i)
  done;
  if b.fb_spills > 0 then f_spills st b.fb_spills

let rec f_exec_stmts st (code : Binary.fstmt array) =
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Binary.FBlock b -> f_exec_block st b
    | Binary.FCall { fc_overhead; fc_proc; fc_marker } ->
      f_exec_block st fc_overhead;
      f_emit_marker st fc_marker;
      st.f_depth <- st.f_depth + 1;
      f_exec_stmts st st.f_bodies.(fc_proc);
      st.f_depth <- st.f_depth - 1
    | Binary.FSelect s ->
      f_exec_block st s.fs_dispatch;
      let exec_index = st.f_lines.(s.fs_slot) in
      st.f_lines.(s.fs_slot) <- exec_index + 1;
      let arm =
        Input.select_arm st.f_input ~line:s.fs_line ~exec_index
          ~arms:(Array.length s.fs_arms)
      in
      f_exec_stmts st s.fs_arms.(arm)
    | Binary.FLoop l -> f_exec_loop st l
  done

and f_exec_loop st (l : Binary.floop) =
  f_emit_marker st l.fo_entry_marker;
  f_exec_block st l.fo_header;
  let machine_entry = st.f_lines.(l.fo_slot) in
  st.f_lines.(l.fo_slot) <- machine_entry + 1;
  let entry_index = machine_entry / l.fo_split_arity in
  let trips =
    Input.eval_trips l.fo_trips st.f_input ~line:l.fo_src_line ~entry_index
  in
  let unroll = l.fo_unroll in
  let header_id = l.fo_header.Binary.fb_id in
  let back_insts = l.fo_backedge_insts in
  for i = 0 to trips - 1 do
    f_exec_stmts st l.fo_body;
    if i mod unroll = unroll - 1 || i = trips - 1 then begin
      f_emit_block st header_id back_insts;
      f_emit_marker st l.fo_back_marker
    end
  done

(* Executor totals feed the obs registry once per run (never per event:
   the hot loops stay untouched, so the counters are free at the block
   granularity the interpreter actually works at). *)
let m_runs = Cbsp_obs.Metrics.counter "executor.runs"
let m_insts = Cbsp_obs.Metrics.counter "executor.insts"
let m_blocks = Cbsp_obs.Metrics.counter "executor.blocks"
let m_accesses = Cbsp_obs.Metrics.counter "executor.accesses"
let m_markers = Cbsp_obs.Metrics.counter "executor.markers"

let observe_totals (t : totals) =
  Cbsp_obs.Metrics.incr m_runs;
  Cbsp_obs.Metrics.incr ~by:t.insts m_insts;
  Cbsp_obs.Metrics.incr ~by:t.blocks m_blocks;
  Cbsp_obs.Metrics.incr ~by:t.accesses m_accesses;
  Cbsp_obs.Metrics.incr ~by:t.markers m_markers

let run binary input obs =
  let flat = binary.Binary.flat in
  let layout = binary.Binary.layout in
  let n_arrays = Layout.n_arrays layout in
  let st =
    { f_input = input; f_obs = obs; f_fast = obs == null_observer;
      f_bodies = flat.Binary.fp_bodies; f_layout = layout;
      f_bases = Array.init n_arrays (fun i -> Layout.array_base layout ~array_id:i);
      f_ebytes =
        Array.init n_arrays (fun i -> Layout.array_elem_bytes layout ~array_id:i);
      f_lengths =
        Array.init n_arrays (fun i -> Layout.array_length layout ~array_id:i);
      f_cursors = Array.make n_arrays 0;
      f_chase = Array.make n_arrays 0;
      f_rand =
        Array.init n_arrays (fun i ->
            Rng.split (Rng.create ~seed:input.Input.seed) ~tag:(i + 1));
      f_lines = Array.make flat.Binary.fp_n_slots 0; f_depth = 0;
      f_insts = 0; f_blocks = 0; f_accesses = 0; f_markers = 0 }
  in
  f_emit_marker st flat.Binary.fp_main_marker;
  f_exec_stmts st st.f_bodies.(flat.Binary.fp_main);
  let totals =
    { insts = st.f_insts; blocks = st.f_blocks; accesses = st.f_accesses;
      markers = st.f_markers }
  in
  observe_totals totals;
  totals
