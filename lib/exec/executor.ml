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

type runs = {
  line_bytes : int;
  access : int -> bool -> unit;
  on_run : int -> int -> bool -> unit;
}

let null_observer =
  { on_block = (fun _ _ -> ());
    on_access = (fun _ _ -> ());
    on_marker = (fun _ -> ()) }

(* Each event costs one call per live observer and no list walk: a
   callback that is physically [null_observer]'s is dropped, so a builder
   that ignores accesses hands them straight to the CPU. *)
let fan1 null f g =
  if f == null then g else if g == null then f else fun x -> f x; g x

let fan2 null f g =
  if f == null then g else if g == null then f else fun x y -> f x y; g x y

let compose observers =
  let null = null_observer in
  List.fold_right
    (fun o acc ->
      { on_block = fan2 null.on_block o.on_block acc.on_block;
        on_access = fan2 null.on_access o.on_access acc.on_access;
        on_marker = fan1 null.on_marker o.on_marker acc.on_marker })
    observers null

(* ------------------------------------------------------------------ *)
(* Flat interpreter.

   Walks [Binary.flat]: contiguous statement arrays, pre-decoded access
   patterns (the per-access match is performed once per access site, not
   once per element), pre-allocated marker keys, inline address
   arithmetic, and a dense [int array] for the per-line dynamic counters.

   When the observer's [on_access] is physically [null_observer]'s (a
   structure profile, or [null_observer] itself), the address streams —
   observable only through [on_access] — are never generated: accesses
   are counted, but no cursor/RNG work is done at all.

   A run whose [on_block] and [on_access] are both [null_observer]'s
   (marker-only: a structure profile, or a plain count) sums a loop whose
   body holds only blocks in O(1): nothing inside such a body but the
   back-edge marker is observable, so the totals add [trips] times the
   body's per-iteration counts (precomputed by [Binary.flatten]), and the
   header block and back-edge marker go [ceil (trips / unroll)] times —
   as often as the walk's back-edge test holds.  The marker sequence is
   the walk's.

   With [runs] that speak for the observer's [on_access], a Seq site
   whose step is below the run line, and a block's spill slots, go out
   one run at a time: the accesses from element i on that stay on i's
   line (and, for Seq, before the cursor wraps at the array's length)
   are worked out in O(1); the first goes to [on_access] with its own
   write bit, the rest to one [on_run].  Rand, Chase and Hot stay per
   element. *)

type fstate = {
  f_input : Input.t;
  f_obs : observer;
  f_no_access : bool;                 (* null on_access: count accesses only *)
  f_markers_only : bool;              (* null on_block too: sum inner loops *)
  f_line : int;                       (* run line size; 0 = no runs *)
  f_on_run : int -> int -> bool -> unit;
  f_bodies : Binary.fstmt array array;
  f_stack : int;                      (* spill slot 0 of the depth-0 frame *)
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
  st.f_obs.on_block id insts

let f_emit_marker st key =
  st.f_markers <- st.f_markers + 1;
  st.f_obs.on_marker key

(* Whether any of the [m] >= 1 accesses from the [i]-th on writes, under
   [Binary.faccess]'s rule (access j writes iff j mod 10 < tenths): their
   residues climb from [i mod 10] and pass through 0 once they wrap. *)
let any_write ~tenths i m =
  let r = i mod 10 in
  tenths > 0 && (r < tenths || r + m > 10)

(* [log2 p] if [p] is a power of two, else -1. *)
let pow2_shift p =
  if p land (p - 1) <> 0 then -1
  else begin
    let s = ref 0 in
    while 1 lsl !s < p do incr s done;
    !s
  end

(* Elements of a run from [addr] on, the first included, at [step] bytes
   apart within one [line]; [shift] is [pow2_shift step], which turns the
   division into a shift. *)
let[@inline] on_line ~line ~step ~shift addr =
  let room = line - 1 - (addr land (line - 1)) in
  1 + (if shift >= 0 then room lsr shift else room / step)

(* [Stdlib.min] compares polymorphically, through a C call. *)
let[@inline] imin (a : int) b = if a <= b then a else b

let f_access st (a : Binary.faccess) =
  let n = a.fa_count in
  st.f_accesses <- st.f_accesses + n;
  if not st.f_no_access then begin
    let aid = a.fa_array in
    let base = st.f_bases.(aid) in
    let eb = st.f_ebytes.(aid) in
    let len = st.f_lengths.(aid) in
    let tenths = a.fa_write_tenths in
    let obs = st.f_obs in
    if a.fa_kind = Binary.pat_seq then begin
      let stride = a.fa_param in
      (* The cursor stays below [len] and advances by the stride reduced
         below [len], so each advance wraps with a compare and a subtract;
         only a stride of [len] or more pays a division, once per site. *)
      let adv = if stride < len then stride else stride mod len in
      let step = stride * eb and line = st.f_line in
      let c = ref st.f_cursors.(aid) in
      if step > 0 && step < line then begin
        let on_run = st.f_on_run and i = ref 0 in
        let shift = pow2_shift step in
        while !i < n do
          let idx = !c and i0 = !i in
          let addr = base + (idx * eb) in
          let k = imin (n - i0) (on_line ~line ~step ~shift addr) in
          (* the wrap at [len] rarely falls inside a line: test first.  The
             cap is on the full stride: a run of k > 1 means stride < len. *)
          let k =
            if idx + ((k - 1) * stride) < len then k
            else 1 + ((len - 1 - idx) / stride)
          in
          obs.on_access addr (i0 mod 10 < tenths);
          if k > 1 then on_run addr (k - 1) (any_write ~tenths (i0 + 1) (k - 1));
          (* below [len + stride], and [adv = stride] whenever k > 1 *)
          let next = idx + (k * adv) in
          c := if next >= len then next - len else next;
          i := i0 + k
        done
      end
      else
        for i = 0 to n - 1 do
          let idx = !c in
          let next = idx + adv in
          c := if next >= len then next - len else next;
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
        (* [cur < len] and the draw is below [w <= len] *)
        let idx = cur + Rng.int rng ~bound:w in
        let idx = if idx >= len then idx - len else idx in
        obs.on_access (base + (idx * eb)) (i mod 10 < tenths)
      done
    end
  end

(* [Layout.stack_addr] inline, its modulo a mask: the frame at [depth]
   starts [depth * frame_bytes] above [f_stack], and slot [s] sits
   [(s * slot_bytes) land frame_mask] into it.  Spill runs need no cap at
   the frame's wrap: frames start at multiples of their (power-of-two)
   size, so a line below the frame size never spans the wrap and a larger
   one holds the whole frame. *)
let slot_bytes = Layout.stack_slot_bytes
let slot_shift = pow2_shift slot_bytes
let frame_bytes = Cbsp_compiler.Costmodel.frame_bytes
let frame_mask = frame_bytes - 1

let () =
  assert (slot_shift >= 0);
  assert (pow2_shift frame_bytes >= 0)

let f_spills st n =
  st.f_accesses <- st.f_accesses + n;
  if not st.f_no_access then begin
    let frame = st.f_stack + (st.f_depth * frame_bytes) in
    if slot_bytes < st.f_line then begin
      let line = st.f_line and slot = ref 0 in
      while !slot < n do
        let s = !slot in
        let addr = frame + ((s * slot_bytes) land frame_mask) in
        let k =
          imin (n - s) (on_line ~line ~step:slot_bytes ~shift:slot_shift addr)
        in
        st.f_obs.on_access addr (s land 1 = 1);
        (* odd slots write: s+1 .. s+k-1 hold one unless that is s+1
           alone, odd iff s is even *)
        if k > 1 then st.f_on_run addr (k - 1) (k > 2 || s land 1 = 0);
        slot := s + k
      done
    end
    else
      for slot = 0 to n - 1 do
        st.f_obs.on_access
          (frame + ((slot * slot_bytes) land frame_mask))
          (slot land 1 = 1)
      done
  end

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
  if st.f_markers_only && l.fo_blocks_only then begin
    if trips > 0 then begin
      (* [i mod unroll = unroll - 1 || i = trips - 1] holds this often *)
      let backs = (trips + unroll - 1) / unroll in
      st.f_insts <-
        st.f_insts + (trips * l.fo_body_insts) + (backs * back_insts);
      st.f_blocks <- st.f_blocks + (trips * l.fo_body_blocks) + backs;
      st.f_accesses <- st.f_accesses + (trips * l.fo_body_accesses);
      for _ = 1 to backs do
        f_emit_marker st l.fo_back_marker
      done
    end
  end
  else
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

let no_run _ _ _ = ()

let run ?runs binary input obs =
  let flat = binary.Binary.flat in
  let layout = binary.Binary.layout in
  let n_arrays = Layout.n_arrays layout in
  let f_line, f_on_run =
    match runs with
    | Some r when r.access == obs.on_access ->
      if r.line_bytes <= 0 || r.line_bytes land (r.line_bytes - 1) <> 0 then
        invalid_arg "Executor.run: run line size not a power of two";
      (r.line_bytes, r.on_run)
    | _ -> (0, no_run)
  in
  let no_access = obs.on_access == null_observer.on_access in
  let st =
    { f_input = input; f_obs = obs;
      f_no_access = no_access;
      f_markers_only = no_access && obs.on_block == null_observer.on_block;
      f_line; f_on_run;
      f_bodies = flat.Binary.fp_bodies;
      f_stack = Layout.stack_addr layout ~depth:0 ~slot:0;
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
