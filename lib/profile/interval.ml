module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor
module Metrics = Cbsp_obs.Metrics

type interval = {
  insts : int;
  cycles : float;
  extras : float array;
  bbv : float array;
}

type boundary = { bd_key : Marker.key; bd_count : int }

type emit = interval -> unit

(* The memory-model gauge: peak number of full-width (n_blocks-wide) BBV
   buffers held by any single profiling pass — scratch plus retained
   copies.  Streaming passes stay at a small constant; a pass that
   copied every interval out would report interval-count + 1, which is
   exactly the regression the validate-smoke CI budget catches.  It
   counts per plan: an execution shared by several plans holds one
   builder's buffers per plan, each with O(1) scratch, and the gauge
   keeps the largest one plan's peak rather than their sum.  The max
   update is racy across domains (two passes may interleave reads),
   which can only ever under-report by one concurrent pass's peak —
   fine for a budget gate. *)
let m_scratch = Metrics.gauge "profile.scratch_intervals"

let note_scratch_peak n =
  if n > Metrics.gauge_value m_scratch then Metrics.set m_scratch n

(* Shared accumulator: current-interval instruction count, optional BBV,
   and the cycle baseline for delta sampling.  Completed intervals leave
   through [emit]; the emitted interval's [bbv] and [extras] alias
   internal scratch buffers that are overwritten at the next cut, so a
   consumer that retains them must copy. *)
type acc = {
  collect_bbv : bool;
  n_blocks : int;
  cycles : unit -> float;
  extras : unit -> float array;
  emit : emit;
  mutable cur_insts : int;
  cur_bbv : float array;
  mutable extras_scratch : float array;
  mutable cycle_base : float;
  mutable extras_base : float array;
  mutable n_emitted : int;
  mutable finished : bool;
}

let make_acc ?(cycles = fun () -> 0.0) ?(extras = fun () -> [||]) ~collect_bbv
    ~n_blocks ~emit () =
  { collect_bbv; n_blocks; cycles; extras; emit;
    cur_insts = 0;
    cur_bbv = (if collect_bbv then Array.make n_blocks 0.0 else [||]);
    extras_scratch = [||]; cycle_base = 0.0; extras_base = extras ();
    n_emitted = 0; finished = false }

let acc_block acc id insts =
  acc.cur_insts <- acc.cur_insts + insts;
  if acc.collect_bbv then
    acc.cur_bbv.(id) <- acc.cur_bbv.(id) +. float_of_int insts

let acc_cut acc =
  let now = acc.cycles () in
  let extras_now = acc.extras () in
  let n_extras = Array.length extras_now in
  if Array.length acc.extras_scratch <> n_extras then
    acc.extras_scratch <- Array.make n_extras 0.0;
  for i = 0 to n_extras - 1 do
    acc.extras_scratch.(i) <- extras_now.(i) -. acc.extras_base.(i)
  done;
  acc.emit
    { insts = acc.cur_insts; cycles = now -. acc.cycle_base;
      extras = acc.extras_scratch; bbv = acc.cur_bbv };
  acc.cur_insts <- 0;
  if acc.collect_bbv then Array.fill acc.cur_bbv 0 acc.n_blocks 0.0;
  acc.cycle_base <- now;
  acc.extras_base <- extras_now;
  acc.n_emitted <- acc.n_emitted + 1

(* The trailing interval is always emitted, even when empty: recorder and
   follower must agree that a run with B boundaries has exactly B+1
   intervals, or phase labels would shift between binaries whose suffix
   after the last boundary happens to be empty in one and not another. *)
let acc_finish acc =
  if not acc.finished then begin
    acc_cut acc;
    acc.finished <- true;
    note_scratch_peak (if acc.collect_bbv then 1 else 0)
  end;
  acc.n_emitted

(* --- streaming builders ------------------------------------------------ *)

let fli_stream ~n_blocks ~target ?cycles ?extras ~emit () =
  if target <= 0 then invalid_arg "Interval.fli_stream: target must be positive";
  let acc = make_acc ?cycles ?extras ~collect_bbv:true ~n_blocks ~emit () in
  let obs =
    { Executor.null_observer with
      Executor.on_block =
        (fun id insts ->
          (* Cut before the block that would extend a full interval. *)
          if acc.cur_insts >= target then acc_cut acc;
          acc_block acc id insts) }
  in
  (obs, fun () -> acc_finish acc)

let vli_recorder_stream ~n_blocks ~target ~mappable ?cycles ?extras ~emit () =
  if target <= 0 then
    invalid_arg "Interval.vli_recorder_stream: target must be positive";
  let acc = make_acc ?cycles ?extras ~collect_bbv:true ~n_blocks ~emit () in
  let key_counts = Structprof.counts () in
  let boundaries_rev = ref [] in
  (* [mappable]'s answer for the last key asked, reused while the same
     physical key repeats (as [Structprof.bump] reuses its counter). *)
  let last_key = ref (Marker.Loop_back (Sys.opaque_identity 0))
  and last_mappable = ref false in
  let obs =
    { Executor.on_block = (fun id insts -> acc_block acc id insts);
      on_access = Executor.null_observer.on_access;
      on_marker =
        (fun key ->
          if key != !last_key then begin
            last_key := key;
            last_mappable := mappable key
          end;
          if !last_mappable then begin
            let count = Structprof.bump key_counts key in
            if acc.cur_insts >= target then begin
              boundaries_rev := { bd_key = key; bd_count = count } :: !boundaries_rev;
              acc_cut acc
            end
          end) }
  in
  let finish () =
    let n = acc_finish acc in
    (n, Array.of_list (List.rev !boundaries_rev))
  in
  (obs, finish)

let vli_follower_stream ?n_blocks ~boundaries ?cycles ?extras ~emit () =
  let collect_bbv, n_blocks =
    match n_blocks with Some n -> (true, n) | None -> (false, 0)
  in
  let acc = make_acc ?cycles ?extras ~collect_bbv ~n_blocks ~emit () in
  let key_counts = Structprof.counts () in
  let next = ref 0 in
  let total = Array.length boundaries in
  let obs =
    { Executor.on_block = (fun id insts -> acc_block acc id insts);
      on_access = Executor.null_observer.on_access;
      on_marker =
        (fun key ->
          if !next < total then begin
            let count = Structprof.bump key_counts key in
            let b = boundaries.(!next) in
            if b.bd_count = count && Marker.equal b.bd_key key then begin
              incr next;
              acc_cut acc
            end
          end) }
  in
  let finish () =
    if !next < total then
      invalid_arg
        (Printf.sprintf
           "Interval.vli_follower_stream: only %d of %d boundaries reached — \
            boundaries do not belong to this (program, input)"
           !next total);
    acc_finish acc
  in
  (obs, finish)
