(* Test-only materializing interval builders: thin wrappers over the
   streaming builders of [Cbsp_profile.Interval] that copy each emitted
   interval out of the scratch buffers and return the whole array.  The
   copies are the same floats, bit for bit, as the streaming emissions
   (the scratch reuse performs the identical fills and increments a
   fresh allocation would), so the tests use them as the reference the
   streaming passes must reproduce. *)

module Interval = Cbsp_profile.Interval

(* [copies] counts retained full-width BBVs so a copying reader shows up
   honestly in the [profile.scratch_intervals] gauge. *)
let collector () =
  let done_rev = ref [] in
  let copies = ref 0 in
  let emit (iv : Interval.interval) =
    if Array.length iv.Interval.bbv > 0 then incr copies;
    done_rev :=
      { iv with
        Interval.bbv = Array.copy iv.Interval.bbv;
        extras = Array.copy iv.Interval.extras }
      :: !done_rev
  in
  let collect () =
    (* +1 for the scratch buffer that was live alongside the copies. *)
    if !copies > 0 then Interval.note_scratch_peak (!copies + 1);
    Array.of_list (List.rev !done_rev)
  in
  (emit, collect)

let memoized f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
      let v = f () in
      cache := Some v;
      v

(* [n_blocks] sizes the BBVs; [target] is the interval length in
   instructions.  The reader finalizes the trailing interval and may be
   called more than once (later calls return the same array). *)
let fli_observer ~n_blocks ~target ?cycles ?extras () =
  let emit, collect = collector () in
  let obs, finish =
    Interval.fli_stream ~n_blocks ~target ?cycles ?extras ~emit ()
  in
  let read =
    memoized (fun () ->
        let (_ : int) = finish () in
        collect ())
  in
  (obs, read)

(* Cuts only at markers satisfying [mappable]; returns exactly one more
   interval than boundaries. *)
let vli_recorder ~n_blocks ~target ~mappable ?cycles ?extras () =
  let emit, collect = collector () in
  let obs, finish =
    Interval.vli_recorder_stream ~n_blocks ~target ~mappable ?cycles ?extras
      ~emit ()
  in
  let read =
    memoized (fun () ->
        let (_ : int), boundaries = finish () in
        (collect (), boundaries))
  in
  (obs, read)

(* Replays [boundaries] in order, collecting BBVs only when [n_blocks] is
   given.  The reader raises [Invalid_argument] if the run ended before
   every boundary was met. *)
let vli_follower ?n_blocks ~boundaries ?cycles ?extras () =
  let emit, collect = collector () in
  let obs, finish =
    Interval.vli_follower_stream ?n_blocks ~boundaries ?cycles ?extras ~emit ()
  in
  let read =
    memoized (fun () ->
        let (_ : int) = finish () in
        collect ())
  in
  (obs, read)
