module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor
module Structprof = Cbsp_profile.Structprof
module Interval = Cbsp_profile.Interval
module Stats = Cbsp_util.Stats
module Interval_ref = Cbsp_oracle.Interval_ref

let input = Tutil.test_input

let compile program config = Lower.compile program config

let o0 = Config.v Isa.X86_32 Config.O0

let mappable_of binaries =
  let profiles = List.map (fun b -> Structprof.profile b input) binaries in
  Cbsp.Matching.find ~binaries ~profiles ()

(* --- structure profile ---------------------------------------------- *)

let test_profile_totals () =
  let program = Tutil.single_loop_program ~trips:7 () in
  let binary = compile program o0 in
  let profile = Structprof.profile binary input in
  let total = List.fold_left (fun acc k -> acc + Structprof.count profile k) 0
      (Structprof.keys profile) in
  let totals = Executor.run binary input Executor.null_observer in
  Tutil.check_int "profile counts = marker events" totals.Executor.markers total

let test_profile_missing_key () =
  let program = Tutil.single_loop_program () in
  let profile = Structprof.profile (compile program o0) input in
  Tutil.check_int "missing key counts 0" 0
    (Structprof.count profile (Marker.Proc_entry "ghost"))

(* A structure profile is a marker-only run: the executor sums every
   blocks-only loop instead of walking it.  On every registry binary it
   must count what the walk counts, and end with the walk's totals. *)
let test_profile_registry_summed () =
  List.iter
    (fun (e : Cbsp_workloads.Registry.entry) ->
      let program = e.build () in
      List.iter
        (fun config ->
          let binary = compile program config in
          let what = e.name ^ "/" ^ Config.label config in
          let obs, read = Structprof.observer () in
          (* a block callback of its own: the run walks every iteration *)
          let walked = { obs with Executor.on_block = (fun _ _ -> ()) } in
          let walked_totals = Executor.run binary input walked in
          Tutil.check_bool (what ^ ": profile = per-iteration count") true
            (Marker.Map.equal ( = ) (Structprof.profile binary input) (read ()));
          Tutil.check_bool (what ^ ": totals = per-iteration totals") true
            (Executor.run binary input Executor.null_observer = walked_totals))
        (Config.paper_four ~loop_splitting:e.loop_splitting ()))
    Cbsp_workloads.Registry.all

(* Equal keys allocated apart share a count, whichever the memo holds. *)
let test_bump_memo () =
  let a = Marker.Loop_back 1 and b = Marker.Proc_entry "f" in
  let a' = Marker.Loop_back (int_of_string "1") in
  let c = Structprof.counts () in
  let got = List.map (Structprof.bump c) [ a; a; b; a; a'; a'; b; a ] in
  Alcotest.(check (list int)) "counts per equal key" [ 1; 2; 1; 3; 4; 5; 2; 6 ]
    got

(* Synthetic marker streams of one instruction between events, over two
   keys of one kind and an equal copy of the first, so the follower's
   and the recorder's memo switch keys and meet the copy. *)
let alt_keys = [| Marker.Loop_back 7; Marker.Loop_back 9;
                  Marker.Loop_back (int_of_string "7") |]

let alt_stream =
  let rng = Cbsp_util.Rng.create ~seed:5 in
  List.init 300 (fun i ->
      (* runs of repeats, and strict alternation at the start *)
      if i < 20 then alt_keys.(i mod 2)
      else alt_keys.(Cbsp_util.Rng.int rng ~bound:3))

let drive (obs : Executor.observer) =
  List.iter
    (fun key ->
      obs.Executor.on_block 0 1;
      obs.Executor.on_marker key)
    alt_stream;
  obs.Executor.on_block 0 1

(* Counts by a plain association list: the table path, without a memo. *)
let numbered stream =
  let seen = ref [] in
  List.map
    (fun key ->
      let n =
        1 + (try List.assoc (Marker.to_string key) !seen with Not_found -> 0)
      in
      seen := (Marker.to_string key, n) :: List.remove_assoc (Marker.to_string key) !seen;
      (key, n))
    stream

let test_follower_alternating_keys () =
  let events = Array.of_list (numbered alt_stream) in
  (* every 7th event a boundary: both keys and the copy's counts *)
  let cut_at = List.filter (fun i -> i mod 7 = 3) (List.init 300 Fun.id) in
  let boundaries =
    Array.of_list
      (List.map
         (fun i ->
           let key, n = events.(i) in
           { Interval.bd_key = key; bd_count = n })
         cut_at)
  in
  let fobs, fread = Interval_ref.vli_follower ~boundaries () in
  drive fobs;
  (* event i closes an interval of the blocks since the last cut *)
  let expected =
    let last, sizes =
      List.fold_left
        (fun (prev, acc) i -> (i + 1, (i + 1 - prev) :: acc))
        (0, []) cut_at
    in
    List.rev ((301 - last) :: sizes)
  in
  Alcotest.(check (list int)) "cuts where the counts put them" expected
    (Array.to_list (Array.map (fun iv -> iv.Interval.insts) (fread ())))

let test_recorder_alternating_mappable () =
  let mappable key = Marker.equal key alt_keys.(0) in
  let robs, rread =
    Interval_ref.vli_recorder ~n_blocks:1 ~target:1 ~mappable ()
  in
  drive robs;
  let _, boundaries = rread () in
  let expected =
    List.filter (fun (key, _) -> mappable key) (numbered alt_stream)
    |> List.map (fun (key, n) -> (Marker.to_string key, n))
  in
  Alcotest.(check (list (pair string int))) "a boundary at every mappable event"
    expected
    (Array.to_list
       (Array.map
          (fun b -> (Marker.to_string b.Interval.bd_key, b.Interval.bd_count))
          boundaries))

(* --- FLI ------------------------------------------------------------- *)

let fli_pass binary ~target =
  let obs, read =
    Interval_ref.fli_observer ~n_blocks:binary.Binary.n_blocks ~target ()
  in
  let totals = Executor.run binary input obs in
  (read (), totals)

let test_fli_sizes () =
  let program = Tutil.two_phase_program () in
  let binary = compile program o0 in
  let target = 20_000 in
  let intervals, totals = fli_pass binary ~target in
  let n = Array.length intervals in
  Tutil.check_bool "several intervals" true (n > 10);
  Array.iteri
    (fun i iv ->
      if i < n - 1 && iv.Interval.insts < target then
        Alcotest.failf "interval %d shorter than target: %d" i iv.Interval.insts)
    intervals;
  let sum = Array.fold_left (fun acc iv -> acc + iv.Interval.insts) 0 intervals in
  Tutil.check_int "intervals partition the run" totals.Executor.insts sum

let test_fli_bbv_sums () =
  let program = Tutil.two_phase_program () in
  let binary = compile program o0 in
  let intervals, _ = fli_pass binary ~target:20_000 in
  Array.iter
    (fun iv ->
      Tutil.check_close ~eps:1e-6 "bbv mass = interval insts"
        (float_of_int iv.Interval.insts)
        (Stats.sum iv.Interval.bbv))
    intervals

let test_fli_rejects_bad_target () =
  Alcotest.check_raises "zero target"
    (Invalid_argument "Interval.fli_stream: target must be positive") (fun () ->
      ignore (Interval_ref.fli_observer ~n_blocks:1 ~target:0 ()));
  Alcotest.check_raises "zero recorder target"
    (Invalid_argument "Interval.vli_recorder_stream: target must be positive")
    (fun () ->
      ignore
        (Interval_ref.vli_recorder ~n_blocks:1 ~target:0
           ~mappable:(fun _ -> true) ()))

let test_fli_cycles_sampled () =
  let program = Tutil.two_phase_program () in
  let binary = compile program o0 in
  let cpu = Cbsp_cache.Cpu.create () in
  let obs, read =
    Interval_ref.fli_observer ~n_blocks:binary.Binary.n_blocks ~target:20_000
      ~cycles:(fun () -> Cbsp_cache.Cpu.cycles cpu)
      ()
  in
  let (_ : Executor.totals) =
    Executor.run binary input
      (Executor.compose [ obs; Cbsp_cache.Cpu.observer cpu ])
  in
  let intervals = read () in
  let cycle_sum = Stats.sum (Array.map (fun iv -> iv.Interval.cycles) intervals) in
  Tutil.check_close ~eps:1e-6 "interval cycles sum to total"
    (Cbsp_cache.Cpu.cycles cpu) cycle_sum;
  Array.iter
    (fun iv ->
      if iv.Interval.insts > 0 then
        Tutil.check_bool "cpi >= 1" true
          (iv.Interval.cycles /. float_of_int iv.Interval.insts >= 1.0))
    intervals

(* --- VLI recorder / follower ----------------------------------------- *)

let test_vli_recorder_basics () =
  let program = Tutil.two_phase_program () in
  let binaries = Tutil.compile_all program in
  let mappable = mappable_of binaries in
  let binary = List.hd binaries in
  let target = 20_000 in
  let obs, read =
    Interval_ref.vli_recorder ~n_blocks:binary.Binary.n_blocks ~target
      ~mappable:(Cbsp.Matching.is_mappable mappable)
      ()
  in
  let totals = Executor.run binary input obs in
  let intervals, boundaries = read () in
  Tutil.check_int "intervals = boundaries + 1"
    (Array.length boundaries + 1)
    (Array.length intervals);
  let sum = Array.fold_left (fun acc iv -> acc + iv.Interval.insts) 0 intervals in
  Tutil.check_int "VLIs partition the run" totals.Executor.insts sum;
  Array.iteri
    (fun i iv ->
      if i < Array.length intervals - 1 && iv.Interval.insts < target then
        Alcotest.failf "VLI %d shorter than target" i)
    intervals;
  Array.iter
    (fun b ->
      Tutil.check_bool "boundary keys are mappable" true
        (Cbsp.Matching.is_mappable mappable b.Interval.bd_key);
      Tutil.check_bool "boundary count positive" true (b.Interval.bd_count > 0))
    boundaries

(* Following the recorded boundaries in the SAME binary must reproduce the
   recorder's intervals exactly. *)
let test_vli_roundtrip_same_binary () =
  let program = Tutil.two_phase_program () in
  let binaries = Tutil.compile_all program in
  let mappable = mappable_of binaries in
  let binary = List.hd binaries in
  let robs, rread =
    Interval_ref.vli_recorder ~n_blocks:binary.Binary.n_blocks ~target:20_000
      ~mappable:(Cbsp.Matching.is_mappable mappable)
      ()
  in
  let (_ : Executor.totals) = Executor.run binary input robs in
  let r_intervals, boundaries = rread () in
  let fobs, fread = Interval_ref.vli_follower ~boundaries () in
  let (_ : Executor.totals) = Executor.run binary input fobs in
  let f_intervals = fread () in
  Tutil.check_int "same interval count" (Array.length r_intervals)
    (Array.length f_intervals);
  Array.iteri
    (fun i iv ->
      Tutil.check_int
        (Printf.sprintf "interval %d same size" i)
        r_intervals.(i).Interval.insts iv.Interval.insts)
    f_intervals

(* Following in the OTHER binaries: counts must line up and the total must
   partition each run. *)
let test_vli_follow_other_binaries () =
  let program = Tutil.two_phase_program () in
  let binaries = Tutil.compile_all program in
  let mappable = mappable_of binaries in
  let primary = List.hd binaries in
  let robs, rread =
    Interval_ref.vli_recorder ~n_blocks:primary.Binary.n_blocks ~target:20_000
      ~mappable:(Cbsp.Matching.is_mappable mappable)
      ()
  in
  let (_ : Executor.totals) = Executor.run primary input robs in
  let r_intervals, boundaries = rread () in
  List.iteri
    (fun i binary ->
      if i > 0 then begin
        let fobs, fread = Interval_ref.vli_follower ~boundaries () in
        let totals = Executor.run binary input fobs in
        let f_intervals = fread () in
        Tutil.check_int
          (Printf.sprintf "binary %d interval count" i)
          (Array.length r_intervals)
          (Array.length f_intervals);
        let sum =
          Array.fold_left (fun acc iv -> acc + iv.Interval.insts) 0 f_intervals
        in
        Tutil.check_int
          (Printf.sprintf "binary %d partition" i)
          totals.Executor.insts sum
      end)
    binaries

let test_follower_rejects_foreign_boundaries () =
  let program = Tutil.two_phase_program () in
  let binary = compile program o0 in
  let boundaries =
    [| { Interval.bd_key = Marker.Proc_entry "ghost"; bd_count = 3 } |]
  in
  let fobs, fread = Interval_ref.vli_follower ~boundaries () in
  let (_ : Executor.totals) = Executor.run binary input fobs in
  Tutil.check_bool "unreached boundaries raise" true
    (match fread () with
     | (_ : Interval.interval array) -> false
     | exception Invalid_argument msg ->
       (* The message carries the reached/expected boundary counts. *)
       Tutil.check_bool "message names the follower" true
         (String.starts_with ~prefix:"Interval.vli_follower_stream:" msg);
       true)

(* --- edge cases ------------------------------------------------------- *)

let test_target_larger_than_run () =
  let program = Tutil.single_loop_program ~trips:10 ~insts:50 () in
  let binary = compile program o0 in
  let intervals, totals = fli_pass binary ~target:100_000_000 in
  Tutil.check_int "single interval" 1 (Array.length intervals);
  Tutil.check_int "covers whole run" totals.Executor.insts
    intervals.(0).Interval.insts

let test_recorder_without_markers () =
  (* with nothing mappable, the whole run is one giant interval and there
     are no boundaries — the applu failure mode in the limit *)
  let program = Tutil.two_phase_program () in
  let binary = compile program o0 in
  let obs, read =
    Interval_ref.vli_recorder ~n_blocks:binary.Binary.n_blocks ~target:1_000
      ~mappable:(fun _ -> false)
      ()
  in
  let totals = Executor.run binary input obs in
  let intervals, boundaries = read () in
  Tutil.check_int "no boundaries" 0 (Array.length boundaries);
  Tutil.check_int "one interval" 1 (Array.length intervals);
  Tutil.check_int "covers whole run" totals.Executor.insts
    intervals.(0).Interval.insts

let test_follower_empty_boundaries () =
  let program = Tutil.single_loop_program () in
  let binary = compile program o0 in
  let fobs, fread = Interval_ref.vli_follower ~boundaries:[||] () in
  let totals = Executor.run binary input fobs in
  let intervals = fread () in
  Tutil.check_int "one interval" 1 (Array.length intervals);
  Tutil.check_int "covers whole run" totals.Executor.insts
    intervals.(0).Interval.insts

let () =
  Alcotest.run "profile"
    [ ( "structprof",
        [ Tutil.quick "totals" test_profile_totals;
          Tutil.quick "missing key" test_profile_missing_key;
          Tutil.quick "registry: summed = walked" test_profile_registry_summed;
          Tutil.quick "key memo" test_bump_memo ] );
      ( "fli",
        [ Tutil.quick "sizes" test_fli_sizes;
          Tutil.quick "bbv sums" test_fli_bbv_sums;
          Tutil.quick "bad target" test_fli_rejects_bad_target;
          Tutil.quick "cycles sampled" test_fli_cycles_sampled ] );
      ( "vli",
        [ Tutil.quick "recorder basics" test_vli_recorder_basics;
          Tutil.quick "roundtrip same binary" test_vli_roundtrip_same_binary;
          Tutil.quick "follow other binaries" test_vli_follow_other_binaries;
          Tutil.quick "foreign boundaries" test_follower_rejects_foreign_boundaries;
          Tutil.quick "follower alternating keys" test_follower_alternating_keys;
          Tutil.quick "recorder alternating mappable"
            test_recorder_alternating_mappable ] );
      ( "edge cases",
        [ Tutil.quick "target > run" test_target_larger_than_run;
          Tutil.quick "no mappable markers" test_recorder_without_markers;
          Tutil.quick "empty boundaries" test_follower_empty_boundaries ] ) ]
