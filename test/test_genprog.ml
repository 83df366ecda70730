(* Property tests over RANDOMLY GENERATED workload programs: the
   hand-written tests pin specific behaviours; these check that the
   system's core invariants hold over the whole program space the
   mini-language can express.

   Invariants checked, per random program:
   1. the builder's output validates;
   2. all four binaries execute to completion, deterministically;
   3. unoptimized code executes at least as many instructions as
      optimized code on the same ISA;
   4. the mappable-marker event stream is identical across all binaries;
   5. recorder boundaries replay exactly in every binary (same interval
      count, runs fully partitioned);
   6. the data-address stream is identical across optimization levels of
      the same ISA. *)

module Validate = Cbsp_source.Validate
module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Structprof = Cbsp_profile.Structprof
module Executor_ref = Cbsp_oracle.Executor_ref
module Interval_ref = Cbsp_oracle.Interval_ref

let input = Tutil.test_input

(* --- the invariants --------------------------------------------------- *)

let binaries_of plan program =
  Tutil.compile_all ~loop_splitting:plan.Genprog.splitting program

let prop_builds_and_validates =
  QCheck.Test.make ~name:"generated programs validate" ~count:60
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      Validate.check program;
      true)

let prop_deterministic_execution =
  QCheck.Test.make ~name:"execution deterministic" ~count:30
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      List.for_all
        (fun binary ->
          Executor.run binary input Executor.null_observer
          = Executor.run binary input Executor.null_observer)
        (binaries_of plan program))

let prop_opt_reduces_insts =
  QCheck.Test.make ~name:"O0 >= O2 instruction counts" ~count:30
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      match
        List.map
          (fun b -> (Executor.run b input Executor.null_observer).Executor.insts)
          (binaries_of plan program)
      with
      | [ i32u; i32o; i64u; i64o ] -> i32u >= i32o && i64u >= i64o
      | _ -> false)

let mappable_stream binary mappable =
  let events = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_marker =
        (fun key -> if Cbsp.Matching.is_mappable mappable key then events := key :: !events) }
  in
  let (_ : Executor.totals) = Executor.run binary input obs in
  List.rev !events

let prop_marker_stream_equal =
  QCheck.Test.make ~name:"mappable marker streams identical" ~count:30
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      let binaries = binaries_of plan program in
      let profiles = List.map (fun b -> Structprof.profile b input) binaries in
      let mappable = Cbsp.Matching.find ~binaries ~profiles () in
      match List.map (fun b -> mappable_stream b mappable) binaries with
      | first :: rest -> List.for_all (fun s -> s = first) rest
      | [] -> false)

let prop_boundaries_replay =
  QCheck.Test.make ~name:"VLI boundaries replay in every binary" ~count:25
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      let binaries = binaries_of plan program in
      let profiles = List.map (fun b -> Structprof.profile b input) binaries in
      let mappable = Cbsp.Matching.find ~binaries ~profiles () in
      let primary = List.hd binaries in
      let robs, rread =
        Interval_ref.vli_recorder ~n_blocks:primary.Binary.n_blocks
          ~target:2_000 ~mappable:(Cbsp.Matching.is_mappable mappable) ()
      in
      let (_ : Executor.totals) = Executor.run primary input robs in
      let r_intervals, boundaries = rread () in
      List.for_all
        (fun binary ->
          let fobs, fread = Interval_ref.vli_follower ~boundaries () in
          let totals = Executor.run binary input fobs in
          let f_intervals = fread () in
          Array.length f_intervals = Array.length r_intervals
          && Array.fold_left (fun a iv -> a + iv.Interval.insts) 0 f_intervals
             = totals.Executor.insts)
        binaries)

let data_addrs binary =
  let layout = binary.Binary.layout in
  let stack_floor = Cbsp_compiler.Layout.stack_addr layout ~depth:0 ~slot:0 in
  let h = ref 0 in
  let count = ref 0 in
  let obs =
    { Executor.null_observer with
      Executor.on_access =
        (fun addr _ ->
          if addr < stack_floor then begin
            (* order-sensitive rolling hash of the address stream *)
            h := Cbsp_util.Rng.hash2 !h addr;
            incr count
          end) }
  in
  let (_ : Executor.totals) = Executor.run binary input obs in
  (!h, !count)

(* Full-fidelity event stream (blocks, accesses, markers), folded into an
   order-sensitive hash so huge random programs stay cheap to compare. *)
let event_hash run_fn binary =
  let h = ref 0 and count = ref 0 in
  let note x =
    h := Cbsp_util.Rng.hash2 !h x;
    incr count
  in
  let obs =
    { Executor.on_block = (fun id insts -> note 1; note id; note insts);
      on_access = (fun addr w -> note 2; note addr; note (Bool.to_int w));
      on_marker = (fun key -> note 3; note (Hashtbl.hash key)) }
  in
  let totals = run_fn binary input obs in
  (totals, !h, !count)

let prop_flat_matches_tree =
  (* the tentpole equivalence: the flattened interpreter emits exactly the
     tree walker's observer event stream and totals, on every binary of
     every random program *)
  QCheck.Test.make ~name:"flat interpreter = tree reference" ~count:25
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      List.for_all
        (fun binary ->
          event_hash Executor.run binary = event_hash Executor_ref.run_tree binary)
        (binaries_of plan program))

let prop_data_stream_across_opt =
  (* without splitting, O0 and O2 of the same ISA touch the same data in
     the same order *)
  QCheck.Test.make ~name:"data stream invariant across opt levels" ~count:25
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let plan = { plan with splitting = false } in
      let program = Genprog.build_program plan in
      match List.map data_addrs (binaries_of plan program) with
      | [ a32u; a32o; a64u; a64o ] -> a32u = a32o && a64u = a64o
      | _ -> false)

(* The static prover must be sound on anything the language can express:
   a [Proved_mappable] verdict must be confirmed (with the same count) by
   dynamic matching, a [Proved_unmappable] verdict must be dynamically
   rejected, and a dynamically mappable marker may never be ruled
   unmappable. *)
let prop_static_prover_sound =
  let module Marker = Cbsp_compiler.Marker in
  let module Prover = Cbsp_analysis.Prover in
  QCheck.Test.make ~name:"static prover sound vs dynamic matching" ~count:30
    (QCheck.make Genprog.plan_gen) (fun plan ->
      let program = Genprog.build_program plan in
      let binaries = binaries_of plan program in
      let profiles = List.map (fun b -> Structprof.profile b input) binaries in
      let dynamic = Cbsp.Matching.find ~binaries ~profiles () in
      let scale = input.Cbsp_source.Input.scale in
      let report = Prover.prove ~binaries ~scale in
      Marker.Map.iter
        (fun key verdict ->
          let dyn = Cbsp.Matching.is_mappable dynamic key in
          match verdict with
          | Prover.Proved_mappable n ->
            if not dyn then
              QCheck.Test.fail_reportf "%s proved mappable, dynamic rejects"
                (Marker.to_string key);
            let dyn_count = Marker.Map.find key dynamic.Cbsp.Matching.counts in
            if dyn_count <> n then
              QCheck.Test.fail_reportf "%s count %d, dynamic %d"
                (Marker.to_string key) n dyn_count
          | Prover.Proved_unmappable _ ->
            if dyn then
              QCheck.Test.fail_reportf "%s proved unmappable, dynamic accepts"
                (Marker.to_string key)
          | Prover.Needs_dynamic -> ())
        report.Prover.pr_verdicts;
      Marker.Set.iter
        (fun key ->
          match Marker.Map.find_opt key report.Prover.pr_verdicts with
          | Some (Prover.Proved_mappable _) | Some Prover.Needs_dynamic -> ()
          | Some (Prover.Proved_unmappable _) ->
            QCheck.Test.fail_reportf "dynamically mappable %s ruled unmappable"
              (Marker.to_string key)
          | None ->
            QCheck.Test.fail_reportf "dynamically mappable %s not a candidate"
              (Marker.to_string key))
        dynamic.Cbsp.Matching.keys;
      report.Prover.pr_candidates >= dynamic.Cbsp.Matching.candidates)

let () =
  Alcotest.run "genprog"
    [ ( "random programs",
        [ Tutil.qcheck_case prop_builds_and_validates;
          Tutil.qcheck_case prop_deterministic_execution;
          Tutil.qcheck_case prop_opt_reduces_insts;
          Tutil.qcheck_case prop_marker_stream_equal;
          Tutil.qcheck_case prop_boundaries_replay;
          Tutil.qcheck_case prop_flat_matches_tree;
          Tutil.qcheck_case prop_data_stream_across_opt;
          Tutil.qcheck_case prop_static_prover_sound ] ) ]
