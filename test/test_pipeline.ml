module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Config = Cbsp_compiler.Config
module Stats = Cbsp_util.Stats
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Input = Cbsp_source.Input
module Interval = Cbsp_profile.Interval
module Registry = Cbsp_workloads.Registry
module Interval_ref = Cbsp_oracle.Interval_ref
module Simpoint_ref = Cbsp_oracle.Simpoint_ref

let input = Tutil.test_input
let target = 20_000
let configs = Tutil.paper_configs ()

let run_both program =
  let fli = Pipeline.run_fli program ~configs ~input ~target in
  let vli = Pipeline.run_vli program ~configs ~input ~target in
  (fli, vli)

let check_binary_result (r : Pipeline.binary_result) =
  Tutil.check_bool "positive insts" true (r.Pipeline.br_truth.Pipeline.t_insts > 0);
  Tutil.check_bool "cpi >= 1" true (r.Pipeline.br_truth.Pipeline.t_cpi >= 1.0);
  Tutil.check_bool "est cpi positive" true (r.Pipeline.br_est_cpi > 0.0);
  Tutil.check_bool "phases non-empty" true (Array.length r.Pipeline.br_phases > 0);
  Tutil.check_int "phase count = n_points" r.Pipeline.br_n_points
    (Array.length r.Pipeline.br_phases);
  let wsum =
    Stats.sum (Array.map (fun p -> p.Pipeline.ph_weight) r.Pipeline.br_phases)
  in
  Tutil.check_close ~eps:1e-6 "phase weights sum to 1" 1.0 wsum;
  (* the estimate is the weighted mix of SP CPIs *)
  let est =
    Stats.sum
      (Array.map
         (fun p -> p.Pipeline.ph_weight *. p.Pipeline.ph_sp_cpi)
         r.Pipeline.br_phases)
  in
  Tutil.check_close ~eps:1e-6 "est = weighted sp cpi" r.Pipeline.br_est_cpi est;
  Tutil.check_close ~eps:1e-3 "est cycles consistent"
    (r.Pipeline.br_est_cpi *. float_of_int r.Pipeline.br_truth.Pipeline.t_insts)
    r.Pipeline.br_est_cycles

let test_fli_shape () =
  let fli, _ = run_both (Tutil.two_phase_program ()) in
  Tutil.check_int "four binaries" 4 (List.length fli.Pipeline.fli_binaries);
  List.iter check_binary_result fli.Pipeline.fli_binaries;
  List.iter2
    (fun (r : Pipeline.binary_result) config ->
      Tutil.check_bool "config order preserved" true
        (Config.equal r.Pipeline.br_config config))
    fli.Pipeline.fli_binaries configs

let test_vli_shape () =
  let _, vli = run_both (Tutil.two_phase_program ()) in
  List.iter check_binary_result vli.Pipeline.vli_binaries;
  (* shared clustering: same number of phases everywhere *)
  let ks =
    List.map (fun r -> r.Pipeline.br_n_points) vli.Pipeline.vli_binaries
    |> List.sort_uniq compare
  in
  Tutil.check_int "one k across binaries" 1 (List.length ks);
  let ns =
    List.map (fun r -> r.Pipeline.br_n_intervals) vli.Pipeline.vli_binaries
    |> List.sort_uniq compare
  in
  Tutil.check_int "same interval count across binaries" 1 (List.length ns);
  Tutil.check_int "boundaries + 1 intervals"
    (vli.Pipeline.vli_n_boundaries + 1)
    (List.hd ns)

let test_estimates_accurate () =
  let fli, vli = run_both (Tutil.two_phase_program ()) in
  List.iter
    (fun (r : Pipeline.binary_result) ->
      Tutil.check_bool
        (Printf.sprintf "fli %s cpi error < 25%%" (Config.label r.Pipeline.br_config))
        true (r.Pipeline.br_cpi_error < 0.25))
    fli.Pipeline.fli_binaries;
  List.iter
    (fun (r : Pipeline.binary_result) ->
      Tutil.check_bool
        (Printf.sprintf "vli %s cpi error < 25%%" (Config.label r.Pipeline.br_config))
        true (r.Pipeline.br_cpi_error < 0.25))
    vli.Pipeline.vli_binaries

let test_vli_truth_independent_of_method () =
  (* FLI and VLI measure the same ground truth for each binary *)
  let fli, vli = run_both (Tutil.two_phase_program ()) in
  List.iter2
    (fun (a : Pipeline.binary_result) (b : Pipeline.binary_result) ->
      Tutil.check_int "same true insts" a.Pipeline.br_truth.Pipeline.t_insts
        b.Pipeline.br_truth.Pipeline.t_insts;
      Tutil.check_close ~eps:1e-6 "same true cycles"
        a.Pipeline.br_truth.Pipeline.t_cycles b.Pipeline.br_truth.Pipeline.t_cycles)
    fli.Pipeline.fli_binaries vli.Pipeline.vli_binaries

let test_primary_choice () =
  let program = Tutil.two_phase_program () in
  List.iter
    (fun primary ->
      let vli = Pipeline.run_vli ~primary program ~configs ~input ~target in
      Tutil.check_int "primary recorded" primary vli.Pipeline.vli_primary;
      List.iter check_binary_result vli.Pipeline.vli_binaries)
    [ 0; 1; 2; 3 ]

let test_invalid_primary () =
  let program = Tutil.two_phase_program () in
  Alcotest.check_raises "primary out of range"
    (Invalid_argument "Pipeline.run_vli: bad primary") (fun () ->
      ignore (Pipeline.run_vli ~primary:7 program ~configs ~input ~target))

let test_empty_configs () =
  let program = Tutil.two_phase_program () in
  Alcotest.check_raises "no configs fli"
    (Invalid_argument "Pipeline.run_fli: no configs") (fun () ->
      ignore (Pipeline.run_fli program ~configs:[] ~input ~target));
  Alcotest.check_raises "no configs vli"
    (Invalid_argument "Pipeline.run_vli: no configs") (fun () ->
      ignore (Pipeline.run_vli program ~configs:[] ~input ~target));
  (* A non-positive target is the caller's error, named after the call,
     and found before a single binary compiles. *)
  let engine = Pipeline.create_engine () in
  List.iter
    (fun (name, run) ->
      Alcotest.check_raises (name ^ " at target 0")
        (Invalid_argument ("Pipeline." ^ name ^ ": target must be positive"))
        run)
    [ ( "run_fli",
        fun () ->
          ignore (Pipeline.run_fli ~engine program ~configs ~input ~target:0) );
      ( "run_vli",
        fun () ->
          ignore (Pipeline.run_vli ~engine program ~configs ~input ~target:0) );
      ( "run_sampling",
        fun () ->
          ignore
            (Pipeline.run_sampling ~engine program ~configs ~input ~target:0
               ~n:8) ) ];
  Tutil.check_bool "nothing compiled" true
    (Pipeline.compile_stats engine = (0, 0))

let test_split_program_large_intervals () =
  (* mapping failure inflates VLI intervals far beyond the target *)
  let program = Tutil.splittable_program () in
  let vli =
    Pipeline.run_vli program
      ~configs:(Tutil.paper_configs ~loop_splitting:true ())
      ~input ~target:5_000
  in
  let primary_result = List.hd vli.Pipeline.vli_binaries in
  Tutil.check_bool "avg interval >> target" true
    (primary_result.Pipeline.br_avg_interval > 3.0 *. 5_000.0)

let test_metrics_extrapolated () =
  let _, vli = run_both (Tutil.two_phase_program ()) in
  List.iter
    (fun (r : Pipeline.binary_result) ->
      Tutil.check_bool "metrics present" true (Array.length r.Pipeline.br_metrics > 0);
      Array.iter
        (fun (m : Pipeline.metric) ->
          Tutil.check_bool (m.Pipeline.m_name ^ " true finite") true
            (Float.is_finite m.Pipeline.m_true_pki && m.Pipeline.m_true_pki >= 0.0);
          (* extrapolated rates should track the truth loosely *)
          if m.Pipeline.m_true_pki > 1.0 then
            Tutil.check_bool (m.Pipeline.m_name ^ " est within 50%") true
              (Float.abs (m.Pipeline.m_est_pki -. m.Pipeline.m_true_pki)
               /. m.Pipeline.m_true_pki
               < 0.5))
        r.Pipeline.br_metrics;
      (* dram accesses cannot exceed L1 misses pki *)
      let find name =
        Array.to_list r.Pipeline.br_metrics
        |> List.find (fun m -> m.Pipeline.m_name = name)
      in
      let l1 = find "FLC(L1D)_misses" and dram = find "dram_accesses" in
      Tutil.check_bool "dram <= l1 misses" true
        (dram.Pipeline.m_true_pki <= l1.Pipeline.m_true_pki +. 1e-9))
    vli.Pipeline.vli_binaries

let test_vli_points_wellformed () =
  let _, vli = run_both (Tutil.two_phase_program ()) in
  let pts = vli.Pipeline.vli_points in
  Tutil.check_int "labels = boundaries + 1"
    (Array.length pts.Pipeline.pt_boundaries + 1)
    (Array.length pts.Pipeline.pt_phase_of);
  Array.iteri
    (fun phase rep ->
      Tutil.check_int "rep labelled with phase" phase
        pts.Pipeline.pt_phase_of.(rep))
    pts.Pipeline.pt_reps;
  Tutil.check_int "target recorded" target pts.Pipeline.pt_target

let test_find_binary () =
  let fli, _ = run_both (Tutil.two_phase_program ()) in
  let r = Pipeline.find_binary fli.Pipeline.fli_binaries ~label:"64o" in
  Alcotest.(check string) "found the right one" "64o"
    (Config.label r.Pipeline.br_config);
  Tutil.check_bool "unknown label raises" true
    (match Pipeline.find_binary fli.Pipeline.fli_binaries ~label:"zz" with
     | (_ : Pipeline.binary_result) -> false
     | exception Not_found -> true)

let test_replay_wrong_program () =
  (* Points chosen for one program cannot replay on a binary of another:
     either the run ends before every boundary is met (the follower's
     failure) or the interval counts disagree (replay's own check). *)
  let vli =
    Pipeline.run_vli (Tutil.two_phase_program ()) ~configs ~input ~target
  in
  let other =
    Lower.compile (Tutil.single_loop_program ()) (List.hd configs)
  in
  Tutil.check_bool "mismatched program fails" true
    (match Pipeline.replay other ~input vli.Pipeline.vli_points with
     | (_ : Pipeline.binary_result) -> false
     | exception Invalid_argument _ -> true)

let test_replay_wrong_input () =
  (* Same program, different input: boundary counts no longer line up. *)
  let vli =
    Pipeline.run_vli (Tutil.two_phase_program ()) ~configs ~input ~target
  in
  let binary = Lower.compile (Tutil.two_phase_program ()) (List.hd configs) in
  let other_input = Input.make ~name:"other" ~seed:99 ~scale:3 () in
  Tutil.check_bool "mismatched input fails" true
    (match Pipeline.replay binary ~input:other_input vli.Pipeline.vli_points with
     | (_ : Pipeline.binary_result) -> false
     | exception Invalid_argument _ -> true)

let test_replay_tampered_points () =
  (* A points file whose phase table disagrees with its boundaries (e.g.
     hand-edited) is rejected by replay's interval-count check. *)
  let vli =
    Pipeline.run_vli (Tutil.two_phase_program ()) ~configs ~input ~target
  in
  let pts = vli.Pipeline.vli_points in
  let tampered =
    { pts with
      Pipeline.pt_phase_of =
        Array.sub pts.Pipeline.pt_phase_of 0
          (Array.length pts.Pipeline.pt_phase_of - 1) }
  in
  let binary = Lower.compile (Tutil.two_phase_program ()) (List.hd configs) in
  Tutil.check_bool "tampered points rejected with counts" true
    (match Pipeline.replay binary ~input tampered with
     | (_ : Pipeline.binary_result) -> false
     | exception Invalid_argument msg ->
       (* The message must carry both the replayed interval count and the
          phase-label count so the mismatch is diagnosable. *)
       let has sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has "Pipeline.replay" && has "intervals" && has "phase labels")

let test_find_binary_unknown_label () =
  let fli = Pipeline.run_fli (Tutil.two_phase_program ()) ~configs ~input ~target in
  List.iter
    (fun label ->
      Tutil.check_bool (Printf.sprintf "label %S raises Not_found" label) true
        (match Pipeline.find_binary fli.Pipeline.fli_binaries ~label with
         | (_ : Pipeline.binary_result) -> false
         | exception Not_found -> true))
    [ "64O"; "32"; ""; "x86" ];
  Tutil.check_bool "empty result list raises Not_found" true
    (match Pipeline.find_binary [] ~label:"32u" with
     | (_ : Pipeline.binary_result) -> false
     | exception Not_found -> true)

let test_deterministic_pipelines () =
  let program = Tutil.two_phase_program () in
  let fli1 = Pipeline.run_fli program ~configs ~input ~target in
  let fli2 = Pipeline.run_fli program ~configs ~input ~target in
  List.iter2
    (fun (a : Pipeline.binary_result) (b : Pipeline.binary_result) ->
      Tutil.check_close ~eps:1e-12 "same estimate across runs"
        a.Pipeline.br_est_cpi b.Pipeline.br_est_cpi)
    fli1.Pipeline.fli_binaries fli2.Pipeline.fli_binaries

(* The reference the streaming passes replaced: [observe]'s copying
   reader keeps every interval, BBV included, and the live intervals are
   clustered from those BBVs with [Simpoint_ref.pick].  Returns the truth,
   the intervals, the boundaries cut, and the phase labels and
   representatives over the full interval numbering. *)
let materialized binary ~sp_config ~observe =
  let module Cpu = Cbsp_cache.Cpu in
  let module Simpoint = Cbsp_simpoint.Simpoint in
  let cpu = Cpu.create () in
  let iobs, read =
    observe
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
  in
  let totals =
    Cbsp_exec.Executor.run binary input
      (Cbsp_exec.Executor.compose [ iobs; Cpu.observer cpu ])
  in
  let (intervals : Interval.interval array), boundaries = read () in
  let live =
    List.filter
      (fun i -> intervals.(i).Interval.insts > 0)
      (List.init (Array.length intervals) Fun.id)
  in
  let sp =
    Simpoint_ref.pick ~config:sp_config
      ~weights:
        (Array.of_list
           (List.map (fun i -> float_of_int intervals.(i).Interval.insts) live))
      ~bbvs:(Array.of_list (List.map (fun i -> intervals.(i).Interval.bbv) live))
      ()
  in
  (* Live intervals take their cluster's phase; empty ones inherit the
     previous live interval's. *)
  let phase_of = Array.make (Array.length intervals) 0 in
  List.iteri (fun j i -> phase_of.(i) <- sp.Simpoint.phase_of.(j)) live;
  Array.iteri
    (fun i (iv : Interval.interval) ->
      if i > 0 && iv.Interval.insts = 0 then phase_of.(i) <- phase_of.(i - 1))
    intervals;
  ( (totals.Cbsp_exec.Executor.insts, Cpu.cycles cpu),
    intervals,
    boundaries,
    phase_of,
    Array.map
      (fun (p : Simpoint.sim_point) -> List.nth live p.Simpoint.rep)
      sp.Simpoint.points )

let fixed_observer binary ~target ~cycles ~extras =
  let obs, read =
    Interval_ref.fli_observer ~n_blocks:binary.Binary.n_blocks ~target ~cycles
      ~extras ()
  in
  (obs, fun () -> (read (), [||]))

let bits v = Marshal.to_string v [ Marshal.No_sharing ]

(* Every field a pass's consumers read, bit for bit, against the
   reference, with the phases and representatives of the clustering
   step over it; the [Fixed]-only sampler features are checked by the
   caller. *)
let check_pass ~where (pass : Pipeline.pass) (cl : Pipeline.clustering)
    ((insts, cycles), intervals, boundaries, phase_of, reps) =
  let check what a b =
    Tutil.check_bool (where ^ ": " ^ what) true (bits a = bits b)
  in
  let stats = pass.Pipeline.ps_stats in
  let column f = Array.map f intervals in
  check "truth insts" insts pass.Pipeline.ps_truth.Pipeline.t_insts;
  check "truth cycles" cycles pass.Pipeline.ps_truth.Pipeline.t_cycles;
  check "interval insts" (column (fun iv -> iv.Interval.insts))
    stats.Cbsp.Streamprof.st_insts;
  check "interval cycles" (column (fun iv -> iv.Interval.cycles))
    stats.Cbsp.Streamprof.st_cycles;
  check "interval extras"
    (Array.concat (Array.to_list (column (fun iv -> iv.Interval.extras))))
    stats.Cbsp.Streamprof.st_extras;
  check "boundaries" boundaries pass.Pipeline.ps_boundaries;
  check "phase labels" phase_of cl.Pipeline.cl_phase_of;
  check "representatives" reps cl.Pipeline.cl_reps

(* The shared [Fixed] pass against the computation it replaced in FLI
   and [run_sampling]: the copied-out intervals, the phase-1 features
   derived with the array functions of [Strata], and the clustering. *)
let test_fixed_pass_equals_materialized () =
  let sp_config = Cbsp_simpoint.Simpoint.default_config in
  let registry name =
    let entry = Registry.find name in
    ( name, entry.Registry.build (),
      Config.paper_four ~loop_splitting:entry.Registry.loop_splitting () )
  in
  List.iter
    (fun (name, program, configs) ->
      let engine = Pipeline.create_engine () in
      List.iter
        (fun config ->
          let binary = Lower.compile program config in
          let where = name ^ "/" ^ Config.label config in
          let plan = Pipeline.Fixed 10_000 in
          let pass =
            Pipeline.collect engine program binary ~label:where ~sp_config
              ~input plan
          in
          let ((_, intervals, _, _, _) as reference) =
            materialized binary ~sp_config
              ~observe:(fixed_observer binary ~target:10_000)
          in
          check_pass ~where pass
            (Pipeline.clustering engine program binary ~label:where
               ~sp_config ~input plan)
            reference;
          let bbvs = Array.map (fun iv -> iv.Interval.bbv) intervals in
          let module Strata = Cbsp_sampling.Strata in
          Tutil.check_bool (where ^ ": access mix") true
            (bits (Array.map (Strata.access_mix_of binary) bbvs)
            = bits pass.Pipeline.ps_mix))
        configs)
    (("two-phase", Tutil.two_phase_program (), configs)
    :: List.map registry [ "gcc"; "mcf"; "applu"; "swim" ])

(* The VLI primary's [Recorded] pass against the reference recorder over
   the whole workload registry: the pass [run_vli] used (a pass-store
   hit) is bit-identical to copying out every interval and clustering
   the BBVs.  Followers run the same [Replayed] pass either way and
   [summarize] is shared, so equal primaries mean equal results. *)
let test_recorded_pass_equals_materialized_registry () =
  let sp_config = Cbsp_simpoint.Simpoint.default_config in
  let target = 10_000 in
  List.iter
    (fun (entry : Registry.entry) ->
      let name = entry.Registry.name in
      let program = entry.Registry.build () in
      let configs =
        Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
      in
      let engine = Pipeline.create_engine () in
      let vli = Pipeline.run_vli ~engine program ~configs ~input ~target in
      let primary = Lower.compile program (List.hd configs) in
      let keys =
        List.filter
          (Cbsp.Matching.is_mappable vli.Pipeline.vli_mappable)
          (Binary.static_marker_keys primary)
      in
      let collected = Cbsp_engine.Store.computes engine.Pipeline.eng_passes in
      let clustered =
        Cbsp_engine.Store.computes engine.Pipeline.eng_clusterings
      in
      let plan = Pipeline.Recorded (target, keys) in
      let pass =
        Pipeline.collect engine program primary ~label:name ~sp_config ~input
          plan
      in
      let cl =
        Pipeline.clustering engine program primary ~label:name ~sp_config
          ~input plan
      in
      Tutil.check_int (name ^ ": the pass run_vli collected") collected
        (Cbsp_engine.Store.computes engine.Pipeline.eng_passes);
      Tutil.check_int (name ^ ": the clustering run_vli made") clustered
        (Cbsp_engine.Store.computes engine.Pipeline.eng_clusterings);
      let cut = Marker.Set.of_list keys in
      let ((_, _, boundaries, _, _) as reference) =
        materialized primary ~sp_config ~observe:(fun ~cycles ~extras ->
            Interval_ref.vli_recorder ~n_blocks:primary.Binary.n_blocks ~target
              ~mappable:(fun key -> Marker.Set.mem key cut)
              ~cycles ~extras ())
      in
      check_pass ~where:name pass cl reference;
      Tutil.check_bool (name ^ ": points boundaries") true
        (bits boundaries = bits vli.Pipeline.vli_points.Pipeline.pt_boundaries))
    Registry.all

(* SimPoint settings other than the projection are not part of a pass:
   after the default FLI and VLI runs, runs that change only max-k, the
   representative policy or the k search recluster the same passes and
   execute nothing.  Each is bit-identical to the same run on a fresh
   engine, so sharing the engine cannot change a result.  A new
   projection seed collects its own passes. *)
let test_simpoint_settings_share_passes () =
  let module Simpoint = Cbsp_simpoint.Simpoint in
  let program = Tutil.two_phase_program () in
  let engine = Pipeline.create_engine () in
  let both ?engine sp_config =
    ( Pipeline.run_fli ?engine ~sp_config program ~configs ~input ~target,
      Pipeline.run_vli ?engine ~sp_config program ~configs ~input ~target )
  in
  ignore (both ~engine Simpoint.default_config);
  let passes = Cbsp_engine.Store.computes engine.Pipeline.eng_passes in
  List.iter
    (fun (where, sp_config) ->
      let shared = both ~engine sp_config in
      Tutil.check_int (where ^ ": no new pass") passes
        (Cbsp_engine.Store.computes engine.Pipeline.eng_passes);
      Tutil.check_bool (where ^ ": equals a fresh engine") true
        (bits shared = bits (both sp_config)))
    Simpoint.
      [ ("max-k 5", { default_config with max_k = 5 });
        ("max-k 20", { default_config with max_k = 20 });
        ("early 0.05", { default_config with rep_policy = Early 0.05 });
        ("binary search", { default_config with k_search = Binary_search }) ];
  (* The projection seed does shape the points: it must not share. *)
  ignore (both ~engine { Simpoint.default_config with seed = 7 });
  Tutil.check_bool "projection seed collects again" true
    (Cbsp_engine.Store.computes engine.Pipeline.eng_passes > passes)

(* O(1 interval) memory: a streaming pass's full-width BBV buffers are
   the builder's accumulator plus the collector's chunked projection
   rows — a fixed count whatever the run length — tracked by the
   [profile.scratch_intervals] gauge the CI validate-smoke job budgets.
   The copying reference keeps every BBV, and the gauge shows it. *)
let test_streaming_scratch_gauge () =
  Cbsp_obs.Metrics.reset ();
  let streaming_peak = Cbsp.Streamprof.chunk_size + 1 in
  let gauge = Cbsp_obs.Metrics.gauge "profile.scratch_intervals" in
  ignore
    (Pipeline.run_vli (Tutil.two_phase_program ()) ~configs ~input ~target);
  Tutil.check_int "streaming VLI scratch peak" streaming_peak
    (Cbsp_obs.Metrics.gauge_value gauge);
  let binary = Lower.compile (Tutil.two_phase_program ()) (List.hd configs) in
  ignore
    (materialized binary ~sp_config:Cbsp_simpoint.Simpoint.default_config
       ~observe:(fixed_observer binary ~target));
  Tutil.check_bool "materialized peak grows with run length" true
    (Cbsp_obs.Metrics.gauge_value gauge > streaming_peak)

(* --- one run per binary ------------------------------------------------ *)

let collections engine =
  List.filter
    (fun (r : Cbsp_engine.Timing.record) ->
      r.Cbsp_engine.Timing.tr_stage = Cbsp_engine.Stage.Interval_collection)
    (Pipeline.timings engine)

(* A run that serves several plans gives each the pass a run of its own
   would: two fixed-length plans, a recording and a replay of another
   binary's recording share one execution of a random program's binary,
   and each stored pass is bit-identical to that plan's solo pass. *)
let prop_shared_run_equals_solo =
  let sp_config = Cbsp_simpoint.Simpoint.default_config in
  QCheck.Test.make ~name:"one shared run = one run per plan" ~count:15
    (QCheck.make Genprog.plan_gen) (fun gplan ->
      let program = Genprog.build_program gplan in
      let binaries =
        Tutil.compile_all ~loop_splitting:gplan.Genprog.splitting program
      in
      let profiles =
        List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
      in
      let mappable = Cbsp.Matching.find ~binaries ~profiles () in
      let keys b =
        List.filter (Cbsp.Matching.is_mappable mappable)
          (Binary.static_marker_keys b)
      in
      let solo binary plan =
        Pipeline.collect (Pipeline.create_engine ()) program binary
          ~label:"solo" ~sp_config ~input plan
      in
      let primary = List.hd binaries and binary = List.nth binaries 3 in
      let recorded = solo primary (Pipeline.Recorded (2_000, keys primary)) in
      let plans =
        Pipeline.
          [ Fixed 1_000; Fixed 3_000; Recorded (2_000, keys binary);
            Replayed recorded.ps_boundaries ]
      in
      let engine = Pipeline.create_engine () in
      Pipeline.collect_shared engine program binary ~sp_config ~input
        (List.map (fun plan -> ("t", plan)) plans);
      Cbsp_engine.Store.computes engine.Pipeline.eng_passes = 4
      && List.for_all
           (fun plan ->
             bits
               (Pipeline.collect engine program binary ~label:"shared"
                  ~sp_config ~input plan)
             = bits (solo binary plan))
           plans
      (* one run, and reading the passes back ran nothing *)
      && List.length (collections engine) = 1)

(* A plan that fails in a shared run fails alone: an unreachable replay
   riding with a fixed-length plan raises the follower's own message,
   while the fixed-length pass is stored and FLI over it equals a fresh
   engine's FLI. *)
let test_shared_run_failure_isolated () =
  let sp_config = Cbsp_simpoint.Simpoint.default_config in
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (List.hd configs) in
  let unreachable =
    Pipeline.Replayed
      [| { Interval.bd_key = List.hd (Binary.static_marker_keys binary);
           bd_count = max_int } |]
  in
  let engine = Pipeline.create_engine () in
  Pipeline.collect_shared engine program binary ~sp_config ~input
    [ ("fli", Pipeline.Fixed target); ("vli", unreachable) ];
  let stored = Cbsp_engine.Store.computes engine.Pipeline.eng_passes in
  (match
     Pipeline.collect engine program binary ~label:"t" ~sp_config ~input
       unreachable
   with
  | _ -> Alcotest.fail "an unreachable replay succeeded"
  | exception Invalid_argument msg ->
    Tutil.check_bool ("follower's message: " ^ msg) true
      (String.starts_with ~prefix:"Interval.vli_follower_stream:" msg));
  ignore
    (Pipeline.collect engine program binary ~label:"t" ~sp_config ~input
       (Pipeline.Fixed target)
      : Pipeline.pass);
  Tutil.check_int "fixed pass stored, failure not rerun" stored
    (Cbsp_engine.Store.computes engine.Pipeline.eng_passes);
  Tutil.check_bool "fli equals a solo run" true
    (bits (Pipeline.run_fli ~engine program ~configs ~input ~target)
    = bits (Pipeline.run_fli program ~configs ~input ~target))

(* An estimator that fails in a batch fails alone: every other outcome
   is what its own batch gives, and the batch still runs each binary
   once. *)
let test_batch_isolation () =
  let program = Tutil.two_phase_program () in
  let est =
    Pipeline.
      [ Any Fli;
        Any (Vli { matching = Dynamic; primary = 7; match_options = None });
        Any (Vli { matching = Dynamic; primary = 0; match_options = None });
        Any (Sampling { level = 0.95; seeds = [ 2007 ]; n = 8 }) ]
  in
  let outputs outcomes =
    List.map
      (function
        | Ok (Pipeline.Output (e, r)) -> Ok (bits (Pipeline.records e r))
        | Error exn -> Error (Printexc.to_string exn))
      outcomes
  in
  let alone =
    outputs
      (List.concat_map
         (fun e -> Pipeline.run_batch [ e ] program ~configs ~input ~target)
         est)
  in
  (match alone with
  | [ Ok _; Error bad; Ok _; Ok _ ] ->
    Alcotest.(check string) "bad primary" 
      (Printexc.to_string (Invalid_argument "Pipeline.run_vli: bad primary"))
      bad
  | _ -> Alcotest.fail "want exactly the bad primary to fail");
  let engine = Pipeline.create_engine () in
  let together =
    outputs (Pipeline.run_batch ~engine est program ~configs ~input ~target)
  in
  Tutil.check_bool "batch = one batch per estimator" true (together = alone);
  Tutil.check_int "one run per binary" (List.length configs)
    (List.length (collections engine))

(* The sampling estimator scores exactly four samplers, and its result
   names no other method. *)
let test_sampling_methods () =
  let est =
    Pipeline.Sampling { Pipeline.level = 0.95; seeds = [ 2007 ]; n = 8 }
  in
  let four = [ "srs"; "systematic"; "strat-phase"; "strat-mix" ] in
  Alcotest.(check (list string)) "sampling names" four
    (Pipeline.names (Pipeline.Any est));
  let records =
    Pipeline.records est
      (Pipeline.run est (Tutil.two_phase_program ()) ~configs ~input ~target)
  in
  Alcotest.(check (list string)) "record methods" (List.sort compare four)
    (List.sort_uniq compare (List.map (fun r -> r.Pipeline.er_method) records));
  Tutil.check_int "records" (List.length configs * 4) (List.length records)

let () =
  Alcotest.run "pipeline"
    [ ( "structure",
        [ Tutil.quick "fli shape" test_fli_shape;
          Tutil.quick "vli shape" test_vli_shape;
          Tutil.quick "truth shared" test_vli_truth_independent_of_method;
          Tutil.quick "find binary" test_find_binary;
          Tutil.quick "deterministic" test_deterministic_pipelines;
          Tutil.quick "sampling methods" test_sampling_methods ] );
      ( "behaviour",
        [ Tutil.quick "estimates accurate" test_estimates_accurate;
          Tutil.quick "metrics extrapolated" test_metrics_extrapolated;
          Tutil.quick "points wellformed" test_vli_points_wellformed;
          Tutil.quick "primary choice" test_primary_choice;
          Tutil.quick "split inflates intervals" test_split_program_large_intervals ] );
      ( "streaming",
        [ Tutil.quick "vli registry differential"
            test_recorded_pass_equals_materialized_registry;
          Tutil.quick "fixed pass = materialized"
            test_fixed_pass_equals_materialized;
          Tutil.quick "simpoint settings share passes"
            test_simpoint_settings_share_passes;
          Tutil.quick "scratch gauge" test_streaming_scratch_gauge ] );
      ( "batch",
        [ Tutil.qcheck_case prop_shared_run_equals_solo;
          Tutil.quick "shared run failure isolated"
            test_shared_run_failure_isolated;
          Tutil.quick "estimator failure isolated" test_batch_isolation ] );
      ( "validation",
        [ Tutil.quick "invalid primary" test_invalid_primary;
          Tutil.quick "empty configs" test_empty_configs;
          Tutil.quick "replay wrong program" test_replay_wrong_program;
          Tutil.quick "replay wrong input" test_replay_wrong_input;
          Tutil.quick "replay tampered points" test_replay_tampered_points;
          Tutil.quick "find_binary unknown labels" test_find_binary_unknown_label ] ) ]
