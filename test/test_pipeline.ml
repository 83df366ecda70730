module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Config = Cbsp_compiler.Config
module Stats = Cbsp_util.Stats
module Lower = Cbsp_compiler.Lower
module Input = Cbsp_source.Input

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
      ignore (Pipeline.run_vli program ~configs:[] ~input ~target))

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

(* The streaming refactor's contract: [?materialize] flips only the
   memory regime.  Differential over the WHOLE workload registry —
   every field of every workload's VLI result (boundaries, phase
   labels, representatives, weights, CPIs, extrapolated metrics) must
   be structurally identical between the streaming default and the
   materialized reference, which compares every float bit for bit. *)
let test_streaming_equals_materialized_registry () =
  List.iter
    (fun (entry : Cbsp_workloads.Registry.entry) ->
      let program = entry.Cbsp_workloads.Registry.build () in
      let configs =
        Config.paper_four
          ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ()
      in
      let streamed = Pipeline.run_vli program ~configs ~input ~target:10_000 in
      let materialized =
        Pipeline.run_vli ~materialize:true program ~configs ~input
          ~target:10_000
      in
      Tutil.check_bool
        (entry.Cbsp_workloads.Registry.name ^ ": vli streaming = materialized")
        true
        (streamed = materialized))
    Cbsp_workloads.Registry.all

let test_streaming_equals_materialized_fli () =
  let program = Tutil.two_phase_program () in
  let streamed = Pipeline.run_fli program ~configs ~input ~target in
  let materialized =
    Pipeline.run_fli ~materialize:true program ~configs ~input ~target
  in
  Tutil.check_bool "fli streaming = materialized" true
    (streamed = materialized)

(* The shared [Fixed] pass against the computation it replaced in
   [run_sampling]: materialize every interval with [fli_observer], derive
   the phase-1 features with the array functions of [Strata], and
   cluster the live intervals.  This oracle is that computation. *)
let materialized_fixed binary ~target ~sp_config =
  let module Cpu = Cbsp_cache.Cpu in
  let module Interval = Cbsp_profile.Interval in
  let module Simpoint = Cbsp_simpoint.Simpoint in
  let module Strata = Cbsp_sampling.Strata in
  let cpu = Cpu.create () in
  let iobs, read =
    Interval.fli_observer ~n_blocks:binary.Cbsp_compiler.Binary.n_blocks
      ~target
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
      ()
  in
  let totals =
    Cbsp_exec.Executor.run binary input
      (Cbsp_exec.Executor.compose [ iobs; Cpu.observer cpu ])
  in
  let intervals = read () in
  let bbvs = Array.map (fun (iv : Interval.interval) -> iv.Interval.bbv) intervals in
  let llc_bytes =
    match List.rev Cbsp_cache.Hierarchy.paper_table1.Cbsp_cache.Hierarchy.levels with
    | last :: _ -> last.Cbsp_cache.Hierarchy.lv_capacity
    | [] -> 0
  in
  let live =
    List.filter
      (fun i -> intervals.(i).Interval.insts > 0)
      (List.init (Array.length intervals) Fun.id)
  in
  let sp =
    Simpoint.pick ~config:sp_config
      ~weights:
        (Array.of_list
           (List.map (fun i -> float_of_int intervals.(i).Interval.insts) live))
      ~bbvs:(Array.of_list (List.map (fun i -> bbvs.(i)) live))
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
  ( totals.Cbsp_exec.Executor.insts,
    Cpu.cycles cpu,
    Array.map (fun (iv : Interval.interval) -> iv.Interval.insts) intervals,
    Array.map (fun (iv : Interval.interval) -> iv.Interval.cycles) intervals,
    Strata.access_mix binary ~bbvs,
    Strata.static_locality binary ~llc_bytes ~bbvs,
    phase_of,
    Array.map
      (fun (p : Simpoint.sim_point) -> List.nth live p.Simpoint.rep)
      sp.Simpoint.points )

let test_fixed_pass_equals_materialized () =
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let sp_config = Cbsp_simpoint.Simpoint.default_config in
  List.iter
    (fun name ->
      let entry = Cbsp_workloads.Registry.find name in
      let program = entry.Cbsp_workloads.Registry.build () in
      let engine = Pipeline.create_engine () in
      List.iter
        (fun config ->
          let binary = Lower.compile program config in
          let where = name ^ "/" ^ Config.label config in
          let pass =
            Pipeline.collect engine program binary ~label:where ~sp_config
              ~input (Pipeline.Fixed 10_000)
          in
          let insts, cycles, iv_insts, iv_cycles, mix, locality, phase_of, reps
              =
            materialized_fixed binary ~target:10_000 ~sp_config
          in
          let stats = pass.Pipeline.ps_stats in
          let check what a b =
            Tutil.check_bool (where ^ ": " ^ what) true (bits a = bits b)
          in
          check "truth insts" insts pass.Pipeline.ps_truth.Pipeline.t_insts;
          check "truth cycles" cycles pass.Pipeline.ps_truth.Pipeline.t_cycles;
          check "interval insts" iv_insts stats.Cbsp.Streamprof.st_insts;
          check "interval cycles" iv_cycles stats.Cbsp.Streamprof.st_cycles;
          check "access mix" mix pass.Pipeline.ps_mix;
          check "static strata" locality pass.Pipeline.ps_locality;
          match pass.Pipeline.ps_clustering with
          | None -> Alcotest.fail (where ^ ": fixed pass without clustering")
          | Some cl ->
            check "phase labels" phase_of cl.Pipeline.cl_phase_of;
            check "representatives" reps cl.Pipeline.cl_reps)
        (Config.paper_four
           ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ()))
    [ "gcc"; "mcf"; "applu"; "swim" ]

(* O(1 interval) memory: a streaming pass's full-width BBV buffers are
   the builder's accumulator plus the collector's chunked projection
   rows — a fixed count whatever the run length — tracked by the
   [profile.scratch_intervals] gauge the CI validate-smoke job budgets. *)
let test_streaming_scratch_gauge () =
  Cbsp_obs.Metrics.reset ();
  let streaming_peak = Cbsp.Streamprof.chunk_size + 1 in
  let gauge = Cbsp_obs.Metrics.gauge "profile.scratch_intervals" in
  ignore
    (Pipeline.run_vli (Tutil.two_phase_program ()) ~configs ~input ~target);
  Tutil.check_int "streaming VLI scratch peak" streaming_peak
    (Cbsp_obs.Metrics.gauge_value gauge);
  ignore
    (Pipeline.run_vli ~materialize:true (Tutil.two_phase_program ()) ~configs
       ~input ~target);
  Tutil.check_bool "materialized peak grows with run length" true
    (Cbsp_obs.Metrics.gauge_value gauge > streaming_peak)

let () =
  Alcotest.run "pipeline"
    [ ( "structure",
        [ Tutil.quick "fli shape" test_fli_shape;
          Tutil.quick "vli shape" test_vli_shape;
          Tutil.quick "truth shared" test_vli_truth_independent_of_method;
          Tutil.quick "find binary" test_find_binary;
          Tutil.quick "deterministic" test_deterministic_pipelines ] );
      ( "behaviour",
        [ Tutil.quick "estimates accurate" test_estimates_accurate;
          Tutil.quick "metrics extrapolated" test_metrics_extrapolated;
          Tutil.quick "points wellformed" test_vli_points_wellformed;
          Tutil.quick "primary choice" test_primary_choice;
          Tutil.quick "split inflates intervals" test_split_program_large_intervals ] );
      ( "streaming",
        [ Tutil.quick "vli registry differential"
            test_streaming_equals_materialized_registry;
          Tutil.quick "fli differential" test_streaming_equals_materialized_fli;
          Tutil.quick "fixed pass = materialized"
            test_fixed_pass_equals_materialized;
          Tutil.quick "scratch gauge" test_streaming_scratch_gauge ] );
      ( "validation",
        [ Tutil.quick "invalid primary" test_invalid_primary;
          Tutil.quick "empty configs" test_empty_configs;
          Tutil.quick "replay wrong program" test_replay_wrong_program;
          Tutil.quick "replay wrong input" test_replay_wrong_input;
          Tutil.quick "replay tampered points" test_replay_tampered_points;
          Tutil.quick "find_binary unknown labels" test_find_binary_unknown_label ] ) ]
