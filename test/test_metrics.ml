module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp.Metrics
module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa

let mk ~label ~cycles ~insts ~est_cpi phases =
  let config =
    match label with
    | "32u" -> Config.v Isa.X86_32 Config.O0
    | "32o" -> Config.v Isa.X86_32 Config.O2
    | "64u" -> Config.v Isa.X86_64 Config.O0
    | _ -> Config.v Isa.X86_64 Config.O2
  in
  { Pipeline.br_config = config;
    br_truth =
      { Pipeline.t_insts = insts; t_cycles = cycles;
        t_cpi = cycles /. float_of_int insts };
    br_est_cpi = est_cpi;
    br_est_cycles = est_cpi *. float_of_int insts;
    br_cpi_error = 0.0; br_n_points = Array.length phases;
    br_n_intervals = 10; br_avg_interval = 1000.0; br_phases = phases;
    br_metrics = [||] }

let test_true_speedup () =
  let a = mk ~label:"32u" ~cycles:200.0 ~insts:100 ~est_cpi:2.0 [||] in
  let b = mk ~label:"32o" ~cycles:100.0 ~insts:50 ~est_cpi:2.0 [||] in
  Tutil.check_close ~eps:1e-9 "speedup 2x" 2.0 (Metrics.true_speedup a b)

let test_estimated_speedup () =
  let a = mk ~label:"32u" ~cycles:200.0 ~insts:100 ~est_cpi:2.2 [||] in
  let b = mk ~label:"32o" ~cycles:100.0 ~insts:50 ~est_cpi:2.0 [||] in
  (* est cycles: 220 vs 100 *)
  Tutil.check_close ~eps:1e-9 "estimated" 2.2 (Metrics.estimated_speedup a b)

let test_speedup_error () =
  let a = mk ~label:"32u" ~cycles:200.0 ~insts:100 ~est_cpi:2.2 [||] in
  let b = mk ~label:"32o" ~cycles:100.0 ~insts:50 ~est_cpi:2.0 [||] in
  (* true 2.0, est 2.2 -> 10% *)
  Tutil.check_close ~eps:1e-9 "10% error" 0.1 (Metrics.speedup_error a b)

let test_consistent_bias_cancels () =
  (* both binaries overestimated by the same factor: speedup error 0 *)
  let a = mk ~label:"32u" ~cycles:200.0 ~insts:100 ~est_cpi:2.4 [||] in
  let b = mk ~label:"32o" ~cycles:100.0 ~insts:50 ~est_cpi:2.4 [||] in
  Tutil.check_close ~eps:1e-9 "consistent bias cancels" 0.0
    (Metrics.speedup_error a b)

let test_pair_error () =
  let rs =
    [ mk ~label:"32u" ~cycles:200.0 ~insts:100 ~est_cpi:2.0 [||];
      mk ~label:"32o" ~cycles:100.0 ~insts:50 ~est_cpi:2.1 [||] ]
  in
  Tutil.check_close ~eps:1e-9 "pair error"
    (Float.abs (2.0 -. (200.0 /. 105.0)) /. 2.0)
    (Metrics.pair_error rs ~a:"32u" ~b:"32o")

let test_phase_bias () =
  let ph = { Pipeline.ph_id = 0; ph_weight = 0.5; ph_true_cpi = 2.0; ph_sp_cpi = 2.2 } in
  Tutil.check_close ~eps:1e-9 "positive bias" 0.1 (Metrics.phase_bias ph);
  let ph = { ph with Pipeline.ph_sp_cpi = 1.8 } in
  Tutil.check_close ~eps:1e-9 "negative bias" (-0.1) (Metrics.phase_bias ph);
  let empty = { ph with Pipeline.ph_true_cpi = 0.0 } in
  Tutil.check_float "empty phase bias 0" 0.0 (Metrics.phase_bias empty)

let test_top_phases () =
  let phases =
    [| { Pipeline.ph_id = 0; ph_weight = 0.2; ph_true_cpi = 1.0; ph_sp_cpi = 1.0 };
       { Pipeline.ph_id = 1; ph_weight = 0.5; ph_true_cpi = 1.0; ph_sp_cpi = 1.0 };
       { Pipeline.ph_id = 2; ph_weight = 0.3; ph_true_cpi = 1.0; ph_sp_cpi = 1.0 } |]
  in
  let r = mk ~label:"32u" ~cycles:100.0 ~insts:100 ~est_cpi:1.0 phases in
  let top = Metrics.top_phases r ~n:2 in
  Alcotest.(check (list int)) "heaviest first" [ 1; 2 ]
    (List.map (fun p -> p.Pipeline.ph_id) top);
  Tutil.check_int "n larger than phases is fine" 3
    (List.length (Metrics.top_phases r ~n:10))

let test_zero_cycles_rejected () =
  let a = mk ~label:"32u" ~cycles:100.0 ~insts:100 ~est_cpi:1.0 [||] in
  let b = mk ~label:"32o" ~cycles:100.0 ~insts:100 ~est_cpi:1.0 [||] in
  let broken = { b with Pipeline.br_truth = { b.Pipeline.br_truth with Pipeline.t_cycles = 0.0 } } in
  (* Total, like every numeric function: nan, never a throw. *)
  Tutil.check_bool "zero cycles -> nan speedup" true
    (Float.is_nan (Metrics.true_speedup a broken));
  Tutil.check_bool "zero cycles -> nan error" true
    (Float.is_nan (Metrics.speedup_error a broken));
  Tutil.check_bool "ratio nan on zero denominator" true
    (Float.is_nan (Metrics.ratio 1.0 0.0))

let () =
  Alcotest.run "metrics"
    [ ( "speedup",
        [ Tutil.quick "true speedup" test_true_speedup;
          Tutil.quick "estimated speedup" test_estimated_speedup;
          Tutil.quick "speedup error" test_speedup_error;
          Tutil.quick "consistent bias cancels" test_consistent_bias_cancels;
          Tutil.quick "pair error" test_pair_error;
          Tutil.quick "zero cycles rejected" test_zero_cycles_rejected ] );
      ( "phases",
        [ Tutil.quick "phase bias" test_phase_bias;
          Tutil.quick "top phases" test_top_phases ] ) ]
