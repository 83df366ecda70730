(* The validation harness: cell arithmetic, skip-and-count aggregation,
   budget files and checking, the JSON reader/writer behind them, and
   the matrix's determinism/coverage guarantees. *)

module Pipeline = Cbsp.Pipeline
module Errors = Cbsp_validate.Errors
module Truth = Cbsp_validate.Truth
module Matrix = Cbsp_validate.Matrix
module Leaderboard = Cbsp_validate.Leaderboard
module Budgets = Cbsp_validate.Budgets
module Jsonx = Cbsp_json.Jsonx
module Sampler = Cbsp_sampling.Sampler
module Config = Cbsp_compiler.Config
module Stage = Cbsp_engine.Stage
module Timing = Cbsp_engine.Timing

(* --- synthetic estimate records ----------------------------------- *)

let truth_of ~insts ~cycles =
  { Pipeline.t_insts = insts; t_cycles = cycles;
    t_cpi = cycles /. float_of_int insts }

let record ?(method_ = "m") ?(label = "32u") ?(insts = 1000)
    ?(cycles = 2000.0) ?(est_cpi = 2.1) () =
  let truth = truth_of ~insts ~cycles in
  { Pipeline.er_method = method_; er_label = label; er_truth = truth;
    er_est_cpi = est_cpi;
    er_est_cycles = est_cpi *. float_of_int insts }

let test_cpi_cells () =
  let cells =
    Errors.cpi_cells ~workload:"w"
      [ record ~est_cpi:2.2 (); record ~label:"32o" ~est_cpi:2.0 () ]
  in
  Tutil.check_int "two cells" 2 (List.length cells);
  let c = List.hd cells in
  Tutil.check_close ~eps:1e-12 "error = |2.0-2.2|/2.0" 0.1 c.Errors.cl_error;
  Tutil.check_bool "not skipped" false (Errors.is_skipped c)

let test_cpi_cell_zero_truth_skipped () =
  (* A binary that executed nothing: truth CPI 0 -> nan error, skipped,
     never an exception. *)
  let r = record ~cycles:0.0 () in
  let r = { r with Pipeline.er_truth = truth_of ~insts:1000 ~cycles:0.0 } in
  match Errors.cpi_cells ~workload:"w" [ r ] with
  | [ c ] ->
    Tutil.check_bool "skipped" true (Errors.is_skipped c);
    Tutil.check_bool "error is nan" true (Float.is_nan c.Errors.cl_error)
  | _ -> Alcotest.fail "expected one cell"

let test_speedup_cells () =
  let records =
    [ record ~label:"32u" ~cycles:3000.0 ~est_cpi:3.1 ();
      record ~label:"32o" ~cycles:2000.0 ~est_cpi:2.0 () ]
  in
  match
    Errors.speedup_cells ~workload:"w" ~pairs:[ ("32u", "32o") ] records
  with
  | [ c ] ->
    Tutil.check_close ~eps:1e-12 "truth speedup" 1.5 c.Errors.cl_truth;
    Tutil.check_close ~eps:1e-12 "estimate speedup" (3.1 /. 2.0)
      c.Errors.cl_estimate;
    Tutil.check_bool "finite" false (Errors.is_skipped c)
  | _ -> Alcotest.fail "expected one cell"

let test_identical_pair_exact () =
  (* (a, a): truth and estimate are both x/x = 1.0 exactly, error 0.0
     exactly — no epsilon. *)
  let records = [ record ~label:"64o" ~cycles:7321.0 ~est_cpi:2.173 () ] in
  match
    Errors.speedup_cells ~workload:"w" ~pairs:[ ("64o", "64o") ] records
  with
  | [ c ] ->
    Alcotest.(check (float 0.0)) "truth exactly 1" 1.0 c.Errors.cl_truth;
    Alcotest.(check (float 0.0)) "estimate exactly 1" 1.0 c.Errors.cl_estimate;
    Alcotest.(check (float 0.0)) "error exactly 0" 0.0 c.Errors.cl_error
  | _ -> Alcotest.fail "expected one cell"

let test_speedup_missing_label_dropped () =
  let records = [ record ~label:"32u" () ] in
  Tutil.check_int "no cell without both labels" 0
    (List.length
       (Errors.speedup_cells ~workload:"w" ~pairs:[ ("32u", "32o") ] records))

let test_speedup_zero_denominator_skipped () =
  let a = record ~label:"32u" ~cycles:3000.0 () in
  let b = record ~label:"32o" ~cycles:0.0 ~est_cpi:0.0 () in
  let b = { b with Pipeline.er_truth = truth_of ~insts:1000 ~cycles:0.0 } in
  match Errors.speedup_cells ~workload:"w" ~pairs:[ ("32u", "32o") ] [ a; b ]
  with
  | [ c ] -> Tutil.check_bool "skipped" true (Errors.is_skipped c)
  | _ -> Alcotest.fail "expected one cell"

let test_truth_table_and_mismatches () =
  let ra = record ~method_:"fli" ~label:"32u" ~cycles:2000.0 () in
  let rb = record ~method_:"vli" ~label:"32u" ~cycles:2000.0 () in
  Tutil.check_int "one entry per label" 1
    (List.length (Truth.table [ ra; rb ]));
  Tutil.check_int "agreeing truths: no mismatch" 0
    (List.length (Truth.mismatches [ ra; rb ]));
  let rc = record ~method_:"vli" ~label:"32u" ~cycles:2001.0 () in
  match Truth.mismatches [ ra; rc ] with
  | [ (m, l) ] ->
    Alcotest.(check string) "method" "vli" m;
    Alcotest.(check string) "label" "32u" l
  | _ -> Alcotest.fail "expected one mismatch"

(* --- aggregation --------------------------------------------------- *)

let test_aggregate_skip_and_count () =
  let a = Leaderboard.aggregate [ 0.1; Float.nan; 0.3; Float.infinity ] in
  Tutil.check_int "finite cells" 2 a.Leaderboard.a_n;
  Tutil.check_int "skipped cells" 2 a.Leaderboard.a_skipped;
  Tutil.check_close ~eps:1e-12 "mean over finite only" 0.2 a.Leaderboard.a_mean;
  Tutil.check_close ~eps:1e-12 "max over finite only" 0.3 a.Leaderboard.a_max;
  Tutil.check_bool "ci present with n=2" true
    (Float.is_finite a.Leaderboard.a_ci_lo)

let test_aggregate_degenerate () =
  let empty = Leaderboard.aggregate [ Float.nan ] in
  Tutil.check_int "no finite cells" 0 empty.Leaderboard.a_n;
  Tutil.check_bool "mean nan" true (Float.is_nan empty.Leaderboard.a_mean);
  let single = Leaderboard.aggregate [ 0.25 ] in
  Tutil.check_close ~eps:1e-12 "single mean" 0.25 single.Leaderboard.a_mean;
  Tutil.check_bool "single: no CI" true
    (Float.is_nan single.Leaderboard.a_ci_lo)

(* --- budgets -------------------------------------------------------- *)

let budget_json ~vli_mean =
  Printf.sprintf
    {|{"schema":"cbsp-validate-budgets/1",
       "modes":{"full":{"vli":{"mean_cpi_error":%g}},
                "smoke":{"vli":{"mean_cpi_error":0.5}}}}|}
    vli_mean

let board_with_vli_mean matrix = Leaderboard.build matrix

let small_options =
  { Matrix.default_options with
    Matrix.mo_target = 8_000; mo_scale = 2; mo_sample_n = 8;
    mo_sample_seeds = [ 2007 ] }

let small_matrix = lazy (Matrix.run ~options:small_options ~names:[ "gcc" ] ())

let test_budgets_parse_and_check () =
  let loose = Budgets.of_json ~mode:"full" (Jsonx.of_string (budget_json ~vli_mean:0.9)) in
  Alcotest.(check string) "mode" "full" loose.Budgets.b_mode;
  let board = board_with_vli_mean (Lazy.force small_matrix) in
  Tutil.check_int "loose budget passes" 0
    (List.length (Budgets.check loose board));
  let tight =
    Budgets.of_json ~mode:"full" (Jsonx.of_string (budget_json ~vli_mean:1e-9))
  in
  (match Budgets.check tight board with
  | [ b ] ->
    Alcotest.(check string) "method" "vli" b.Budgets.br_method;
    Alcotest.(check string) "metric" "mean_cpi_error" b.Budgets.br_metric;
    Tutil.check_bool "actual above limit" true
      (b.Budgets.br_actual > b.Budgets.br_limit)
  | _ -> Alcotest.fail "expected exactly one breach");
  match Budgets.of_json ~mode:"nope" (Jsonx.of_string (budget_json ~vli_mean:0.1)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown mode must fail"

let test_budget_nan_actual_breaches () =
  (* A method with no finite cells must breach, not silently pass. *)
  let budget =
    Budgets.of_json ~mode:"full"
      (Jsonx.of_string
         {|{"schema":"cbsp-validate-budgets/1",
            "modes":{"full":{"ghost":{"mean_cpi_error":0.9}}}}|})
  in
  let board =
    { Leaderboard.lb_rows =
        [ { Leaderboard.r_method = "ghost";
            r_cpi = Leaderboard.aggregate [ Float.nan ];
            r_speedup = Leaderboard.aggregate [];
            r_calibration = None } ];
      lb_coverage =
        { Leaderboard.cov_expected = 8; cov_evaluated = 0; cov_skipped = 8;
          cov_failed = 0 } }
  in
  Tutil.check_int "nan actual breaches" 1
    (List.length (Budgets.check budget board))

(* A one-mode ("smoke") budget file for method "s". *)
let smoke_budget limits =
  Budgets.of_json ~mode:"smoke"
    (Jsonx.of_string
       (Printf.sprintf
          {|{"schema":"cbsp-validate-budgets/1","modes":{"smoke":{"s":{%s}}}}|}
          limits))

let test_budgets_unknown_key () =
  (* A typo must not become an unconstrained budget that passes. *)
  List.iter
    (fun key ->
      Alcotest.check_raises key
        (Failure
           (Printf.sprintf "budgets: unknown key %S for method \"s\"" key))
        (fun () -> ignore (smoke_budget (Printf.sprintf "%S: 0.9" key))))
    [ "min_coverge"; "max_cpi_eror" ]

let test_budget_min_coverage () =
  let breaches floor coverage =
    let calibration c =
      { Leaderboard.c_runs = 16; c_coverage = c; c_mean_rel_half = 0.1;
        c_mean_cost_fraction = 0.1; c_speedup_coverage = 0.9 }
    in
    let row =
      { Leaderboard.r_method = "s"; r_cpi = Leaderboard.aggregate [ 0.01 ];
        r_speedup = Leaderboard.aggregate [ 0.01 ];
        r_calibration = Option.map calibration coverage }
    in
    let coverage =
      { Leaderboard.cov_expected = 2; cov_evaluated = 2; cov_skipped = 0;
        cov_failed = 0 }
    in
    Budgets.check
      (smoke_budget (Printf.sprintf {|"min_coverage": %g|} floor))
      { Leaderboard.lb_rows = [ row ]; lb_coverage = coverage }
    |> List.map (fun b -> (b.Budgets.br_metric, b.Budgets.br_actual))
  in
  Tutil.check_bool "0.9375 >= 0.9 passes" true
    (breaches 0.9 (Some 0.9375) = []);
  Tutil.check_bool "0.9375 < 0.95 breaches" true
    (breaches 0.95 (Some 0.9375) = [ ("min_coverage", 0.9375) ]);
  (* nan, and a row with no calibration at all, breach the floor. *)
  List.iter
    (fun c ->
      Tutil.check_int "unmeasured breaches" 1 (List.length (breaches 0.9 c)))
    [ Some Float.nan; None ]

let test_budgets_load () =
  let path = Filename.temp_file "cbsp-budgets" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let text = budget_json ~vli_mean:0.25 in
  Cbsp_util.Io.with_out_file path (fun oc -> output_string oc text);
  List.iter
    (fun mode ->
      let b = Budgets.load ~path ~mode in
      Alcotest.(check string) "mode" mode b.Budgets.b_mode;
      Tutil.check_int (mode ^ ": one method") 1
        (List.length b.Budgets.b_limits))
    [ "smoke"; "full" ];
  Cbsp_util.Io.with_out_file path (fun oc ->
      output_string oc (String.sub text 0 (String.length text / 2)));
  match Budgets.load ~path ~mode:"full" with
  | _ -> Alcotest.fail "truncated budget file must not load"
  | exception Jsonx.Parse_error _ -> ()

(* --- Jsonx ---------------------------------------------------------- *)

let test_jsonx_roundtrip_cases () =
  let cases =
    [ Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Bool false;
      Jsonx.Num 0.0;
      Jsonx.Num 42.0;
      Jsonx.Num (-17.25);
      Jsonx.Num 1e-9;
      Jsonx.Num 1.0000000000000002;
      Jsonx.Str "";
      Jsonx.Str "plain";
      Jsonx.Str "quote \" backslash \\ newline \n tab \t";
      Jsonx.Str "control \001\031 bytes";
      Jsonx.List [];
      Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "two"; Jsonx.Null ];
      Jsonx.Obj [];
      Jsonx.Obj
        [ ("a", Jsonx.Num 1.0);
          ("nested", Jsonx.Obj [ ("l", Jsonx.List [ Jsonx.Bool false ]) ]) ]
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonx.to_string v in
      Tutil.check_bool
        (Printf.sprintf "round-trip %s" s)
        true
        (Jsonx.of_string s = v);
      Tutil.check_bool
        (Printf.sprintf "one line: %s" s)
        false
        (String.contains s '\n'))
    cases

let prop_jsonx_string_roundtrip =
  QCheck.Test.make ~name:"jsonx escapes any string" ~count:200
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      let v = Jsonx.Str s in
      Jsonx.of_string (Jsonx.to_string v) = v)

(* The decoder is total: on any bytes it returns a value or raises
   [Parse_error], never another exception.  Half the inputs are drawn
   from JSON's own punctuation, literals and escapes, so they get past
   the first byte and reach the nested, string and number paths. *)
let prop_jsonx_decodes_any_bytes =
  let json_byte =
    QCheck.Gen.oneofl
      [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; 'u'; 'n'; 't'; 'f'; 'e';
        'E'; '.'; '-'; '+'; '0'; '1'; '9'; 'a'; ' '; '\n' ]
  in
  QCheck.Test.make ~name:"jsonx decodes any bytes" ~count:2000
    QCheck.(
      make ~print:String.escaped
        Gen.(
          string_size
            ~gen:(oneof [ char; json_byte ])
            (0 -- 40)))
    (fun s ->
      match Jsonx.of_string s with
      | (_ : Jsonx.t) -> true
      | exception Jsonx.Parse_error _ -> true)

let test_jsonx_rejects_malformed () =
  List.iter
    (fun s ->
      Tutil.check_bool ("rejects " ^ s) true
        (match Jsonx.of_string s with
        | (_ : Jsonx.t) -> false
        | exception Jsonx.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; "{} trailing" ]

(* --- the matrix ----------------------------------------------------- *)

let test_matrix_coverage_complete () =
  let m = Lazy.force small_matrix in
  let board = Leaderboard.build m in
  let c = board.Leaderboard.lb_coverage in
  Tutil.check_int "expected = workloads*methods*(labels+pairs)"
    (1 * List.length Matrix.methods
    * (Leaderboard.n_labels + List.length Matrix.pairs))
    c.Leaderboard.cov_expected;
  Tutil.check_int "no failures" 0 c.Leaderboard.cov_failed;
  Tutil.check_int "everything evaluated"
    c.Leaderboard.cov_expected
    (c.Leaderboard.cov_evaluated + c.Leaderboard.cov_skipped);
  Tutil.check_int "no truth mismatches" 0
    (List.length (Matrix.truth_mismatches m))

let test_matrix_deterministic_across_jobs () =
  let m1 = Lazy.force small_matrix in
  let m4 = Matrix.run ~options:small_options ~names:[ "gcc" ] ~jobs:4 () in
  let doc m = Jsonx.to_string (Leaderboard.to_json m (Leaderboard.build m)) in
  Alcotest.(check string) "cbsp-validate/1 identical for -j1/-j4" (doc m1)
    (doc m4)

let test_json_roundtrip () =
  let m = Lazy.force small_matrix in
  let j = Leaderboard.to_json ~mode:"full" m (Leaderboard.build m) in
  let s = Jsonx.to_string j in
  let j' = Jsonx.of_string s in
  Alcotest.(check string) "schema survives" "cbsp-validate/1"
    (Tutil.str_member "schema" j' ~default:"");
  (* Reprinting the reparsed document is a fixpoint. *)
  Alcotest.(check string) "print/parse fixpoint" s (Jsonx.to_string j')

let test_matrix_unknown_workload () =
  match Matrix.run ~names:[ "no-such" ] () with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown workload must raise before running"

(* --- identical-pair property over real pipelines -------------------- *)

let prop_identical_pair_exact =
  (* Across generated programs and both FLI and VLI: pairing a binary
     with itself gives speedup truth exactly 1.0 and error exactly 0.0.
     Real pipeline runs, so the count stays small. *)
  QCheck.Test.make ~name:"identical pair exact across fli/vli" ~count:4
    QCheck.(pair (int_range 3 9) (int_range 20 60))
    (fun (trips, insts) ->
      let program = Tutil.single_loop_program ~trips ~insts () in
      let configs = Tutil.paper_configs () in
      let input = Tutil.test_input in
      let target = 5_000 in
      let fli = Pipeline.run_fli program ~configs ~input ~target in
      let vli = Pipeline.run_vli program ~configs ~input ~target in
      let records =
        Pipeline.estimate_records_fli fli @ Pipeline.estimate_records_vli vli
      in
      let pairs =
        List.map
          (fun (r : Pipeline.estimate_record) ->
            (r.Pipeline.er_label, r.Pipeline.er_label))
          records
      in
      let cells = Errors.speedup_cells ~workload:"p" ~pairs records in
      cells <> []
      && List.for_all
           (fun (c : Errors.cell) ->
             c.Errors.cl_truth = 1.0 && c.Errors.cl_estimate = 1.0
             && c.Errors.cl_error = 0.0)
           cells)

(* --- pass sharing ----------------------------------------------------- *)

(* One table entry alone on [engine], at [small_options]' input, target
   and SimPoint cap: what the matrix's batch must reproduce. *)
let run_estimator ~engine program ~configs (Pipeline.Any est) =
  let o = small_options in
  Matrix.Output
    ( est,
      Pipeline.run
        ~sp_config:
          { Cbsp_simpoint.Simpoint.default_config with
            Cbsp_simpoint.Simpoint.max_k = o.Matrix.mo_max_k }
        ~engine est program ~configs
        ~input:
          (Cbsp_source.Input.make
             ~name:(Printf.sprintf "scale%d" o.Matrix.mo_scale)
             ~seed:o.Matrix.mo_seed ~scale:o.Matrix.mo_scale ())
        ~target:o.Matrix.mo_target )

let stage_jobs stage timings =
  List.length (List.filter (fun r -> r.Timing.tr_stage = stage) timings)

(* Passes shared through one engine's pass store change no bit of any
   estimate: the five estimators on one engine give the outputs each
   gives on a fresh engine of its own.  The shared engine collects FLI's
   four fixed-length passes (the samplers reuse them) and one VLI
   primary + three followers per distinct cut plan: gcc's three VLI
   methods agree, applu's recovered markers give it a second plan. *)
let test_shared_passes_bit_identical () =
  (* Without sharing: the shared engine hands FLI and the samplers one
     physical truth record, which is no difference in value. *)
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  List.iter
    (fun (name, passes) ->
      let entry = Cbsp_workloads.Registry.find name in
      let program = entry.Cbsp_workloads.Registry.build () in
      let configs =
        Cbsp_compiler.Config.paper_four
          ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ()
      in
      let estimators = Matrix.estimators small_options in
      let run engine = run_estimator ~engine program ~configs in
      let shared = Pipeline.create_engine () in
      let together = List.map (run shared) estimators in
      let alone =
        List.map (fun e -> run (Pipeline.create_engine ()) e) estimators
      in
      Tutil.check_bool (name ^ ": outputs bit-identical") true
        (bits together = bits alone);
      Tutil.check_int (name ^ ": interval-collection jobs") passes
        (stage_jobs Stage.Interval_collection
           (Pipeline.timings shared)))
    [ ("gcc", 8); ("applu", 12) ]

(* The matrix hands a workload's five estimators to one batch, which
   executes each of the four binaries once: the primary with FLI's
   fixed-length plan and every VLI recording, each other binary with
   its fixed-length plan and every VLI replay.  No output may change a
   bit against each estimator run alone on a fresh engine. *)
let test_batched_matrix_equals_alone () =
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  List.iter
    (fun name ->
      let entry = Cbsp_workloads.Registry.find name in
      let program = entry.Cbsp_workloads.Registry.build () in
      let configs =
        Cbsp_compiler.Config.paper_four
          ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ()
      in
      let w =
        match
          (Matrix.run ~options:small_options ~names:[ name ] ()).Matrix.m_workloads
        with
        | [ w ] -> w
        | ws -> Alcotest.failf "%d workload results" (List.length ws)
      in
      Tutil.check_bool (name ^ ": no failure") true (w.Matrix.w_failed = []);
      let alone =
        List.map
          (run_estimator ~engine:(Pipeline.create_engine ()) program ~configs)
          (Matrix.estimators small_options)
      in
      Tutil.check_bool (name ^ ": outputs bit-identical") true
        (bits w.Matrix.w_outputs = bits alone);
      Tutil.check_int (name ^ ": one interval-collection job per binary") 4
        (stage_jobs Stage.Interval_collection w.Matrix.w_timings))
    [ "gcc"; "applu" ]

(* --- the workload cache ---------------------------------------------- *)

let art_files dir =
  if Sys.file_exists dir then
    List.filter (fun f -> Filename.check_suffix f ".art")
      (Array.to_list (Sys.readdir dir))
  else []

(* A restart over a [cache_dir] serves every workload's outputs from
   one entry each: no compile, no structure profile and no collection,
   the same outputs bit for bit, and the cells recomputed from them. *)
let test_matrix_warm_cache () =
  Tutil.with_temp_dir "warm" @@ fun cache_dir ->
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let names = [ "gcc"; "art" ] in
  let run () = Matrix.run ~options:small_options ~names ~jobs:2 ~cache_dir () in
  let cold = run () in
  let warm = run () in
  let outputs m =
    List.map (fun w -> bits w.Matrix.w_outputs) m.Matrix.m_workloads
  in
  Tutil.check_bool "cold: no failure" true (Matrix.failures cold = []);
  Tutil.check_bool "cold run collected intervals" true
    (stage_jobs Stage.Interval_collection (Matrix.timings cold) > 0);
  Tutil.check_bool "warm outputs = cold outputs" true
    (outputs warm = outputs cold);
  Tutil.check_bool "warm cells = cold cells" true
    (bits (Matrix.cells warm) = bits (Matrix.cells cold));
  List.iter
    (fun (what, stage) ->
      Tutil.check_int ("warm: no " ^ what) 0
        (stage_jobs stage (Matrix.timings warm)))
    Stage.
      [ ("compile", Compile); ("struct-profile", Struct_profile);
        ("interval collection", Interval_collection) ];
  Tutil.check_int "warm: one validate job per workload" 2
    (stage_jobs Stage.Validate (Matrix.timings warm));
  Alcotest.(check (list string)) "one store directory" [ "workloads" ]
    (Array.to_list (Sys.readdir cache_dir));
  Tutil.check_int "one entry per workload" 2
    (List.length (art_files (Filename.concat cache_dir "workloads")))

(* [Marshal] does not check types, so an entry another build stored
   could crash the reader or replay outputs the running code would not
   compute: it must be a miss.  Two well-framed but wrong entries (no
   outputs at all) sit in the cache directory, under another build
   identity's key and under the key builds used before keys named the
   build.  The run misses both, collects, equals a cold run, and its own
   entry serves the next run. *)
let test_matrix_stale_build_misses () =
  let module Store = Cbsp_engine.Store in
  let module Diskcache = Cbsp_engine.Diskcache in
  let module Input = Cbsp_source.Input in
  let module Simpoint = Cbsp_simpoint.Simpoint in
  Tutil.with_temp_dir "stale" @@ fun cache_dir ->
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let o = small_options in
  let entry = Cbsp_workloads.Registry.find "gcc" in
  let program = entry.build () in
  let configs = Config.paper_four ~loop_splitting:entry.loop_splitting () in
  let pre_build_key =
    Store.digest
      ( "workload/1", Matrix.estimators o, program, configs,
        Input.make
          ~name:(Printf.sprintf "scale%d" o.Matrix.mo_scale)
          ~seed:o.mo_seed ~scale:o.mo_scale (),
        o.mo_target, { Simpoint.default_config with max_k = o.mo_max_k } )
  in
  let store =
    Store.create ~name:"workloads"
      ~disk:
        (Diskcache.create ~dir:(Filename.concat cache_dir "workloads")
           ~name:"workloads" ())
      ()
  in
  List.iter
    (fun key ->
      ignore
        (Store.find_or_compute store ~key (fun () -> ([] : Matrix.output list))
          : Matrix.output list))
    [ Matrix.workload_key ~build:"another build" ~options:o program ~configs;
      pre_build_key ];
  let run ?cache_dir () =
    match Matrix.run ~options:o ~names:[ "gcc" ] ?cache_dir () with
    | { Matrix.m_workloads = [ w ]; _ } -> w
    | { Matrix.m_workloads = ws; _ } ->
      Alcotest.failf "%d workload results" (List.length ws)
  in
  let cold = run () in
  let warm = run ~cache_dir () in
  Tutil.check_bool "cold has outputs" true (cold.Matrix.w_outputs <> []);
  Tutil.check_bool "stale entries missed: warm outputs = cold outputs" true
    (bits warm.Matrix.w_outputs = bits cold.Matrix.w_outputs);
  Tutil.check_bool "warm collected" true
    (stage_jobs Stage.Interval_collection warm.Matrix.w_timings > 0);
  Tutil.check_int "its own entry beside the stale two" 3
    (List.length (art_files (Filename.concat cache_dir "workloads")));
  let again = run ~cache_dir () in
  Tutil.check_bool "then served: outputs = cold outputs" true
    (bits again.Matrix.w_outputs = bits cold.Matrix.w_outputs);
  Tutil.check_int "then served: no collection" 0
    (stage_jobs Stage.Interval_collection again.Matrix.w_timings)

(* A workload with a failed estimator is never stored: its warm rerun
   collects again and reports the same outcomes. *)
let test_matrix_failure_not_persisted () =
  Tutil.with_temp_dir "failed" @@ fun cache_dir ->
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  let options = { small_options with Matrix.mo_primary = 7 } in
  let run () =
    match Matrix.run ~options ~names:[ "gcc" ] ~cache_dir () with
    | { Matrix.m_workloads = [ w ]; _ } -> w
    | { Matrix.m_workloads = ws; _ } ->
      Alcotest.failf "%d workload results" (List.length ws)
  in
  let cold = run () in
  Alcotest.(check (list string)) "every vli failed"
    [ "vli"; "vli-static"; "vli-recovered" ]
    (List.map fst cold.Matrix.w_failed);
  Tutil.check_int "nothing stored" 0
    (List.length (art_files (Filename.concat cache_dir "workloads")));
  let warm = run () in
  Tutil.check_bool "same failures" true
    (warm.Matrix.w_failed = cold.Matrix.w_failed);
  Tutil.check_bool "same outputs" true
    (bits warm.Matrix.w_outputs = bits cold.Matrix.w_outputs);
  Tutil.check_bool "warm collected again" true
    (stage_jobs Stage.Interval_collection warm.Matrix.w_timings > 0)

(* --- estimate records ----------------------------------------------- *)

let test_estimate_records () =
  let program = Tutil.two_phase_program () in
  let configs = Tutil.paper_configs () in
  let input = Tutil.test_input in
  let target = 10_000 in
  let fli = Pipeline.run_fli program ~configs ~input ~target in
  let records = Pipeline.estimate_records_fli fli in
  Tutil.check_int "one record per binary" (List.length configs)
    (List.length records);
  List.iter2
    (fun (br : Pipeline.binary_result) (r : Pipeline.estimate_record) ->
      Alcotest.(check string) "method" "fli" r.Pipeline.er_method;
      Tutil.check_float "est cpi" br.Pipeline.br_est_cpi r.Pipeline.er_est_cpi;
      Tutil.check_float "est cycles" br.Pipeline.br_est_cycles
        r.Pipeline.er_est_cycles)
    fli.Pipeline.fli_binaries records;
  (* The record name comes from the estimator that ran, so a static run
     cannot be labelled "vli". *)
  let static =
    Pipeline.Vli { matching = Static; primary = 0; match_options = None }
  in
  let vli = Pipeline.run static program ~configs ~input ~target in
  (match Pipeline.records static vli with
  | r :: _ ->
    Alcotest.(check string) "static method" "vli-static" r.Pipeline.er_method
  | [] -> Alcotest.fail "no vli records");
  let sampling =
    Pipeline.run_sampling ~seeds:[ 2007; 2008 ] program ~configs ~input
      ~target ~n:8
  in
  let srecords = Pipeline.estimate_records_sampling sampling in
  Tutil.check_int "binaries x methods"
    (List.length configs * List.length Pipeline.sampling_methods)
    (List.length srecords)

(* The estimator table spells the eight names once; the leaderboard, the
   budgets and cbsp-validate/1 all read them in this order. *)
let test_methods_table () =
  Alcotest.(check (list string)) "eight methods, in order"
    [ "fli"; "vli"; "vli-static"; "vli-recovered"; "srs"; "systematic";
      "strat-phase"; "strat-mix" ]
    Matrix.methods

(* --- CI calibration ----------------------------------------------- *)

(* One result over 32u (true CPI 2.0) and 32o (true CPI 1.0): the one
   paper pair present, 32u->32o, has true speedup 2.0.  Runs are
   [(seed, point, half, cost)] of "strat-phase". *)
let sampling_result runs_32u runs_32o =
  let binary label cycles runs =
    let estimate (point, half, cost) =
      { Sampler.e_method = "strat-phase"; e_point = point; e_half = half;
        e_level = 0.95; e_df = 10; e_n = 8; e_population = 100;
        e_indices = [||]; e_weights = [||]; e_cost_insts = cost }
    in
    { Pipeline.sb_config =
        List.find (fun c -> Config.label c = label) (Tutil.paper_configs ());
      sb_truth = truth_of ~insts:1000 ~cycles; sb_n_live = 100;
      sb_methods =
        [ { Pipeline.mr_method = "strat-phase";
            mr_runs =
              List.map
                (fun (seed, p, h, c) ->
                  { Pipeline.sr_seed = seed; sr_estimate = estimate (p, h, c) })
                runs } ] }
  in
  { Pipeline.smp_binaries =
      [ binary "32u" 2000.0 runs_32u; binary "32o" 1000.0 runs_32o ];
    smp_target = 1000; smp_n = 8; smp_level = 0.95; smp_seeds = [ 1; 2 ] }

let test_calibrate_arithmetic () =
  let calibrate u o =
    Leaderboard.calibrate ~method_:"strat-phase" [ sampling_result u o ]
  in
  let c =
    calibrate
      [ (1, 2.1, 0.2, 100.0); (2, 2.5, 0.1, 200.0) (* misses *) ]
      [ (1, 1.0, Float.infinity, 300.0); (2, 1.05, 0.1, 400.0) ]
  in
  Tutil.check_int "runs" 4 c.Leaderboard.c_runs;
  Tutil.check_close ~eps:1e-12 "coverage 3/4" 0.75 c.Leaderboard.c_coverage;
  (* The infinite half-width is filtered: (0.2/2 + 0.1/2 + 0.1/1) / 3. *)
  Tutil.check_close ~eps:1e-12 "finite halves only" (0.25 /. 3.0)
    c.Leaderboard.c_mean_rel_half;
  Tutil.check_close ~eps:1e-12 "cost fraction" 0.25
    c.Leaderboard.c_mean_cost_fraction;
  (* Seed 1's speedup CI is infinite and covers 2.0; seed 2's,
     2.381 +/- 0.246, misses. *)
  Tutil.check_close ~eps:1e-12 "speedup coverage 1/2" 0.5
    c.Leaderboard.c_speedup_coverage;
  (* A zero estimate gives a nan speedup CI: a miss, not a throw. *)
  let d =
    calibrate
      [ (1, 2.0, 0.1, 1.0); (2, 2.0, 0.1, 1.0) ]
      [ (1, 0.0, 0.1, 1.0); (2, 1.0, 0.5, 1.0) ]
  in
  Tutil.check_close ~eps:1e-12 "nan speedup CI is a miss" 0.5
    d.Leaderboard.c_speedup_coverage

let test_calibrate_zero_runs () =
  let c = Leaderboard.calibrate [] ~method_:"strat-phase" in
  Tutil.check_int "no runs" 0 c.Leaderboard.c_runs;
  Tutil.check_bool "all nan" true
    (List.for_all Float.is_nan
       Leaderboard.
         [ c.c_coverage; c.c_mean_rel_half; c.c_mean_cost_fraction;
           c.c_speedup_coverage ]);
  (* Written as null: an empty matrix's sampler rows, and only those. *)
  let empty =
    { Matrix.m_workloads = []; m_options = Matrix.default_options; m_jobs = 1 }
  in
  let doc = Leaderboard.to_json empty (Leaderboard.build empty) in
  match Jsonx.member "leaderboard" (Jsonx.of_string (Jsonx.to_string doc)) with
  | Some (Jsonx.List rows) ->
    List.iter
      (fun row ->
        let m = Tutil.str_member "method" row ~default:"" in
        Tutil.check_bool (m ^ ": coverage null iff sampler") true
          (Option.bind
             (Jsonx.member "calibration" row)
             (Jsonx.member "coverage")
          = if List.mem m Pipeline.sampling_methods then Some Jsonx.Null
            else None))
      rows
  | _ -> Alcotest.fail "no leaderboard"

(* Strat-phase CI coverage over 160 Bernoulli trials (gcc + apsi at the
   smoke shape, 20 seeds), enough to see miscalibration: a 95% CI that
   covers under 90% of them is a regression. *)
let test_strat_phase_coverage_160 () =
  let options =
    { Matrix.default_options with
      Matrix.mo_target = 20_000; mo_scale = 4; mo_sample_n = 24;
      mo_sample_seeds = List.init 20 (fun i -> 2007 + i) }
  in
  let m = Matrix.run ~options ~names:[ "gcc"; "apsi" ] () in
  let row = Leaderboard.find (Leaderboard.build m) ~method_:"strat-phase" in
  let c = Option.get row.Leaderboard.r_calibration in
  Tutil.check_int "trials" 160 c.Leaderboard.c_runs;
  Tutil.check_bool
    (Printf.sprintf "coverage %.4f >= 0.9" c.Leaderboard.c_coverage)
    true
    (c.Leaderboard.c_coverage >= 0.9)

let () =
  Alcotest.run "validate"
    [ ( "cells",
        [ Tutil.quick "cpi cells" test_cpi_cells;
          Tutil.quick "zero truth skipped" test_cpi_cell_zero_truth_skipped;
          Tutil.quick "speedup cells" test_speedup_cells;
          Tutil.quick "identical pair exact" test_identical_pair_exact;
          Tutil.quick "missing label dropped" test_speedup_missing_label_dropped;
          Tutil.quick "zero denominator skipped"
            test_speedup_zero_denominator_skipped;
          Tutil.quick "truth table" test_truth_table_and_mismatches ] );
      ( "aggregation",
        [ Tutil.quick "skip and count" test_aggregate_skip_and_count;
          Tutil.quick "degenerate aggregates" test_aggregate_degenerate ] );
      ( "budgets",
        [ Tutil.quick "parse and check" test_budgets_parse_and_check;
          Tutil.quick "nan actual breaches" test_budget_nan_actual_breaches;
          Tutil.quick "unknown key rejected" test_budgets_unknown_key;
          Tutil.quick "min_coverage floor" test_budget_min_coverage;
          Tutil.quick "load from file" test_budgets_load ] );
      ( "calibration",
        [ Tutil.quick "pooled arithmetic" test_calibrate_arithmetic;
          Tutil.quick "zero runs are nan" test_calibrate_zero_runs;
          Tutil.quick "strat-phase coverage over 160 trials"
            test_strat_phase_coverage_160 ] );
      ( "jsonx",
        [ Tutil.quick "value round-trips" test_jsonx_roundtrip_cases;
          Tutil.qcheck_case prop_jsonx_string_roundtrip;
          Tutil.qcheck_case prop_jsonx_decodes_any_bytes;
          Tutil.quick "rejects malformed" test_jsonx_rejects_malformed ] );
      ( "matrix",
        [ Tutil.quick "coverage complete" test_matrix_coverage_complete;
          Tutil.quick "deterministic across jobs"
            test_matrix_deterministic_across_jobs;
          Tutil.quick "json roundtrip" test_json_roundtrip;
          Tutil.quick "unknown workload" test_matrix_unknown_workload;
          Tutil.quick "estimate records" test_estimate_records;
          Tutil.quick "methods table" test_methods_table;
          Tutil.quick "shared passes bit-identical"
            test_shared_passes_bit_identical;
          Tutil.quick "batched matrix = per-estimator runs"
            test_batched_matrix_equals_alone;
          Tutil.quick "warm cache restart" test_matrix_warm_cache;
          Tutil.quick "another build's entry misses"
            test_matrix_stale_build_misses;
          Tutil.quick "failed workload not persisted"
            test_matrix_failure_not_persisted ] );
      ( "properties",
        [ Tutil.qcheck_case prop_identical_pair_exact ] ) ]
