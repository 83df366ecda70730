(* Semantic marker matching (Fingerprint) over split-lost loops, plus the
   paper's applu failure mode end to end: exact matching collapses under
   O2 loop splitting, fingerprint recovery restores the cut set, and the
   recovered VLI stays within the CPI error budget. *)

module Marker = Cbsp_compiler.Marker
module Config = Cbsp_compiler.Config
module Prover = Cbsp_analysis.Prover
module Fingerprint = Cbsp_analysis.Fingerprint
module Matching = Cbsp.Matching
module Pipeline = Cbsp.Pipeline
module Registry = Cbsp_workloads.Registry
module Ast = Cbsp_source.Ast
module B = Cbsp_source.Builder

let input = Tutil.test_input
let scale = 1 (* matches [input] *)

let report_of ?(loop_splitting = true) ?(scale = scale) program =
  Prover.prove ~binaries:(Tutil.compile_all ~loop_splitting program) ~scale

let loop_line_of program proc_name =
  let proc = Ast.find_proc program proc_name in
  let rec first = function
    | [] -> Alcotest.fail "no loop in proc"
    | Ast.Loop l :: _ -> l.Ast.loop_line
    | _ :: rest -> first rest
  in
  first proc.Ast.proc_body

let pair_for rc key =
  List.find_opt
    (fun p -> Marker.equal p.Fingerprint.pr_key key)
    rc.Fingerprint.rc_pairs

(* A splittable main loop whose second statement calls an out-of-line
   procedure: at O2 the call lands in fragment 1, so [keep]'s (exactly
   matchable) markers are displaced and must be demoted from the cut
   set. *)
let displaced_program () =
  let b = B.create ~name:"displace" in
  let a = B.data_array b ~name:"a" ~elem_bytes:8 ~length:4096 in
  B.proc b ~name:"keep"
    [ B.loop b ~trips:(Ast.Fixed 8)
        [ B.work b ~insts:20 ~accesses:[ B.seq ~arr:a ~count:1 () ] () ] ];
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 30) ~splittable:true
        [ B.work b ~insts:25 ~accesses:[ B.seq ~arr:a ~count:2 () ] ();
          B.call b "keep" ] ];
  B.finish b ~main:"main"

(* --- recovery on the splitty fixture ----------------------------------- *)

let test_splitty_recovery () =
  let program = Tutil.splittable_program () in
  let rc = Fingerprint.recover (report_of program) in
  (* All six loop keys (three source lines x entry/back) are lost to the
     split; all six are re-identified; the four from order-safe sites
     (the main loop's own fragment 0 and the inlined [one] inside it)
     are cuttable, [two]'s land in fragment 1 and are not. *)
  Tutil.check_int "lost" 6 (Fingerprint.n_lost rc);
  Tutil.check_int "identified" 6 (Fingerprint.n_identified rc);
  Tutil.check_int "cuttable" 4 (Fingerprint.n_cuttable rc);
  Tutil.check_bool "nothing demoted" true
    (Marker.Set.is_empty rc.Fingerprint.rc_demoted);
  let main_line = loop_line_of program "main" in
  let one_line = loop_line_of program "one" in
  let two_line = loop_line_of program "two" in
  let check_pair key count cuttable =
    match pair_for rc key with
    | None -> Alcotest.failf "no pair for %s" (Marker.to_string key)
    | Some p ->
      Tutil.check_int
        (Printf.sprintf "count of %s" (Marker.to_string key))
        count p.Fingerprint.pr_count;
      Tutil.check_bool
        (Printf.sprintf "cuttable of %s" (Marker.to_string key))
        cuttable p.Fingerprint.pr_cuttable;
      Tutil.check_bool "score above threshold" true
        (p.Fingerprint.pr_score >= Fingerprint.default_threshold
        && p.Fingerprint.pr_score <= 1.0)
  in
  check_pair (Marker.Loop_entry main_line) 1 true;
  check_pair (Marker.Loop_back main_line) 50 true;
  check_pair (Marker.Loop_entry one_line) 50 true;
  check_pair (Marker.Loop_back one_line) 1000 true;
  check_pair (Marker.Loop_entry two_line) 50 false;
  check_pair (Marker.Loop_back two_line) 1250 false

let test_splitty_locals () =
  let program = Tutil.splittable_program () in
  let rc = Fingerprint.recover (report_of program) in
  let main_line = loop_line_of program "main" in
  let p =
    match pair_for rc (Marker.Loop_entry main_line) with
    | Some p -> p
    | None -> Alcotest.fail "main loop entry not recovered"
  in
  (* paper_four order is 32u 32o 64u 64o: the O0 binaries keep the
     canonical key, the O2 (split) binaries match a mangled fragment. *)
  let mangled = function
    | Marker.Loop_entry line | Marker.Loop_back line -> line < 0
    | Marker.Proc_entry _ -> false
  in
  Tutil.check_int "four binaries" 4 (Array.length p.Fingerprint.pr_locals);
  Array.iteri
    (fun j local ->
      let split = j = 1 || j = 3 in
      Tutil.check_bool
        (Printf.sprintf "local %d %s" j (Marker.to_string local))
        split (mangled local);
      if not split then
        Tutil.check_bool "identity local" true
          (Marker.equal local p.Fingerprint.pr_key))
    p.Fingerprint.pr_locals;
  (* translations carry exactly the cuttable non-identity rewrites *)
  let tr = Fingerprint.translations rc in
  Tutil.check_int "translation tables" 4 (Array.length tr);
  let to_local, to_canon = tr.(1) in
  Tutil.check_int "split binary rewrites" 4 (Marker.Map.cardinal to_local);
  Tutil.check_int "inverse same size" 4 (Marker.Map.cardinal to_canon);
  let canon0, _ = tr.(0) in
  Tutil.check_int "primary needs no rewrite" 0 (Marker.Map.cardinal canon0);
  Marker.Map.iter
    (fun canon local ->
      Tutil.check_bool "round trip" true
        (Marker.equal (Marker.Map.find local to_canon) canon))
    to_local

let test_threshold_gates () =
  let rc =
    Fingerprint.recover ~threshold:1.01
      (report_of (Tutil.splittable_program ()))
  in
  Tutil.check_int "nothing clears an impossible threshold" 0
    (Fingerprint.n_identified rc);
  Tutil.check_int "lost set unchanged" 6 (Fingerprint.n_lost rc)

let test_no_split_noop () =
  let rc =
    Fingerprint.recover
      (report_of ~loop_splitting:false (Tutil.two_phase_program ()))
  in
  Tutil.check_int "nothing lost" 0 (Fingerprint.n_lost rc);
  Tutil.check_int "nothing identified" 0 (Fingerprint.n_identified rc);
  Tutil.check_bool "no demotions" true
    (Marker.Set.is_empty rc.Fingerprint.rc_demoted);
  Tutil.check_int "no translations" 0
    (Array.length (Fingerprint.translations rc))

let test_demotion () =
  let program = displaced_program () in
  let rc = Fingerprint.recover (report_of program) in
  let keep_line = loop_line_of program "keep" in
  List.iter
    (fun key ->
      Tutil.check_bool
        (Printf.sprintf "%s demoted" (Marker.to_string key))
        true
        (Marker.Set.mem key rc.Fingerprint.rc_demoted))
    [ Marker.Proc_entry "keep"; Marker.Loop_entry keep_line;
      Marker.Loop_back keep_line ];
  Tutil.check_bool "main not demoted" false
    (Marker.Set.mem (Marker.Proc_entry "main") rc.Fingerprint.rc_demoted);
  (* the split main loop itself is still recovered, order-safely: its
     fragment 0 holds only the work statement *)
  let main_line = loop_line_of program "main" in
  (match pair_for rc (Marker.Loop_back main_line) with
  | Some p ->
    Tutil.check_bool "main back cuttable" true p.Fingerprint.pr_cuttable;
    Tutil.check_int "main back count" 30 p.Fingerprint.pr_count
  | None -> Alcotest.fail "main loop back not recovered")

(* --- the applu failure mode (paper section 5.1) ------------------------ *)

let test_applu_recovery () =
  let entry = Registry.find "applu" in
  Tutil.check_bool "applu is the splitting workload" true
    entry.Registry.loop_splitting;
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.name <> "applu" then
        Tutil.check_bool
          (Printf.sprintf "%s does not split" e.Registry.name)
          false e.Registry.loop_splitting)
    Registry.all;
  (* At the test input's scale and at the reference scale. *)
  List.iter
    (fun scale ->
      let report = report_of ~scale (entry.Registry.build ()) in
      let rc = Fingerprint.recover report in
      let label what = Printf.sprintf "scale %d: %s" scale what in
      (* 12 loop keys lost (the split driver loop + five inlined solver
         loops, entry and back each).  Recovery re-identifies 7: the
         driver pair and each solver's entry (solver back edges have
         Jitter trip counts the count gate cannot verify).  3 are
         order-safe: the driver pair plus the first fragment's solver
         entry. *)
      Tutil.check_int (label "lost") 12 (Fingerprint.n_lost rc);
      Tutil.check_int (label "identified") 7 (Fingerprint.n_identified rc);
      Tutil.check_int (label "cuttable") 3 (Fingerprint.n_cuttable rc);
      (* recovered mappability must be a meaningful fraction of the loss *)
      Tutil.check_bool (label "recovers at least half the lost markers") true
        (2 * Fingerprint.n_identified rc >= Fingerprint.n_lost rc);
      (* and every exact-matcher loss really was a loss *)
      Marker.Set.iter
        (fun key ->
          match Marker.Map.find_opt key report.Prover.pr_proved with
          | Some _ ->
            Alcotest.failf "%s both lost and proved" (Marker.to_string key)
          | None -> ())
        rc.Fingerprint.rc_lost)
    [ scale; 10 ]

(* --- recovered VLI end to end ------------------------------------------ *)

let target = 4_000

let run ~semantic program ~loop_splitting =
  Pipeline.run_vli ~static:true ~semantic program
    ~configs:(Tutil.paper_configs ~loop_splitting ())
    ~input ~target

let test_splitty_vli_recovered () =
  let program = Tutil.splittable_program () in
  let exact = run ~semantic:false program ~loop_splitting:true in
  let recovered = run ~semantic:true program ~loop_splitting:true in
  (* exact matching keeps only [Proc_entry main], which fires once at
     run start: no interval boundary can ever be cut *)
  Tutil.check_int "exact VLI cannot cut" 0 exact.Pipeline.vli_n_boundaries;
  Tutil.check_bool "recovered VLI cuts intervals" true
    (recovered.Pipeline.vli_n_boundaries > 4);
  Tutil.check_bool "recovered mappable set is larger" true
    (Matching.cardinal recovered.Pipeline.vli_mappable
    > Matching.cardinal exact.Pipeline.vli_mappable);
  (* every binary replays the same boundary list: equal interval counts *)
  List.iter
    (fun (br : Pipeline.binary_result) ->
      Tutil.check_int
        (Printf.sprintf "intervals of %s" (Config.label br.Pipeline.br_config))
        (recovered.Pipeline.vli_n_boundaries + 1)
        br.Pipeline.br_n_intervals;
      Tutil.check_bool
        (Printf.sprintf "CPI error of %s within budget"
           (Config.label br.Pipeline.br_config))
        true
        (Float.is_finite br.Pipeline.br_cpi_error
        && br.Pipeline.br_cpi_error <= 0.15))
    recovered.Pipeline.vli_binaries

let test_displaced_vli_order_safe () =
  (* Without demotion this run raises: [keep]'s markers interleave with
     the recovered fragment-0 markers on the primary but are phase-
     segregated in the split followers, so the recorded boundary list
     would be unreachable there. *)
  let program = displaced_program () in
  let recovered = run ~semantic:true program ~loop_splitting:true in
  let keep_line = loop_line_of program "keep" in
  List.iter
    (fun key ->
      Tutil.check_bool
        (Printf.sprintf "%s out of the cut set" (Marker.to_string key))
        false
        (Matching.is_mappable recovered.Pipeline.vli_mappable key))
    [ Marker.Proc_entry "keep"; Marker.Loop_entry keep_line;
      Marker.Loop_back keep_line ];
  Tutil.check_bool "still cuts on the recovered loop" true
    (recovered.Pipeline.vli_n_boundaries > 0)

let test_semantic_equals_static_when_nothing_lost () =
  let program = Tutil.two_phase_program () in
  let exact = run ~semantic:false program ~loop_splitting:false in
  let recovered = run ~semantic:true program ~loop_splitting:false in
  Tutil.check_int "same boundaries" exact.Pipeline.vli_n_boundaries
    recovered.Pipeline.vli_n_boundaries;
  Tutil.check_int "same mappable cardinal"
    (Matching.cardinal exact.Pipeline.vli_mappable)
    (Matching.cardinal recovered.Pipeline.vli_mappable)

let () =
  Alcotest.run "fingerprint"
    [ ( "recovery",
        [ Tutil.quick "splitty pairs" test_splitty_recovery;
          Tutil.quick "splitty locals" test_splitty_locals;
          Tutil.quick "threshold gates" test_threshold_gates;
          Tutil.quick "no split noop" test_no_split_noop;
          Tutil.quick "demotion" test_demotion;
          Tutil.quick "applu failure mode" test_applu_recovery ] );
      ( "pipeline",
        [ Tutil.quick "splitty recovered VLI" test_splitty_vli_recovered;
          Tutil.quick "displaced order safety" test_displaced_vli_order_safe;
          Tutil.quick "no-loss parity"
            test_semantic_equals_static_when_nothing_lost ] ) ]
