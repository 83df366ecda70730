(* Tests for the static mappability analyzer (lib/analysis): the
   Poly/Sym count domain, the abstract interpreter's exactness against
   real profiles, the prover's soundness against dynamic matching over
   the whole workload registry, the pipeline's static path, and the lint
   engine.

   The soundness contract under test is the load-bearing one: a
   [Proved_mappable] verdict must be confirmed by dynamic matching with
   the same count, a [Proved_unmappable] verdict must be dynamically
   rejected, and no dynamically mappable marker may ever be ruled
   unmappable. *)

module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Input = Cbsp_source.Input
module Marker = Cbsp_compiler.Marker
module Structprof = Cbsp_profile.Structprof
module Executor = Cbsp_exec.Executor
module Registry = Cbsp_workloads.Registry
module Matching = Cbsp.Matching
module Pipeline = Cbsp.Pipeline
module Poly = Cbsp_analysis.Poly
module Sym = Cbsp_analysis.Sym
module Absint = Cbsp_analysis.Absint
module Prover = Cbsp_analysis.Prover
module Lint = Cbsp_analysis.Lint
module Binary = Cbsp_compiler.Binary
module Cpu = Cbsp_cache.Cpu

(* --- fixtures --------------------------------------------------------- *)

(* Fixed/Scaled control flow only, so the analyzer can decide every
   candidate marker: an unrollable kernel loop whose Scaled coefficients
   are divisible by the unroll factor (ceil-division stays exact), an
   inline-hinted helper (its Proc_entry is provably erased at O2), and a
   fixed main loop driving both. *)
let fixed_scaled_program () =
  let b = B.create ~name:"fixsc" in
  let a = B.data_array b ~name:"a" ~elem_bytes:8 ~length:2048 in
  B.proc b ~name:"kernel"
    [ B.loop b
        ~trips:(Ast.Scaled { base = 8; per_scale = 4 })
        ~unrollable:true
        [ B.work b ~insts:20 ~accesses:[ B.seq ~arr:a ~count:2 () ] () ] ];
  B.proc b ~name:"helper" ~inline_hint:true
    [ B.loop b ~trips:(Ast.Fixed 12) [ B.work b ~insts:15 () ] ];
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 20) [ B.call b "kernel"; B.call b "helper" ];
      B.work b ~insts:30 () ];
  B.finish b ~main:"main"

let loop_line_of program name =
  let p = Ast.find_proc program name in
  let rec find = function
    | Ast.Loop l :: _ -> l.Ast.loop_line
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "no loop in %s" name
  in
  find p.Ast.proc_body

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let find_rule rule findings =
  List.filter (fun f -> f.Lint.f_rule = rule) findings

(* --- the Poly domain -------------------------------------------------- *)

let test_poly_basics () =
  let p = Poly.affine ~base:3 ~per_scale:2 in
  Tutil.check_int "affine eval" 13 (Poly.eval p ~scale:5);
  Tutil.check_int "affine degree" 1 (Poly.degree p);
  let q = Poly.mul p p in
  Tutil.check_int "mul eval" (13 * 13) (Poly.eval q ~scale:5);
  Tutil.check_int "mul degree" 2 (Poly.degree q);
  Tutil.check_bool "negative const clamps to zero" true (Poly.is_zero (Poly.const (-4)));
  Tutil.check_bool "p + p = 2p" true (Poly.equal (Poly.add p p) (Poly.cmul 2 p));
  Tutil.check_int "zero degree" (-1) (Poly.degree Poly.zero);
  Tutil.check_bool "const is const" true (Poly.is_const (Poly.const 7));
  Tutil.check_bool "affine is not const" false (Poly.is_const p)

let test_poly_div_bounds () =
  (* Coefficient-wise quotients must bracket ceil(p(s)/u) at every
     scale, including the non-divisible case. *)
  let p = Poly.affine ~base:5 ~per_scale:3 in
  for s = 0 to 20 do
    let v = Poly.eval p ~scale:s in
    Tutil.check_bool "div_floor is a lower bound" true
      (Poly.eval (Poly.div_floor p 4) ~scale:s <= v / 4);
    Tutil.check_bool "div_ceil bounds the ceiling" true
      (Poly.eval (Poly.div_ceil p 4) ~scale:s >= (v + 3) / 4)
  done;
  Tutil.check_bool "divisible_by 4" true
    (Poly.divisible_by (Poly.affine ~base:8 ~per_scale:4) 4);
  Tutil.check_bool "not divisible_by 4" false (Poly.divisible_by p 4)

(* --- the Sym domain --------------------------------------------------- *)

let test_sym_trips () =
  let j = Sym.of_trips (Ast.Jitter { mean = 30; spread = 3 }) in
  Tutil.check_bool "jitter inexact" false j.Sym.exact;
  Alcotest.(check (pair int int)) "jitter bounds" (27, 33) (Sym.eval j ~scale:7);
  let f = Sym.of_trips (Ast.Fixed 10) in
  Tutil.check_bool "fixed exact" true f.Sym.exact;
  Alcotest.(check (option int)) "fixed decided" (Some 10) (Sym.decided_at f ~scale:3);
  let s = Sym.of_trips (Ast.Scaled { base = 2; per_scale = 5 }) in
  Alcotest.(check (option int)) "scaled decided" (Some 17) (Sym.decided_at s ~scale:3);
  Tutil.check_bool "zero-spread jitter exact" true
    (Sym.of_trips (Ast.Jitter { mean = 9; spread = 0 })).Sym.exact

let test_sym_ceil_div () =
  Alcotest.(check (option int)) "const: ceil(10/4)" (Some 3)
    (Sym.decided_at (Sym.ceil_div (Sym.const 10) 4) ~scale:1);
  let exact = Sym.of_trips (Ast.Scaled { base = 8; per_scale = 4 }) in
  let q = Sym.ceil_div exact 4 in
  Tutil.check_bool "divisible affine stays exact" true q.Sym.exact;
  Alcotest.(check (option int)) "quotient at scale 10" (Some 12)
    (Sym.decided_at q ~scale:10);
  let odd = Sym.of_trips (Ast.Scaled { base = 5; per_scale = 3 }) in
  let q2 = Sym.ceil_div odd 4 in
  for s = 0 to 20 do
    let want = ((5 + (3 * s)) + 3) / 4 in
    let lo, hi = Sym.eval q2 ~scale:s in
    Tutil.check_bool "ceil_div sound below" true (lo <= want);
    Tutil.check_bool "ceil_div sound above" true (hi >= want)
  done

let test_sym_select () =
  let t = Sym.const 7 in
  Alcotest.(check (pair int int)) "3 arms widen to [0, execs]" (0, 7)
    (Sym.eval (Sym.in_select ~arms:3 t) ~scale:1);
  Alcotest.(check (option int)) "single arm passes through" (Some 7)
    (Sym.decided_at (Sym.in_select ~arms:1 t) ~scale:1)

(* --- abstract interpreter vs the real machine ------------------------- *)

(* On a Fixed/Scaled-only program every symbolic count is exact, so the
   abstract interpreter must agree with a structure profile key-for-key
   and with the executor on total instructions, in every binary. *)
let test_absint_matches_profile () =
  let program = fixed_scaled_program () in
  let input = Input.make ~name:"fixsc" ~seed:11 ~scale:3 () in
  List.iter
    (fun binary ->
      let summary = Absint.analyze_binary binary in
      let profile = Structprof.profile binary input in
      Marker.Map.iter
        (fun key sym ->
          match Sym.decided_at sym ~scale:3 with
          | Some n -> Tutil.check_int (Marker.to_string key) n (Structprof.count profile key)
          | None -> Alcotest.failf "undecided count for %s" (Marker.to_string key))
        summary.Absint.bs_counts;
      Marker.Map.iter
        (fun key n ->
          if not (Marker.Map.mem key summary.Absint.bs_counts) then
            Alcotest.failf "profiled %s (count %d) not predicted"
              (Marker.to_string key) n)
        profile;
      let totals = Executor.run binary input Executor.null_observer in
      match Sym.decided_at summary.Absint.bs_insts ~scale:3 with
      | Some n -> Tutil.check_int "total insts" totals.Executor.insts n
      | None -> Alcotest.fail "total insts undecided")
    (Tutil.compile_all program)

(* --- the prover ------------------------------------------------------- *)

let test_prover_verdicts () =
  let program = fixed_scaled_program () in
  let binaries = Tutil.compile_all program in
  let report = Prover.prove ~binaries ~scale:10 in
  let verdict key =
    match Marker.Map.find_opt key report.Prover.pr_verdicts with
    | Some v -> v
    | None -> Alcotest.failf "%s is not a candidate" (Marker.to_string key)
  in
  (match verdict (Marker.Proc_entry "helper") with
  | Prover.Proved_unmappable (Prover.Symbol_erased _) -> ()
  | v -> Alcotest.failf "helper: %s" (Fmt.str "%a" Prover.pp_verdict v));
  (match verdict (Marker.Loop_back (loop_line_of program "kernel")) with
  | Prover.Proved_unmappable Prover.Unroll_divergence -> ()
  | v -> Alcotest.failf "kernel back-edge: %s" (Fmt.str "%a" Prover.pp_verdict v));
  (match verdict (Marker.Loop_entry (loop_line_of program "kernel")) with
  | Prover.Proved_mappable n ->
    (* main's 20 iterations each enter the kernel loop once. *)
    Tutil.check_int "kernel entries" 20 n
  | v -> Alcotest.failf "kernel entry: %s" (Fmt.str "%a" Prover.pp_verdict v));
  (match verdict (Marker.Proc_entry "main") with
  | Prover.Proved_mappable n -> Tutil.check_int "main executes once" 1 n
  | v -> Alcotest.failf "main: %s" (Fmt.str "%a" Prover.pp_verdict v));
  (* The ISSUE's precision bar: on a fixed/scaled-only workload at least
     90% of candidates decide statically.  Here it is all of them. *)
  let _, _, needs_dynamic = Prover.tally report in
  Tutil.check_int "every candidate decided" 0 needs_dynamic;
  Tutil.check_bool "empty residue" true (Marker.Set.is_empty (Prover.residue report))

let check_workload_sound name ~loop_splitting ~scale program =
  let binaries = Tutil.compile_all ~loop_splitting program in
  let input = Input.make ~name ~seed:11 ~scale () in
  let profiles = List.map (fun b -> Structprof.profile b input) binaries in
  let dynamic = Matching.find ~binaries ~profiles () in
  let report = Prover.prove ~binaries ~scale in
  Marker.Map.iter
    (fun key verdict ->
      let label = name ^ "/" ^ Marker.to_string key in
      match verdict with
      | Prover.Proved_mappable n ->
        Tutil.check_bool (label ^ " dynamically confirmed") true
          (Matching.is_mappable dynamic key);
        Tutil.check_int (label ^ " agreed count") n
          (Marker.Map.find key dynamic.Matching.counts)
      | Prover.Proved_unmappable _ ->
        Tutil.check_bool (label ^ " dynamically rejected") false
          (Matching.is_mappable dynamic key)
      | Prover.Needs_dynamic -> ())
    report.Prover.pr_verdicts;
  Marker.Set.iter
    (fun key ->
      let label = name ^ "/" ^ Marker.to_string key in
      match Marker.Map.find_opt key report.Prover.pr_verdicts with
      | Some (Prover.Proved_mappable _) | Some Prover.Needs_dynamic -> ()
      | Some (Prover.Proved_unmappable _) ->
        Alcotest.failf "%s mappable but ruled unmappable" label
      | None -> Alcotest.failf "%s mappable but not a candidate" label)
    dynamic.Matching.keys;
  Tutil.check_bool (name ^ " candidate superset") true
    (report.Prover.pr_candidates >= dynamic.Matching.candidates)

(* Differential soundness across the whole 21-workload registry. *)
let test_registry_sound () =
  List.iter
    (fun (e : Registry.entry) ->
      check_workload_sound e.Registry.name ~loop_splitting:e.Registry.loop_splitting
        ~scale:2 (e.Registry.build ()))
    Registry.all

(* A few representative workloads again at a larger scale: applu for loop
   splitting, gcc for jitter/select irregularity, swim for regularity. *)
let test_registry_sound_large_scale () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      check_workload_sound e.Registry.name ~loop_splitting:e.Registry.loop_splitting
        ~scale:10 (e.Registry.build ()))
    [ "swim"; "applu"; "gcc" ]

(* --- the pipeline's static path --------------------------------------- *)

let test_pipeline_static_skips_profiling () =
  let program = fixed_scaled_program () in
  let configs = Tutil.paper_configs () in
  let input = Input.make ~name:"fixsc" ~seed:11 ~scale:3 () in
  let engine = Pipeline.create_engine () in
  let st = Pipeline.run_vli ~static:true ~engine program ~configs ~input ~target:500 in
  let computes, _ = Pipeline.profile_stats engine in
  Tutil.check_int "no structure profiles run" 0 computes;
  let dyn = Pipeline.run_vli program ~configs ~input ~target:500 in
  Tutil.check_bool "same mappable keys" true
    (Marker.Set.equal st.Pipeline.vli_mappable.Matching.keys
       dyn.Pipeline.vli_mappable.Matching.keys);
  Tutil.check_bool "same agreed counts" true
    (Marker.Map.equal ( = ) st.Pipeline.vli_mappable.Matching.counts
       dyn.Pipeline.vli_mappable.Matching.counts);
  Tutil.check_int "same boundary count" dyn.Pipeline.vli_n_boundaries
    st.Pipeline.vli_n_boundaries

(* Jitter trips leave a residue, so the static path must fall back to
   profiling all four binaries — and still agree with the dynamic path. *)
let test_pipeline_static_fallback () =
  let program = Tutil.two_phase_program () in
  let configs = Tutil.paper_configs () in
  let input = Tutil.test_input in
  let engine = Pipeline.create_engine () in
  let st = Pipeline.run_vli ~static:true ~engine program ~configs ~input ~target:500 in
  let computes, _ = Pipeline.profile_stats engine in
  Tutil.check_int "residue profiled in all binaries" 4 computes;
  let dyn = Pipeline.run_vli program ~configs ~input ~target:500 in
  Tutil.check_bool "same mappable keys" true
    (Marker.Set.equal st.Pipeline.vli_mappable.Matching.keys
       dyn.Pipeline.vli_mappable.Matching.keys);
  Tutil.check_bool "same agreed counts" true
    (Marker.Map.equal ( = ) st.Pipeline.vli_mappable.Matching.counts
       dyn.Pipeline.vli_mappable.Matching.counts)

(* --- lints ------------------------------------------------------------ *)

let test_lint_program_rules () =
  let b = B.create ~name:"lints" in
  let used = B.data_array b ~name:"used" ~elem_bytes:8 ~length:64 in
  let unused = B.data_array b ~name:"unused" ~elem_bytes:8 ~length:64 in
  ignore unused;
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 0) [ B.work b ~insts:10 () ];
      B.select b
        [| [ B.work b ~insts:5 ~accesses:[ B.seq ~arr:used ~count:1 () ] () ];
           [ B.work b ~insts:5 () ];
           [ B.work b ~insts:5 () ] |];
      B.work b ~insts:9 () ];
  let program = B.finish b ~main:"main" in
  let findings = Lint.check_program ~workload:"lints" ~scale:1 program in
  Tutil.check_bool "zero-trip-loop fires" true (find_rule "zero-trip-loop" findings <> []);
  Tutil.check_bool "select-arms fires" true (find_rule "select-arms" findings <> []);
  Tutil.check_bool "unused-array fires" true (find_rule "unused-array" findings <> []);
  Tutil.check_int "well-formed program: no errors" 0 (Lint.errors findings)

let test_lint_invalid_program () =
  (* Bypass the builder: a raw program Validate rejects must produce one
     validate error and suppress the deeper lints. *)
  let program =
    { Ast.prog_name = "bad"; arrays = [||];
      procs =
        [ { Ast.proc_name = "main"; proc_line = 1;
            proc_body = [ Ast.Work { work_line = 2; insts = -5; accesses = [] } ];
            inline_hint = false } ];
      main = "main" }
  in
  let findings = Lint.check_program ~workload:"bad" ~scale:1 program in
  match findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "validate" f.Lint.f_rule;
    Tutil.check_int "is an error" 1 (Lint.errors findings)
  | _ -> Alcotest.failf "expected exactly one finding, got %d" (List.length findings)

let test_lint_inst_overflow () =
  let b = B.create ~name:"huge" in
  let l1 =
    B.loop b ~trips:(Ast.Scaled { base = 0; per_scale = 1000 })
      [ B.work b ~insts:1000 () ]
  in
  let l2 = B.loop b ~trips:(Ast.Scaled { base = 0; per_scale = 1000 }) [ l1 ] in
  let l3 = B.loop b ~trips:(Ast.Scaled { base = 0; per_scale = 1000 }) [ l2 ] in
  B.proc b ~name:"main" [ l3 ];
  let program = B.finish b ~main:"main" in
  let binaries = Tutil.compile_all program in
  let findings = Lint.check_binaries ~workload:"huge" ~scale:1 binaries in
  Tutil.check_bool "inst-overflow fires" true (find_rule "inst-overflow" findings <> [])

let test_lint_backedge_survival () =
  let program = fixed_scaled_program () in
  let binaries = Tutil.compile_all program in
  let report = Prover.prove ~binaries ~scale:10 in
  let findings = Lint.check_binaries ~workload:"fixsc" ~scale:10 ~report binaries in
  match find_rule "backedge-survival" findings with
  | f :: _ ->
    Tutil.check_bool "info severity" true (f.Lint.f_severity = Lint.Info);
    Alcotest.(check (option int)) "names the kernel loop line"
      (Some (loop_line_of program "kernel")) f.Lint.f_line
  | [] -> Alcotest.fail "expected a backedge-survival finding for the unrolled kernel"

let test_lint_points () =
  let findings =
    Lint.check_points ~workload:"w"
      ~markers:[ Marker.Loop_entry (-3); Marker.Proc_entry "main" ]
  in
  Tutil.check_int "one error" 1 (Lint.errors findings);
  match findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "mangled-marker" f.Lint.f_rule;
    Tutil.check_bool "error severity" true (f.Lint.f_severity = Lint.Error)
  | _ -> Alcotest.failf "expected one finding, got %d" (List.length findings)

(* The registry must be lint-clean at the error level — this is what the
   CI lint-smoke job gates on. *)
let test_registry_lint_clean () =
  List.iter
    (fun (e : Registry.entry) ->
      let findings =
        Lint.check_program ~workload:e.Registry.name ~scale:2 (e.Registry.build ())
      in
      Tutil.check_int (e.Registry.name ^ " error findings") 0 (Lint.errors findings))
    Registry.all

let test_lint_json () =
  let totals =
    { Lint.at_candidates = 3; at_proved_mappable = 2; at_proved_unmappable = 1;
      at_needs_dynamic = 0 }
  in
  let f =
    { Lint.f_severity = Lint.Warning; f_workload = "w"; f_rule = "demo";
      f_line = Some 4; f_message = "say \"hi\"\nbye" }
  in
  let json = Lint.to_json ~scale:2 ~workloads:[ "w" ] ~totals [ f ] in
  Tutil.check_bool "schema tag" true (contains json "\"schema\": \"cbsp-lint/1\"");
  Tutil.check_bool "quotes escaped" true (contains json "\\\"hi\\\"");
  Tutil.check_bool "newline escaped" true (contains json "\\n");
  Tutil.check_bool "line emitted" true (contains json "\"line\": 4");
  Tutil.check_bool "totals emitted" true (contains json "\"proved_mappable\": 2")

let () =
  Alcotest.run "analysis"
    [ ( "domain",
        [ Tutil.quick "poly basics" test_poly_basics;
          Tutil.quick "poly division bounds" test_poly_div_bounds;
          Tutil.quick "sym of_trips" test_sym_trips;
          Tutil.quick "sym ceil_div" test_sym_ceil_div;
          Tutil.quick "sym in_select" test_sym_select ] );
      ( "absint",
        [ Tutil.quick "exact counts vs profile" test_absint_matches_profile ] );
      ( "prover",
        [ Tutil.quick "verdicts on fixed/scaled program" test_prover_verdicts;
          Tutil.quick "sound on whole registry" test_registry_sound;
          Tutil.quick "sound at large scale" test_registry_sound_large_scale ] );
      ( "pipeline",
        [ Tutil.quick "static path skips profiling" test_pipeline_static_skips_profiling;
          Tutil.quick "static path falls back on residue" test_pipeline_static_fallback ] );
      ( "lint",
        [ Tutil.quick "program rules" test_lint_program_rules;
          Tutil.quick "invalid program" test_lint_invalid_program;
          Tutil.quick "instruction overflow" test_lint_inst_overflow;
          Tutil.quick "backedge survival" test_lint_backedge_survival;
          Tutil.quick "mangled points markers" test_lint_points;
          Tutil.quick "registry is error-clean" test_registry_lint_clean;
          Tutil.quick "json report" test_lint_json ] ) ]
