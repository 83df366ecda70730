(* Tests for the static mappability analyzer (lib/analysis): the
   Poly/Sym count domain, the abstract interpreter's exactness against
   real profiles, the prover's soundness against dynamic matching over
   the whole workload registry, and the pipeline's static path.

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
module Registry = Cbsp_workloads.Registry
module Matching = Cbsp.Matching
module Pipeline = Cbsp.Pipeline
module Poly = Cbsp_analysis.Poly
module Sym = Cbsp_analysis.Sym
module Absint = Cbsp_analysis.Absint
module Prover = Cbsp_analysis.Prover

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

(* --- the Poly domain -------------------------------------------------- *)

let test_poly_basics () =
  let p = Poly.affine ~base:3 ~per_scale:2 in
  Tutil.check_int "affine eval" 13 (Poly.eval p ~scale:5);
  let q = Poly.mul p p in
  Tutil.check_int "mul eval" (13 * 13) (Poly.eval q ~scale:5);
  Tutil.check_bool "negative const clamps to zero" true (Poly.is_zero (Poly.const (-4)));
  Tutil.check_bool "p + p = 2p" true
    (Poly.equal (Poly.add p p) (Poly.mul (Poly.const 2) p));
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
   in every binary. *)
let test_absint_matches_profile () =
  let program = fixed_scaled_program () in
  let input = Input.make ~name:"fixsc" ~seed:11 ~scale:3 () in
  List.iter
    (fun binary ->
      let counts = Absint.analyze_binary binary in
      let profile = Structprof.profile binary input in
      Marker.Map.iter
        (fun key sym ->
          match Sym.decided_at sym ~scale:3 with
          | Some n -> Tutil.check_int (Marker.to_string key) n (Structprof.count profile key)
          | None -> Alcotest.failf "undecided count for %s" (Marker.to_string key))
        counts;
      Marker.Map.iter
        (fun key n ->
          if not (Marker.Map.mem key counts) then
            Alcotest.failf "profiled %s (count %d) not predicted"
              (Marker.to_string key) n)
        profile)
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

(* The prover's verdict totals over the whole registry at the reference
   scale: a change to the analysis that decides fewer markers, or flips a
   verdict, shows here. *)
let test_registry_totals () =
  let candidates, mappable, unmappable, needs_dynamic =
    List.fold_left
      (fun (c, p, u, d) (e : Registry.entry) ->
        let binaries =
          Tutil.compile_all ~loop_splitting:e.Registry.loop_splitting
            (e.Registry.build ())
        in
        let report = Prover.prove ~binaries ~scale:10 in
        let p', u', d' = Prover.tally report in
        (c + report.Prover.pr_candidates, p + p', u + u', d + d'))
      (0, 0, 0, 0) Registry.all
  in
  Tutil.check_int "workloads" 21 (List.length Registry.all);
  Tutil.check_int "candidates" 476 candidates;
  Tutil.check_int "proved mappable" 312 mappable;
  Tutil.check_int "proved unmappable" 50 unmappable;
  Tutil.check_int "need dynamic profiling" 114 needs_dynamic

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
          Tutil.quick "sound at large scale" test_registry_sound_large_scale;
          Tutil.quick "registry totals at scale 10" test_registry_totals ] );
      ( "pipeline",
        [ Tutil.quick "static path skips profiling" test_pipeline_static_skips_profiling;
          Tutil.quick "static path falls back on residue" test_pipeline_static_fallback ] ) ]
