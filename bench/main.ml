(* The hot-kernel ledger: one bechamel measurement per kernel under the
   pipeline's stages (executor, cache model, structure profiling,
   projection, k-means, artifact store, samplers, validation scoring),
   each set against its recorded seed baseline and, where one exists,
   its reference implementation.  The rows are written to
   BENCH_kernels.json, the machine-readable perf trajectory.  End-to-end
   speed is perfbench's question; the paper's tables and figures are
   regenerated by `cbsp experiment all`.

   Usage: bench [--json[=PATH]] [--smoke]
     --json=PATH  write the ledger to PATH (default BENCH_kernels.json)
     --smoke      a tiny quota per kernel: checks that every kernel runs

   Every kernel is measured [repeated_runs] times (once under --smoke);
   its row reports the fastest run and the spread over all of them,
   because one run reads up to 3x of another minutes apart on a shared
   host. *)

open Bechamel
open Toolkit

module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Input = Cbsp_source.Input
module Config = Cbsp_compiler.Config
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Structprof = Cbsp_profile.Structprof
module Kmeans = Cbsp_simpoint.Kmeans
module Projection = Cbsp_simpoint.Projection
module Sampler = Cbsp_sampling.Sampler
module Cache = Cbsp_cache.Cache
module Hierarchy = Cbsp_cache.Hierarchy
module Cpu = Cbsp_cache.Cpu
module Pipeline = Cbsp.Pipeline
module Streamprof = Cbsp.Streamprof
module Simpoint = Cbsp_simpoint.Simpoint
module Bic = Cbsp_simpoint.Bic
module Rng = Cbsp_util.Rng
module Diskcache = Cbsp_engine.Diskcache
module Verrors = Cbsp_validate.Errors
module Vtruth = Cbsp_validate.Truth
module Vmatrix = Cbsp_validate.Matrix
module Leaderboard = Cbsp_validate.Leaderboard

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed regions).            *)

let tiny_program =
  let b = B.create ~name:"bench_tiny" in
  let arr = B.data_array b ~name:"data" ~elem_bytes:8 ~length:50_000 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 2_000)
        [ B.work b ~insts:40 ~accesses:[ B.seq ~arr ~count:4 () ] () ] ];
  B.finish b ~main:"main"

let tiny_binary =
  Lower.compile tiny_program (Config.v Cbsp_compiler.Isa.X86_32 Config.O2)

let bench_input = Input.make ~name:"bench" ~seed:3 ~scale:2 ()

let kmeans_points =
  let rng = Rng.create ~seed:8 in
  Array.init 150 (fun _ -> Array.init 15 (fun _ -> Rng.float rng))

let kmeans_weights = Array.make 150 1.0

let projection_fixture =
  let p = Projection.create ~seed:4 ~in_dim:400 ~out_dim:15 in
  let rng = Rng.create ~seed:5 in
  (p, Array.init 400 (fun _ -> Rng.float rng))

let projection_out = Array.make 15 0.0

let kmeans_big_points =
  let rng = Rng.create ~seed:12 in
  Array.init 600 (fun _ -> Array.init 15 (fun _ -> Rng.float rng))

let kmeans_big_weights =
  let rng = Rng.create ~seed:13 in
  Array.init 600 (fun _ -> 1.0 +. Rng.float rng)

(* One FLI pass's size: ~2.5k projected intervals in 15 dimensions,
   clustered for k = 1..10 with 5 restarts each.  The points sit tightly
   around 12 phase centres of uneven popularity, so Lloyd converges in a
   few iterations and the per-restart seeding weighs as it does in a
   real pass (the 150- and 600-point fixtures above are uniform noise at
   one k).  The Gaussian noise makes every point distinct, so this is
   the all-distinct guard (m = n) of the grouped clustering, not the
   production shape. *)
let fli_shape_points =
  let rng = Rng.create ~seed:14 in
  let centres = Array.init 12 (fun _ -> Array.init 15 (fun _ -> Rng.float rng -. 0.5)) in
  Array.init 2_500 (fun _ ->
      let phase = min (Rng.int rng ~bound:12) (Rng.int rng ~bound:12) in
      Array.map (fun x -> x +. (0.01 *. Rng.gaussian rng)) centres.(phase))

let fli_shape_weights = Array.make 2_500 1.0

(* The production clustering shape: like [fli_shape], but the 2.5k
   points are drawn from 40 distinct values, as a real FLI pass's loops
   repeat the exact same interval vector (the fli-fine passes hold
   25-54 distinct points among 1.4k-3.7k intervals).  The 40 values sit
   around the same kind of 12 uneven phase centres. *)
let fli_dup_shape_points =
  let rng = Rng.create ~seed:15 in
  let centres = Array.init 12 (fun _ -> Array.init 15 (fun _ -> Rng.float rng -. 0.5)) in
  let values =
    Array.init 40 (fun v ->
        Array.map (fun x -> x +. (0.01 *. Rng.gaussian rng)) centres.(v mod 12))
  in
  Array.init 2_500 (fun _ ->
      values.(min (Rng.int rng ~bound:40) (Rng.int rng ~bound:40)))

let fli_dup_shape_weights = Array.make 2_500 1.0

(* What [Simpoint.pick_projected]'s All_k search pays, with every k
   clustered by [Kmeans.run_reference] and scored by [Bic.score]. *)
let all_k_reference ~weights ~points () =
  let c = Simpoint.default_config in
  List.init c.Simpoint.max_k (fun i ->
      let k = i + 1 in
      Bic.score ~weights ~points
        (Kmeans.run_reference ~seed:(c.Simpoint.seed + k)
           ~restarts:c.Simpoint.restarts ~max_iters:c.Simpoint.max_iters ~k
           ~weights ~points ()))

let projection_rows =
  (* two-thirds sparse, like normalized BBVs *)
  let rng = Rng.create ~seed:6 in
  Array.init 300 (fun _ ->
      Array.init 400 (fun j -> if j mod 3 = 0 then Rng.float rng else 0.0))

(* Seed-kernel timings recorded on the dev container immediately BEFORE
   the kernel-optimization pass (bechamel OLS ns/run, quota 0.25 s).
   These are the fixed denominators of the perf trajectory:
   BENCH_kernels.json reports speedup_vs_seed against them, so any later
   regression shows up as a shrinking ratio.  Refresh them only when the
   fixtures change, and say so in the PR.

   The projection/project_into kernel is new with the streaming-profile
   refactor; the store/* kernels are new with the
   persistent artifact cache; validate/matrix_smoke is new with
   the accuracy-gated validation harness.  Their baselines are the first
   recorded measurements (same container, same quota), so their
   trajectory starts at 1.0x by construction and any later change is
   relative to that. *)
let seed_baseline_ns =
  [ ("exec/run_tiny", 114_905.0);
    ("kmeans/k8_150pts", 306_061.0);
    ("projection/apply_400to15", 7_550.0);
    ("projection/project_into_400to15", 2_855.0);
    ("store/persist_roundtrip", 4_243_560.0);
    ("store/warm_lookup", 2_072_520.0);
    ("validate/matrix_smoke", 6_936_000.0) ]

(* validate/matrix_smoke's baseline scored a fixture of this many
   methods; while Vmatrix.methods has another count, the fixture does
   different work and the ratio against that baseline means nothing. *)
let matrix_smoke_baseline_methods = 7

(* A 2000-interval synthetic population with 8 phase-like strata whose
   CPI levels differ, exercising every branch of the estimators
   (allocation, per-stratum SRS, Satterthwaite df). *)
let sampling_population =
  let rng = Rng.create ~seed:30 in
  let n = 2000 in
  let strata = Array.init n (fun _ -> Rng.int rng ~bound:8) in
  let insts = Array.init n (fun _ -> 5_000.0 +. (10_000.0 *. Rng.float rng)) in
  let cycles =
    Array.init n (fun i ->
        let base = 1.0 +. (0.5 *. float_of_int strata.(i)) in
        insts.(i) *. (base +. (0.2 *. Rng.float rng)))
  in
  let proxy = Array.map (fun s -> float_of_int s /. 8.0) strata in
  (insts, cycles, strata, proxy)

(* Validation-harness fixture: synthetic estimate records at the full
   matrix shape (21 workloads x 8 methods x 4 binaries).  The kernel
   scores lib/validate itself — per-cell errors, truth table,
   skip-and-count aggregation, ranking, cbsp-validate/1 serialization —
   without the pipeline runs underneath (those are timed end to end by
   perfbench's validate-matrix workload). *)
let validate_fixture =
  let labels = List.map Config.label (Config.paper_four ~loop_splitting:false ()) in
  let rng = Rng.create ~seed:47 in
  let record method_ label =
    let insts = 50_000 + Rng.int rng ~bound:50_000 in
    let cycles = float_of_int insts *. (1.2 +. Rng.float rng) in
    let est = (cycles /. float_of_int insts) *. (0.95 +. (0.1 *. Rng.float rng)) in
    { Pipeline.er_method = method_; er_label = label;
      er_truth =
        { Pipeline.t_insts = insts; t_cycles = cycles;
          t_cpi = cycles /. float_of_int insts };
      er_est_cpi = est; er_est_cycles = est *. float_of_int insts }
  in
  List.map
    (fun w ->
      (w, List.concat_map (fun m -> List.map (record m) labels) Vmatrix.methods))
    (List.init 21 (Printf.sprintf "w%02d"))

(* Artifact-cache fixture: a ~100 KB marshaled payload (the size class
   of a memoized profile), round-tripped through a real on-disk cache
   directory under the temp directory.  [persist_roundtrip] pays
   encode + tmp-write + rename + verified read-back; [warm_lookup] is
   the warm-start path — a verified read of an already-published entry
   plus the Marshal decode.  The directory is removed at exit. *)
let store_cache =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "cbsp-bench-store-%d" (Unix.getpid ()))
     in
     at_exit (fun () ->
         try
           Array.iter
             (fun n -> Sys.remove (Filename.concat dir n))
             (Sys.readdir dir);
           Sys.rmdir dir
         with Sys_error _ -> ());
     Diskcache.create ~dir ~name:"bench" ())

let store_payload =
  Marshal.to_string (Array.init 12_000 (fun i -> float_of_int i *. 1.5)) []

let store_warm_key = "bench-warm-entry"

let store_warm_ready =
  lazy (Diskcache.put (Lazy.force store_cache) ~key:store_warm_key store_payload)

type kernel_spec = {
  ks_name : string;
  ks_baseline : float option;   (* recorded seed ns/op for this kernel *)
  ks_stale : string option;     (* why the baseline no longer compares *)
  ks_reference : string option; (* ks_name of the reference implementation *)
  ks_test : Test.t;
}

let kernel ?baseline ?stale ?reference name f =
  { ks_name = name; ks_baseline = baseline; ks_stale = stale;
    ks_reference = reference; ks_test = Test.make ~name (Staged.stage f) }

(* One collection pass in the shape Pipeline.run_pass gives a [Fixed]
   plan: the FLI builder feeding a Streamprof collector, composed ahead
   of the CPU model, with a fresh paper Table 1 hierarchy per pass. *)
let collect_pass () =
  let n_blocks = tiny_binary.Binary.n_blocks in
  let cpu = Cpu.create () in
  let col = Streamprof.create ~sp_config:Simpoint.default_config ~n_blocks () in
  let obs, finish =
    Interval.fli_stream ~n_blocks ~target:10_000
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
      ~emit:(Streamprof.emit col) ()
  in
  let (_ : Executor.totals) =
    Executor.run tiny_binary bench_input
      (Executor.compose [ obs; Cpu.observer cpu ])
  in
  ignore (finish () : int);
  Streamprof.stats col

let kernel_specs =
  [ (* executor: flat interpreter vs tree-walking reference *)
    kernel "exec/run_tiny"
      ~baseline:(List.assoc "exec/run_tiny" seed_baseline_ns)
      ~reference:"exec/run_tiny_tree"
      (fun () -> Executor.run tiny_binary bench_input Executor.null_observer);
    kernel "exec/run_tiny_tree"
      (fun () -> Executor.run_tree tiny_binary bench_input Executor.null_observer);
    kernel "exec/collect_pass_tiny" collect_pass;
    kernel "profile/structprof_tiny"
      (fun () -> Structprof.profile tiny_binary bench_input);
    (* substrate: the RNG and one access through the cache model, alone
       and through the paper's Table 1 hierarchy *)
    (let rng = Rng.create ~seed:1 in
     kernel "rng/next_int64" (fun () -> Rng.next_int64 rng));
    (let cache =
       Cache.create ~capacity_bytes:32_768 ~associativity:2 ~line_bytes:64 ()
     and addr = ref 0 in
     kernel "cache/l1_access" (fun () ->
         addr := (!addr + 4_160) land 0xFFFFF;
         Cache.access cache ~addr:!addr ~is_write:false));
    (let hier = Hierarchy.create Hierarchy.paper_table1 and addr = ref 0 in
     kernel "cache/hierarchy_access" (fun () ->
         addr := (!addr + 4_160) land 0x3FFFFF;
         Hierarchy.access hier ~addr:!addr ~is_write:false));
    (* k-means: Hamerly-pruned vs plain Lloyd *)
    kernel "kmeans/k8_150pts"
      ~baseline:(List.assoc "kmeans/k8_150pts" seed_baseline_ns)
      ~reference:"kmeans/k8_150pts_reference"
      (fun () ->
        Kmeans.run ~k:8 ~restarts:1
          (Kmeans.prepare ~weights:kmeans_weights ~points:kmeans_points));
    kernel "kmeans/k8_150pts_reference"
      (fun () ->
        Kmeans.run_reference ~k:8 ~weights:kmeans_weights ~points:kmeans_points
          ~restarts:1 ());
    kernel "kmeans/k8_600pts" ~reference:"kmeans/k8_600pts_reference"
      (fun () ->
        Kmeans.run ~k:8 ~restarts:1
          (Kmeans.prepare ~weights:kmeans_big_weights ~points:kmeans_big_points));
    kernel "kmeans/k8_600pts_reference"
      (fun () ->
        Kmeans.run_reference ~k:8 ~weights:kmeans_big_weights
          ~points:kmeans_big_points ~restarts:1 ());
    kernel "kmeans/fli_shape" ~reference:"kmeans/fli_shape_reference"
      (fun () ->
        Simpoint.pick_projected ~weights:fli_shape_weights
          ~points:fli_shape_points ());
    kernel "kmeans/fli_shape_reference"
      (all_k_reference ~weights:fli_shape_weights ~points:fli_shape_points);
    kernel "kmeans/fli_dup_shape" ~reference:"kmeans/fli_dup_shape_reference"
      (fun () ->
        Simpoint.pick_projected ~weights:fli_dup_shape_weights
          ~points:fli_dup_shape_points ());
    kernel "kmeans/fli_dup_shape_reference"
      (all_k_reference ~weights:fli_dup_shape_weights
         ~points:fli_dup_shape_points);
    (* projection: buffer-reusing apply_all vs per-row map *)
    kernel "projection/apply_400to15"
      ~baseline:(List.assoc "projection/apply_400to15" seed_baseline_ns)
      (fun () ->
        let p, v = projection_fixture in
        Projection.apply p v);
    kernel "projection/project_into_400to15"
      ~baseline:(List.assoc "projection/project_into_400to15" seed_baseline_ns)
      (fun () ->
        let p, v = projection_fixture in
        Projection.project_into p v projection_out);
    kernel "projection/apply_all_300rows"
      ~reference:"projection/apply_all_300rows_map"
      (fun () ->
        let p, _ = projection_fixture in
        Projection.apply_all p projection_rows);
    kernel "projection/apply_all_300rows_map"
      (fun () ->
        let p, _ = projection_fixture in
        Array.map (Projection.apply p) projection_rows);
    (* persistent artifact cache: publish + verified read-back of a
       ~100 KB entry, and the warm-start lookup alone *)
    kernel "store/persist_roundtrip"
      ~baseline:(List.assoc "store/persist_roundtrip" seed_baseline_ns)
      (fun () ->
        let dc = Lazy.force store_cache in
        Diskcache.put dc ~key:"bench-roundtrip" store_payload;
        Diskcache.find dc ~key:"bench-roundtrip");
    kernel "store/warm_lookup"
      ~baseline:(List.assoc "store/warm_lookup" seed_baseline_ns)
      (fun () ->
        Lazy.force store_warm_ready;
        let dc = Lazy.force store_cache in
        match Diskcache.find dc ~key:store_warm_key with
        | Some payload -> ignore (Marshal.from_string payload 0 : float array)
        | None -> failwith "warm entry vanished");
    (* sampling estimators: cost of one estimate over a 2000-interval
       population (selection + ratio estimate + t-quantile CI), the
       per-run overhead each sampler adds on top of the profiling pass *)
    kernel "sampling/srs_2000"
      (fun () ->
        let insts, cycles, _, _ = sampling_population in
        Sampler.srs ~rng:(Rng.create ~seed:31) ~n:64 ~insts ~cycles ());
    kernel "sampling/systematic_2000"
      (fun () ->
        let insts, cycles, _, _ = sampling_population in
        Sampler.systematic ~rng:(Rng.create ~seed:31) ~n:64 ~insts ~cycles ());
    kernel "sampling/stratified_2000"
      (fun () ->
        let insts, cycles, strata, proxy = sampling_population in
        Sampler.stratified ~rng:(Rng.create ~seed:31) ~n:64 ~strata ~proxy
          ~insts ~cycles ());
    (* validation harness: one full-shape matrix (21 workloads x 8
       methods x 4 binaries + 4 pairs) scored, ranked and serialized as
       cbsp-validate/1 — the post-pipeline overhead `cbsp validate` adds *)
    kernel "validate/matrix_smoke"
      ~baseline:(List.assoc "validate/matrix_smoke" seed_baseline_ns)
      ?stale:
        (let n = List.length Vmatrix.methods in
         if n = matrix_smoke_baseline_methods then None
         else
           Some
             (Printf.sprintf
                "baseline scored a %d-method fixture; the fixture now has %d"
                matrix_smoke_baseline_methods n))
      (fun () ->
        let rows =
          List.map
            (fun (w, records) ->
              { Vmatrix.w_name = w;
                w_cells =
                  Verrors.cpi_cells ~workload:w records
                  @ Verrors.speedup_cells ~workload:w ~pairs:Vmatrix.pairs
                      records;
                w_truth = Vtruth.table records;
                w_mismatches = Vtruth.mismatches records;
                w_failed = [];
                w_outputs = [];
                w_timings = [] })
            validate_fixture
        in
        let matrix =
          { Vmatrix.m_workloads = rows;
            m_options = Vmatrix.default_options;
            m_jobs = 1 }
        in
        let board = Leaderboard.build matrix in
        Cbsp_json.Jsonx.to_string (Leaderboard.to_json matrix board)) ]

let repeated_runs = 7

(* Measure [tests]; return (name, ns/run, r2) rows sorted by name. *)
let measure tests ~quota_s ~limit =
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota_s) ~kde:None
      ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          Hashtbl.replace tbl (Test.Elt.name elt) result)
        (Test.elements test))
    tests;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock tbl in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, ns, r2) :: !rows)
    results;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows

let spread runs =
  match runs with
  | [] | [ _ ] -> None
  | first :: _ ->
    let lo = List.fold_left Float.min first runs
    and hi = List.fold_left Float.max first runs in
    if Float.is_finite lo && lo > 0.0 then Some ((hi -. lo) /. lo) else None

let print_rows rows =
  Fmt.pr "  %-32s %14s %8s %7s@." "benchmark" "time/run" "r2" "spread";
  let pretty ns =
    if ns > 1e9 then Fmt.str "%8.3f s " (ns /. 1e9)
    else if ns > 1e6 then Fmt.str "%8.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Fmt.str "%8.3f us" (ns /. 1e3)
    else Fmt.str "%8.1f ns" ns
  in
  List.iter
    (fun (name, ns, r2, runs) ->
      Fmt.pr "  %-32s %14s %8.3f %7s@." name (pretty ns) r2
        (match spread runs with
        | Some x -> Fmt.str "%.0f%%" (100.0 *. x)
        | None -> "-"))
    rows

(* ------------------------------------------------------------------ *)
(* BENCH_kernels.json: the machine-readable perf trajectory.           *)

(* Hand-rolled JSON (the tree is tiny).  Non-finite floats become null
   so the file always parses. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_opt_float = function None -> "null" | Some f -> json_float f

let write_kernels_json ~path ~mode rows =
  let ns_of name =
    match List.find_opt (fun (n, _, _, _) -> n = name) rows with
    | Some (_, ns, _, _) when Float.is_finite ns && ns > 0.0 -> Some ns
    | _ -> None
  in
  Cbsp_util.Io.with_out_file path @@ fun oc ->
  Printf.fprintf oc "{\n  \"schema\": \"cbsp-bench-kernels/1\",\n";
  Printf.fprintf oc "  \"mode\": %S,\n" mode;
  (* The host fingerprint: ledgers from hosts of different sizes do not
     compare. *)
  Printf.fprintf oc "  \"host_vcpus\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"kernels\": [";
  List.iteri
    (fun i spec ->
      let ns, r2, runs =
        match List.find_opt (fun (n, _, _, _) -> n = spec.ks_name) rows with
        | Some (_, ns, r2, runs) -> (ns, r2, runs)
        | None -> (nan, nan, [])
      in
      let speedup_vs_seed, baseline_note =
        match (spec.ks_baseline, spec.ks_stale) with
        | None, _ -> (None, None)
        | Some _, Some note -> (None, Some note)
        | Some base, None when Float.is_finite ns && ns > 0.0 ->
          (Some (base /. ns), None)
        | Some _, None -> (None, Some "no finite measurement")
      in
      let speedup_vs_reference =
        match spec.ks_reference with
        | Some ref_name -> (
          match ns_of ref_name with
          | Some ref_ns when Float.is_finite ns && ns > 0.0 ->
            Some (ref_ns /. ns)
          | _ -> None)
        | None -> None
      in
      Printf.fprintf oc "%s\n    { \"name\": %S,\n"
        (if i = 0 then "" else ",")
        spec.ks_name;
      Printf.fprintf oc "      \"ns_per_op\": %s,\n      \"r2\": %s,\n"
        (json_float ns) (json_float r2);
      Printf.fprintf oc "      \"runs\": %d,\n      \"spread\": %s,\n"
        (List.length runs)
        (json_opt_float (spread runs));
      Printf.fprintf oc "      \"seed_baseline_ns\": %s,\n"
        (json_opt_float spec.ks_baseline);
      Printf.fprintf oc "      \"speedup_vs_seed\": %s,\n"
        (json_opt_float speedup_vs_seed);
      Printf.fprintf oc "      \"baseline_note\": %s,\n"
        (match baseline_note with
        | Some note -> Printf.sprintf "%S" note
        | None -> "null");
      Printf.fprintf oc "      \"reference\": %s,\n"
        (match spec.ks_reference with
        | Some r -> Printf.sprintf "%S" r
        | None -> "null");
      Printf.fprintf oc "      \"speedup_vs_reference\": %s }"
        (json_opt_float speedup_vs_reference))
    kernel_specs;
  Printf.fprintf oc "\n  ]\n}\n"

let () =
  let path = ref "BENCH_kernels.json" and smoke = ref false in
  let bad = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if arg = "--json" then ()
        else if String.length arg > 7 && String.sub arg 0 7 = "--json=" then
          path := String.sub arg 7 (String.length arg - 7)
        else if arg = "--smoke" then smoke := true
        else bad := arg :: !bad)
    Sys.argv;
  if !bad <> [] then begin
    Fmt.epr "unknown arguments: %s@." (String.concat " " (List.rev !bad));
    Fmt.epr "usage: bench [--json[=PATH]] [--smoke]@.";
    exit 2
  end;
  let mode = if !smoke then "smoke" else "full" in
  (* Cache directory creation and the warm entry's publication are
     one-time fixture setup, not part of the measured kernels. *)
  ignore (Lazy.force store_cache : Diskcache.t);
  Lazy.force store_warm_ready;
  let quota_s, limit = if !smoke then (0.01, 5) else (0.5, 2000) in
  Fmt.pr "=== Hot-kernel benchmarks (%s mode) ===@." mode;
  let tests = List.map (fun s -> s.ks_test) kernel_specs in
  let runs =
    List.init
      (if !smoke then 1 else repeated_runs)
      (fun _ -> measure tests ~quota_s ~limit)
  in
  (* One row per kernel: the fastest run's (name, ns/run, r2), then every
     run's ns/run. *)
  let all = List.concat runs in
  let rows =
    List.map
      (fun (name, _, _) ->
        let mine = List.filter (fun (n, _, _) -> n = name) all in
        let _, ns, r2 =
          List.fold_left
            (fun ((_, best, _) as b) ((_, ns, _) as r) ->
              if ns < best || Float.is_nan best then r else b)
            (List.hd mine) (List.tl mine)
        in
        (name, ns, r2, List.map (fun (_, ns, _) -> ns) mine))
      (List.hd runs)
  in
  print_rows rows;
  write_kernels_json ~path:!path ~mode rows;
  Fmt.pr "@.wrote %s@." !path;
  (* Like `cbsp run`, every bench invocation leaves a manifest behind:
     bench has no timing sink, so its stage table is empty, but the
     metrics snapshot records what the measured code actually did. *)
  Cbsp_obs.Manifest.write ~argv:(Array.to_list Sys.argv) ~tool:"bench"
    ~stages:[] ~failures:[] ~path:"bench-manifest.json" ();
  Fmt.epr "wrote bench-manifest.json@."
