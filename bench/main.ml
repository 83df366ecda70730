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
module Executor_ref = Cbsp_oracle.Executor_ref
module Kmeans_ref = Cbsp_oracle.Kmeans_ref
module Simpoint_ref = Cbsp_oracle.Simpoint_ref
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

(* The collection-pass pair's fixture: [tiny_program]'s loop making 32
   sequential accesses per iteration over a 4 KB array.  Its 64 lines
   stay in L1, so after the first sweep every access hits, seven in
   eight on the previous access's line, and the 64,000 accesses
   outweigh the pass's fixed costs (a fresh hierarchy, the interval
   builder).  There the one call per line run that [Cpu.runs] makes
   stands against the eight calls of the per-element stream.  (A
   [tiny_program] pass misses on each of the 1,000 lines its 8,000
   accesses touch, and the two paths read the same.) *)
let hits_binary =
  let b = B.create ~name:"bench_hits" in
  let arr = B.data_array b ~name:"data" ~elem_bytes:8 ~length:512 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 2_000)
        [ B.work b ~insts:40 ~accesses:[ B.seq ~arr ~count:32 () ] () ] ];
  Lower.compile (B.finish b ~main:"main")
    (Config.v Cbsp_compiler.Isa.X86_32 Config.O2)

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
let fli_values, fli_dup_shape_points =
  let rng = Rng.create ~seed:15 in
  let centres = Array.init 12 (fun _ -> Array.init 15 (fun _ -> Rng.float rng -. 0.5)) in
  let values =
    Array.init 40 (fun v ->
        Array.map (fun x -> x +. (0.01 *. Rng.gaussian rng)) centres.(v mod 12))
  in
  ( values,
    Array.init 2_500 (fun _ ->
        values.(min (Rng.int rng ~bound:40) (Rng.int rng ~bound:40))) )

let fli_dup_shape_weights = Array.make 2_500 1.0

(* [fli_dup_shape]'s 40 values laid out in runs, as a real pass lays
   them out: a loop repeats one interval vector for a stretch of
   intervals (the 24 fli-fine passes hold 57-1,058 runs: 58 over 3,664
   points in one apsi pass, 570-1,058 in applu's).  Each run is 1-40
   points long, so a 256-point chunk holds about a dozen runs, where
   [fli_dup_shape]'s i.i.d. draws put nearly all 40 values in every
   chunk. *)
let fli_run_shape_points =
  let rng = Rng.create ~seed:16 in
  let points = Array.make 2_500 [||] in
  let i = ref 0 in
  while !i < 2_500 do
    let v = fli_values.(min (Rng.int rng ~bound:40) (Rng.int rng ~bound:40)) in
    let stop = min 2_500 (!i + 1 + Rng.int rng ~bound:40) in
    Array.fill points !i (stop - !i) v;
    i := stop
  done;
  points

(* vli-coarse's access mix as a fixed stream of 2^20 accesses, replayed
   one per call through [Cpu.observer]'s [on_access]: 78% on the line of
   the previous access (L1 way-0 hits), 13% on one of 64 hot lines in
   distinct L1 sets (other L1 hits), 6% on a fresh line of a far region
   (DRAM: the ~63k fresh lines outnumber what L2 and L3 hold, so every
   replay misses them again) and 3% on a 128 KB warm region (mostly L2
   hits).  One access in four writes.  A warm replay measures 78.1%
   same-line accesses, 91.0% L1 hits and 6.3% DRAM accesses. *)
let access_mix =
  let rng = Rng.create ~seed:50 in
  let n = 1 lsl 20 in
  let addrs = Array.make n 0 and writes = Bytes.make n '\000' in
  let prev = ref 0 and fresh = ref 0 in
  for i = 0 to n - 1 do
    let u = Rng.int rng ~bound:100 in
    let line =
      if u < 78 then !prev lsr 6
      else if u < 91 then Rng.int rng ~bound:64
      else if u < 97 then begin
        incr fresh;
        (1 lsl 20) + !fresh
      end
      else 4096 + Rng.int rng ~bound:2048
    in
    let addr = (line lsl 6) + Rng.int rng ~bound:64 in
    addrs.(i) <- addr;
    prev := addr;
    if Rng.int rng ~bound:4 = 0 then Bytes.set writes i '\001'
  done;
  (addrs, writes)

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

(* One collection pass over [hits_binary] in the shape Pipeline's
   collection runs give a [Fixed] plan: the FLI builder feeding a
   Streamprof collector, composed ahead of the CPU model, with a fresh
   paper Table 1 hierarchy per pass.
   With [runs] the CPU takes same-line repeats as runs, as the pipeline
   does; without, every access is its own call. *)
let collect_pass ~runs () =
  let n_blocks = hits_binary.Binary.n_blocks in
  let cpu = Cpu.create () in
  let col = Streamprof.create ~sp_config:Simpoint.default_config ~n_blocks () in
  let obs, finish =
    Interval.fli_stream ~n_blocks ~target:10_000
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
      ~emit:(Streamprof.emit col) ()
  in
  let runs = if runs then Cpu.runs cpu else None in
  let (_ : Executor.totals) =
    Executor.run ?runs hits_binary bench_input
      (Executor.compose [ obs; Cpu.observer cpu ])
  in
  ignore (finish () : int);
  Streamprof.stats col

(* FLI and dynamic VLI over [tiny_program]'s four paper binaries on a
   fresh engine (so every compile, profile and pass is computed): as one
   [Pipeline.run_batch], which executes each binary once for both
   estimators' plans, or as two [Pipeline.run] calls one after the
   other, which share the compiles only. *)
let paper_four = Config.paper_four ~loop_splitting:false ()

let fli_and_vli =
  Pipeline.
    [ Any Fli;
      Any (Vli { matching = Dynamic; primary = 0; match_options = None }) ]

let vli_fli ~batched () =
  let engine = Pipeline.create_engine () in
  let configs = paper_four and input = bench_input and target = 10_000 in
  if batched then
    ignore
      (Pipeline.run_batch ~engine fli_and_vli tiny_program ~configs ~input
         ~target)
  else
    List.iter
      (fun (Pipeline.Any est) ->
        ignore (Pipeline.run ~engine est tiny_program ~configs ~input ~target))
      fli_and_vli

let kernel_specs =
  [ (* executor: flat interpreter vs tree-walking reference *)
    kernel "exec/run_tiny"
      ~baseline:(List.assoc "exec/run_tiny" seed_baseline_ns)
      ~reference:"exec/run_tiny_tree"
      (fun () -> Executor.run tiny_binary bench_input Executor.null_observer);
    kernel "exec/run_tiny_tree"
      (fun () -> Executor_ref.run_tree tiny_binary bench_input Executor.null_observer);
    kernel "exec/collect_pass_tiny" ~reference:"exec/collect_pass_tiny_elementwise"
      (collect_pass ~runs:true);
    kernel "exec/collect_pass_tiny_elementwise" (collect_pass ~runs:false);
    kernel "profile/structprof_tiny"
      (fun () -> Structprof.profile tiny_binary bench_input);
    (* substrate: the RNG and one access through the cache model, alone,
       through the paper's Table 1 hierarchy, and as the CPU observer.
       The two [_miss] rows stride 65 lines, so every access misses L1
       (and the hierarchy's go to DRAM); [cache/cpu_access_mix] is the
       row with the pipeline's hit rate. *)
    (let rng = Rng.create ~seed:1 in
     kernel "rng/next_int64" (fun () -> Rng.next_int64 rng));
    (let cache = Cache.create ~capacity_bytes:32_768 ~associativity:2 ~line_bytes:64
     and addr = ref 0 in
     kernel "cache/l1_access_miss" (fun () ->
         addr := (!addr + 4_160) land 0xFFFFF;
         Cache.access cache ~addr:!addr ~is_write:false));
    (let hier = Hierarchy.create Hierarchy.paper_table1 and addr = ref 0 in
     kernel "cache/hierarchy_access_miss" (fun () ->
         addr := (!addr + 4_160) land 0x3FFFFF;
         Hierarchy.access hier ~addr:!addr ~is_write:false));
    (* the per-access path of a collection pass, warmed by one replay *)
    (let addrs, writes = access_mix in
     let on_access = (Cpu.observer (Cpu.create ())).Executor.on_access in
     let replay i = on_access addrs.(i) (Bytes.get writes i <> '\000') in
     for i = 0 to Array.length addrs - 1 do replay i done;
     let next = ref 0 in
     kernel "cache/cpu_access_mix" (fun () ->
         let i = !next in
         next := (i + 1) land (Array.length addrs - 1);
         replay i));
    (* k-means: Hamerly-pruned vs plain Lloyd *)
    kernel "kmeans/k8_150pts"
      ~baseline:(List.assoc "kmeans/k8_150pts" seed_baseline_ns)
      ~reference:"kmeans/k8_150pts_reference"
      (fun () ->
        Kmeans.run ~k:8 ~restarts:1
          (Kmeans.prepare ~weights:kmeans_weights ~points:kmeans_points));
    kernel "kmeans/k8_150pts_reference"
      (fun () ->
        Kmeans_ref.run_reference ~k:8 ~weights:kmeans_weights ~points:kmeans_points
          ~restarts:1 ());
    kernel "kmeans/k8_600pts" ~reference:"kmeans/k8_600pts_reference"
      (fun () ->
        Kmeans.run ~k:8 ~restarts:1
          (Kmeans.prepare ~weights:kmeans_big_weights ~points:kmeans_big_points));
    kernel "kmeans/k8_600pts_reference"
      (fun () ->
        Kmeans_ref.run_reference ~k:8 ~weights:kmeans_big_weights
          ~points:kmeans_big_points ~restarts:1 ());
    kernel "kmeans/fli_shape" ~reference:"kmeans/fli_shape_reference"
      (fun () ->
        Simpoint.pick_projected ~weights:fli_shape_weights
          ~points:fli_shape_points ());
    kernel "kmeans/fli_shape_reference"
      (fun () ->
        Simpoint_ref.pick_projected_reference ~weights:fli_shape_weights
          ~points:fli_shape_points);
    kernel "kmeans/fli_dup_shape" ~reference:"kmeans/fli_dup_shape_reference"
      (fun () ->
        Simpoint.pick_projected ~weights:fli_dup_shape_weights
          ~points:fli_dup_shape_points ());
    kernel "kmeans/fli_dup_shape_reference"
      (fun () ->
        Simpoint_ref.pick_projected_reference ~weights:fli_dup_shape_weights
          ~points:fli_dup_shape_points);
    kernel "kmeans/fli_run_shape" ~reference:"kmeans/fli_run_shape_reference"
      (fun () ->
        Simpoint.pick_projected ~weights:fli_dup_shape_weights
          ~points:fli_run_shape_points ());
    kernel "kmeans/fli_run_shape_reference"
      (fun () ->
        Simpoint_ref.pick_projected_reference ~weights:fli_dup_shape_weights
          ~points:fli_run_shape_points);
    (* projection: [project_into], the streaming collector's kernel, and
       the materialized reference's per-row [apply] and its [apply_all]
       over 300 rows *)
    kernel "projection/apply_400to15"
      ~baseline:(List.assoc "projection/apply_400to15" seed_baseline_ns)
      (fun () ->
        let p, v = projection_fixture in
        Simpoint_ref.apply p v);
    kernel "projection/project_into_400to15"
      ~baseline:(List.assoc "projection/project_into_400to15" seed_baseline_ns)
      (fun () ->
        let p, v = projection_fixture in
        Projection.project_into p v projection_out);
    kernel "projection/apply_all_300rows"
      (fun () ->
        let p, _ = projection_fixture in
        Simpoint_ref.apply_all p projection_rows);
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
    (* one execution per binary: FLI + VLI batched, against the same two
       estimators run one after the other *)
    kernel "validate/vli_fli_batched" ~reference:"validate/vli_fli_sequential"
      (vli_fli ~batched:true);
    kernel "validate/vli_fli_sequential" (vli_fli ~batched:false);
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

(* Heap words allocated by this domain, as Bechamel measures.  Bechamel's
   own [Instance.minor_allocated] and [major_allocated] read
   [Gc.quick_stat], whose counters move only at a collection on OCaml 5:
   a kernel that allocates less than a minor heap per sample reads 0
   words, and a larger one reads whole minor heaps.  [Gc.minor_words]
   counts up to the last allocation, and [Gc.counters]'s major words
   include the direct major allocations since the last slice. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

module Major_words = struct
  include Minor_words

  let get () =
    let _, _, major = Gc.counters () in
    major

  let label () = "major-words"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let major_words =
  Measure.instance (module Major_words) (Measure.register (module Major_words))

(* One measurement of one kernel: the OLS slopes per run of time (ns),
   with its r², and of the minor and major heap words allocated.  The
   allocation is the same on every host. *)
type sample = {
  name : string;
  ns : float;
  r2 : float;
  minor_words : float;
  major_words : float;
}

(* Words allocated per run of a kernel: the least-squares slope of
   [label]'s words against runs, fitted with an intercept.  Reading the
   counters allocates the same few words in every sample, and a fit
   through the origin (Bechamel's OLS) spreads them over the runs: a
   kernel that allocates nothing read 3.8 words per run in a 5-sample
   smoke run.  The intercept takes them, so a kernel whose allocation is
   exactly linear in runs reads its per-run words in any mode.  A kernel
   slow enough to fit one run count in its quota reads words per run,
   overhead included. *)
let words_per_run (samples : Measurement_raw.t array) ~label =
  let n = float_of_int (Array.length samples) in
  let xs = Array.map Measurement_raw.run samples in
  let ys = Array.map (Measurement_raw.get ~label) samples in
  let mean a = Array.fold_left ( +. ) 0.0 a /. n in
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  Array.iteri
    (fun i x ->
      sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my));
      sxx := !sxx +. ((x -. mx) *. (x -. mx)))
    xs;
  if !sxx > 0.0 then !sxy /. !sxx else my /. mx

(* Measure [tests]; return one sample per kernel, sorted by name. *)
let measure tests ~quota_s ~limit =
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota_s) ~kde:None
      ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock; minor_words; major_words ] in
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
  let time = Analyze.all ols Instance.monotonic_clock tbl in
  Hashtbl.fold
    (fun name ols_result rows ->
      let words instance =
        words_per_run (Hashtbl.find tbl name).Benchmark.lr
          ~label:(Measure.label instance)
      in
      { name;
        ns =
          (match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | Some [] | None -> nan);
        r2 =
          (match Analyze.OLS.r_square ols_result with
          | Some r -> r
          | None -> nan);
        minor_words = words minor_words;
        major_words = words major_words }
      :: rows)
    time []
  |> List.sort (fun a b -> compare a.name b.name)

let spread runs =
  match runs with
  | [] | [ _ ] -> None
  | first :: _ ->
    let lo = List.fold_left Float.min first runs
    and hi = List.fold_left Float.max first runs in
    if Float.is_finite lo && lo > 0.0 then Some ((hi -. lo) /. lo) else None

let print_rows rows =
  Fmt.pr "  %-32s %14s %8s %7s %12s %10s@." "benchmark" "time/run" "r2"
    "spread" "minor w/run" "major w/run";
  let pretty ns =
    if ns > 1e9 then Fmt.str "%8.3f s " (ns /. 1e9)
    else if ns > 1e6 then Fmt.str "%8.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Fmt.str "%8.3f us" (ns /. 1e3)
    else Fmt.str "%8.1f ns" ns
  in
  List.iter
    (fun (r, runs) ->
      Fmt.pr "  %-32s %14s %8.3f %7s %12.1f %10.1f@." r.name (pretty r.ns) r.r2
        (match spread runs with
        | Some x -> Fmt.str "%.0f%%" (100.0 *. x)
        | None -> "-")
        r.minor_words r.major_words)
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
    match List.find_opt (fun (r, _) -> r.name = name) rows with
    | Some (r, _) when Float.is_finite r.ns && r.ns > 0.0 -> Some r.ns
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
      let r, runs =
        match List.find_opt (fun (r, _) -> r.name = spec.ks_name) rows with
        | Some row -> row
        | None ->
          ( { name = spec.ks_name; ns = nan; r2 = nan; minor_words = nan;
              major_words = nan },
            [] )
      in
      let ns = r.ns in
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
        (json_float ns) (json_float r.r2);
      Printf.fprintf oc "      \"runs\": %d,\n      \"spread\": %s,\n"
        (List.length runs)
        (json_opt_float (spread runs));
      Printf.fprintf oc
        "      \"minor_words_per_op\": %s,\n      \"major_words_per_op\": %s,\n"
        (json_float r.minor_words) (json_float r.major_words);
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
  (* One row per kernel: the fastest run's sample, then every run's
     ns/run. *)
  let all = List.concat runs in
  let rows =
    List.map
      (fun first ->
        let mine = List.filter (fun r -> r.name = first.name) all in
        let fastest =
          List.fold_left
            (fun b r -> if r.ns < b.ns || Float.is_nan b.ns then r else b)
            (List.hd mine) (List.tl mine)
        in
        (fastest, List.map (fun r -> r.ns) mine))
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
