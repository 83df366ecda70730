(* The traced run's two halves.

   [traced_op] runs the workload's operation, the same call the untraced
   repetitions time, with the tracer on, and records how much each
   library counter grew; the engine's per-stage [Timing] records are the
   stage breakdown.

   [decompose] re-runs every collection pass of the workload by calling
   the layers' public functions directly, once per layer boundary:

   - exec:    [Executor.run] with a no-op observer (all events built);
   - cache:   the same run driving [Cpu.observer], minus exec;
   - profile: the interval builder + [Streamprof] + [Cpu], minus cache;
   - project: [Projection.project_into] alone over the same BBVs;
   - struct/matching/simpoint: [Structprof.profile], [Matching.find] and
     [Simpoint.pick_projected] on the same inputs the pipeline uses.

   Self times are differences of whole passes, so no span ever sits
   inside the library. *)

module W = Workload
module Pipeline = Cbsp.Pipeline
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module Config = Cbsp_compiler.Config
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Structprof = Cbsp_profile.Structprof
module Streamprof = Cbsp.Streamprof
module Matching = Cbsp.Matching
module Cpu = Cbsp_cache.Cpu
module Simpoint = Cbsp_simpoint.Simpoint
module Projection = Cbsp_simpoint.Projection
module Stats = Cbsp_util.Stats
module Store = Cbsp_engine.Store
module Metrics = Cbsp_obs.Metrics
module Tracer = Cbsp_obs.Tracer

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let counter name = Metrics.value (Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Traced operation.                                                   *)

(* Every counter series, summed over all its labels but "store". *)
let counters () =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (it : Metrics.item) ->
      match it.Metrics.it_sample with
      | Metrics.Counter_sample v ->
        let key = (it.Metrics.it_name, List.assoc_opt "store" it.Metrics.it_labels) in
        Hashtbl.replace sums key
          (v + Option.value ~default:0 (Hashtbl.find_opt sums key))
      | Metrics.Gauge_sample _ | Metrics.Histogram_sample _ -> ())
    (Metrics.snapshot ());
  fun ?store name -> Option.value ~default:0 (Hashtbl.find_opt sums (name, store))

type traced = {
  t_wall : float;
  t_outcome : W.outcome;
  t_count : ?store:string -> string -> int;
      (** How much a counter grew during the operation. *)
}

(* The untraced side's very call, [Workload.run_op], with the tracer on. *)
let traced_op kind ~seed progs =
  let before = counters () in
  Tracer.enable ();
  let outcome, wall = timed (fun () -> W.run_op kind ~seed progs) in
  Tracer.disable ();
  let after = counters () in
  { t_wall = wall; t_outcome = outcome;
    t_count = (fun ?store name -> after ?store name - before ?store name) }

(* ------------------------------------------------------------------ *)
(* Layer decomposition.                                                *)

(* The cut plan of a pass: fixed-length passes at one target cut the same
   points whatever method asked for them; VLI passes cut at their
   recorded boundary list. *)
let fli_plan p = List.map (fun c -> (p.W.name, Config.label c, "fli")) p.W.configs

let vli_plan p (r : Pipeline.vli_result) =
  let cut = Digest.to_hex (Store.digest r.Pipeline.vli_points.Pipeline.pt_boundaries) in
  List.map (fun c -> (p.W.name, Config.label c, cut)) p.W.configs

type totals = {
  mutable exec_s : float;        (** All events built, no consumer. *)
  mutable cache_pass_s : float;  (** Exec + cache model. *)
  mutable collect_pass_s : float;  (** Exec + cache + interval profile. *)
  mutable insts : int;
  mutable accesses : float;
  mutable llc_misses : float;
  mutable intervals : int;
  mutable project_s : float;
  mutable cluster_s : float;
  mutable points : int;
  mutable kmeans_iters : int;
  mutable distance_evals : int;
  mutable struct_s : float;
  mutable matching_s : float;
  mutable mappable : int;
  mutable candidates : int;
  mutable plans : (string * string * string) list;
      (** (program, binary, cut plan) of every pass the operation made. *)
}

let new_totals () =
  { exec_s = 0.0; cache_pass_s = 0.0; collect_pass_s = 0.0;
    insts = 0; accesses = 0.0; llc_misses = 0.0; intervals = 0;
    project_s = 0.0; cluster_s = 0.0; points = 0; kmeans_iters = 0;
    distance_evals = 0; struct_s = 0.0; matching_s = 0.0; mappable = 0;
    candidates = 0; plans = [] }

type plan =
  | Fli of int
  | Vli_primary of int * (Marker.key -> bool)
  | Vli_follower of Interval.boundary array

(* The interval builder the pipeline uses for [plan]; the finisher
   returns (interval count, recorded boundaries). *)
let builder plan ~n_blocks ?cycles ?extras ~emit () =
  match plan with
  | Fli target ->
    let obs, finish =
      Interval.fli_stream ~n_blocks ~target ?cycles ?extras ~emit ()
    in
    (obs, fun () -> (finish (), [||]))
  | Vli_primary (target, mappable) ->
    Interval.vli_recorder_stream ~n_blocks ~target ~mappable ?cycles ?extras
      ~emit ()
  | Vli_follower boundaries ->
    let obs, finish =
      Interval.vli_follower_stream ~boundaries ?cycles ?extras ~emit ()
    in
    (obs, fun () -> (finish (), [||]))

let has_bbvs = function Fli _ | Vli_primary _ -> true | Vli_follower _ -> false

(* [Projection.project_into] over this pass's normalized BBVs, batched in
   [Streamprof.chunk_size] rows as the collector does; only the
   projection calls are timed. *)
let projection_s ~sp_config (binary : Binary.t) input plan =
  let n_blocks = binary.Binary.n_blocks in
  let proj = Simpoint.projection_for ~config:sp_config ~in_dim:n_blocks () in
  let rows = Array.init Streamprof.chunk_size (fun _ -> Array.make n_blocks 0.0) in
  let out = Array.make (Projection.out_dim proj) 0.0 in
  let fill = ref 0 and spent = ref 0.0 in
  let flush () =
    let t0 = now () in
    for s = 0 to !fill - 1 do
      Projection.project_into proj rows.(s) out
    done;
    spent := !spent +. (now () -. t0);
    fill := 0
  in
  let emit (iv : Interval.interval) =
    if iv.Interval.insts > 0 then begin
      Stats.normalize_into iv.Interval.bbv rows.(!fill);
      incr fill;
      if !fill = Streamprof.chunk_size then flush ()
    end
  in
  let obs, finish = builder plan ~n_blocks ~emit () in
  ignore (Executor.run binary input obs : Executor.totals);
  ignore (finish ());
  flush ();
  !spent

(* One collection pass, layer by layer.  Returns the plain instruction
   count of the exec-only run and the boundaries a recorder cut. *)
let pass t ~sp_config (binary : Binary.t) input plan =
  let n_blocks = binary.Binary.n_blocks in
  let plain, exec_s = timed (fun () -> Executor.run binary input W.noop) in
  t.exec_s <- t.exec_s +. exec_s;
  t.insts <- t.insts + plain.Executor.insts;
  let cpu = Cpu.create () in
  let (_ : Executor.totals), cache_s =
    timed (fun () -> Executor.run binary input (Cpu.observer cpu))
  in
  t.cache_pass_s <- t.cache_pass_s +. cache_s;
  let counters = Cpu.extra_counters cpu in
  let n = Array.length counters in
  (* Names: one "<level>_misses" per level, then dram_accesses, accesses. *)
  t.accesses <- t.accesses +. counters.(n - 1);
  t.llc_misses <- t.llc_misses +. counters.(n - 3);
  let cpu = Cpu.create () in
  let col =
    if has_bbvs plan then Streamprof.create ~sp_config ~n_blocks ()
    else Streamprof.create_stats_only ()
  in
  let obs, finish =
    builder plan ~n_blocks
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
      ~emit:(Streamprof.emit col) ()
  in
  let (n_intervals, boundaries), collect_s =
    timed (fun () ->
        ignore
          (Executor.run binary input (Executor.compose [ obs; Cpu.observer cpu ])
            : Executor.totals);
        finish ())
  in
  t.collect_pass_s <- t.collect_pass_s +. collect_s;
  t.intervals <- t.intervals + n_intervals;
  if has_bbvs plan then begin
    let ci = Streamprof.cluster_inputs col in
    let iters0 = counter "kmeans.iterations"
    and evals0 = counter "kmeans.distance_evals" in
    let sp, cluster_s =
      timed (fun () ->
          Simpoint.pick_projected ~config:sp_config
            ~weights:ci.Streamprof.ci_weights ~points:ci.Streamprof.ci_points ())
    in
    t.cluster_s <- t.cluster_s +. cluster_s;
    t.points <- t.points + sp.Simpoint.k;
    t.kmeans_iters <- t.kmeans_iters + counter "kmeans.iterations" - iters0;
    t.distance_evals <-
      t.distance_evals + counter "kmeans.distance_evals" - evals0;
    t.project_s <- t.project_s +. projection_s ~sp_config binary input plan
  end;
  (plain.Executor.insts, boundaries)

let matching t (p : W.prog) input =
  let profiles =
    List.map
      (fun b ->
        let profile, s = timed (fun () -> Structprof.profile b input) in
        t.struct_s <- t.struct_s +. s;
        profile)
      p.W.binaries
  in
  let m, s =
    timed (fun () -> Matching.find ~binaries:p.W.binaries ~profiles ())
  in
  t.matching_s <- t.matching_s +. s;
  t.mappable <- t.mappable + Matching.cardinal m;
  t.candidates <- t.candidates + m.Matching.candidates;
  m

(* Both return each binary's exec-only instruction count; [vli_passes]
   also returns the boundaries its recorder pass cut. *)
let fli_passes t ~sp_config (p : W.prog) input =
  List.map
    (fun b -> fst (pass t ~sp_config b input (Fli p.W.target)))
    p.W.binaries

let vli_passes t ~sp_config (p : W.prog) input =
  let m = matching t p input in
  match p.W.binaries with
  | [] -> ([], [||])
  | primary :: followers ->
    let insts, boundaries =
      pass t ~sp_config primary input
        (Vli_primary (p.W.target, Matching.is_mappable m))
    in
    let rest =
      List.map
        (fun b -> fst (pass t ~sp_config b input (Vli_follower boundaries)))
        followers
    in
    (insts :: rest, boundaries)

(* Decompose every distinct pass of the workload and check the replica
   against what the pipeline produced: the same boundaries, and a
   [t_insts] equal to the plain exec-only count.  The matrix returns no
   pipeline results, so for it the three VLI methods run here, untimed,
   for their cut plans and the checks. *)
let decompose c kind ~seed (outcome : W.outcome) progs =
  let input = W.input_of ~seed in
  let sp_config = Simpoint.default_config in
  let t = new_totals () in
  let check_insts what p (results : Pipeline.binary_result list) insts =
    List.iter2
      (fun (br : Pipeline.binary_result) n ->
        W.check c
          (br.Pipeline.br_truth.Pipeline.t_insts = n)
          (Printf.sprintf "%s/%s: %s t_insts differs from Executor.run" p.W.name
             (Config.label br.Pipeline.br_config) what))
      results insts
  in
  let vli p =
    let insts, boundaries = vli_passes t ~sp_config p input in
    let results =
      match kind with
      | W.Validate_matrix ->
        let engine = Pipeline.create_engine () in
        List.map
          (fun (static, semantic) ->
            let r =
              Pipeline.run_vli ~static ~semantic ~engine p.W.program
                ~configs:p.W.configs ~input ~target:p.W.target
            in
            W.check_vli c (p, r);
            r)
          [ (false, false); (true, false); (true, true) ]
      | W.Vli_coarse | W.Fli_fine -> Option.to_list (List.assq_opt p outcome.W.o_vli)
    in
    match results with
    | [] -> W.check c false (p.W.name ^ ": no VLI result to check")
    | plain :: _ ->
      check_insts "VLI" p plain.Pipeline.vli_binaries insts;
      W.check c
        (boundaries = plain.Pipeline.vli_points.Pipeline.pt_boundaries)
        (p.W.name ^ ": replayed VLI boundaries differ from the pipeline's");
      List.iter (fun r -> t.plans <- vli_plan p r @ t.plans) results
  in
  let fli p =
    let insts = fli_passes t ~sp_config p input in
    t.plans <- fli_plan p @ t.plans;
    match List.assq_opt p outcome.W.o_fli with
    | None -> ()
    | Some r -> check_insts "FLI" p r.Pipeline.fli_binaries insts
  in
  List.iter
    (fun p ->
      match kind with
      | W.Vli_coarse -> vli p
      | W.Fli_fine -> fli p
      | W.Validate_matrix ->
        (* Sampling cuts the FLI plan again. *)
        fli p;
        t.plans <- fli_plan p @ t.plans;
        vli p)
    progs;
  t
