(* The end-to-end benchmark: one workload per invocation.

     bench.exe --workload vli-coarse|fli-fine|validate-matrix
               [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 it prints the end-to-end metrics: set-up time (median
   of five set-ups), the operation's wall time (median of as many
   repetitions as fit in S seconds), peak RSS, the share of checked
   operations that passed, and the accuracy on the reference input.
   Times are host seconds scaled to the nominal host speed of [Calib].
   With --trace 1 it prints the per-layer metrics of [Layers].  Either
   way the last stdout line is one JSON object, and any failed
   correctness check makes the exit code 1. *)

module W = Workload
module L = Layers
module Jsonx = Cbsp_json.Jsonx
module Stats = Cbsp_util.Stats
module Stage = Cbsp_engine.Stage
module Timing = Cbsp_engine.Timing
module Tracer = Cbsp_obs.Tracer
module Metrics = Cbsp_obs.Metrics

let median xs = Stats.median (Array.of_list xs)

(* VmHWM: the process's resident-set high-water mark, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Start a new VmHWM at the current RSS, so the peak covers only what
   runs after set-up. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error e -> prerr_endline ("peak RSS not reset: " ^ e)

(* Repeat [f] until [seconds] have passed (at least [min_reps] times),
   returning each repetition's wall time, the probes taken before the
   first repetition and after each one, in order, and the last
   repetition's result (the earlier ones are garbage).  A full major
   collection before each repetition keeps one repetition's garbage out
   of the next one's time. *)
let repeat ~domains ~seconds ~min_reps f =
  let stop = Unix.gettimeofday () +. seconds in
  let rec go n walls probes =
    Gc.full_major ();
    let r, dt = L.timed f in
    let walls = dt :: walls and probes = Calib.probe ~domains :: probes in
    if n + 1 >= min_reps && Unix.gettimeofday () >= stop then
      (List.rev walls, List.rev probes, r)
    else go (n + 1) walls probes
  in
  go 0 [] [ Calib.probe ~domains ]

(* Each repetition's wall time scaled to the nominal host: times
   [Calib.nominal_s] over the mean of the probes just before and just
   after it, so a repetition that fell in a slow phase of the host reads
   as it would have on the nominal one. *)
let scaled walls probes =
  let rec go walls probes =
    match (walls, probes) with
    | dt :: walls, before :: (after :: _ as probes) ->
      (dt *. Calib.nominal_s /. ((before +. after) /. 2.0)) :: go walls probes
    | _ -> []
  in
  go walls probes

let report what walls =
  Printf.eprintf "%s wall times (host s): %s\n%!" what
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))

(* Build, compile, count and warm up, five times; the median time and
   the last set-up's programs. *)
let setup kind ~seed =
  let input = W.input_of ~seed in
  let times, probes, progs =
    repeat ~domains:1 ~seconds:0.0 ~min_reps:5 (fun () ->
        let progs = W.prepare kind input in
        W.warm_up kind ~seed progs;
        progs)
  in
  report "set-up" times;
  (median (scaled times probes), progs)

(* Every repetition is checked and must reproduce the first one's
   simulated results bit for bit. *)
let same_as_first c =
  let first = ref None in
  fun what (o : W.outcome) ->
    W.check_outcome c o;
    let fp = W.fingerprint o in
    match !first with
    | None -> first := Some fp
    | Some fp0 -> W.check c (fp = fp0) (what ^ " changed the simulated results")

let metric name unit value =
  (name, Jsonx.Obj [ ("value", Jsonx.Num value); ("unit", Jsonx.Str unit) ])

let stage_s records stages =
  List.fold_left
    (fun acc (r : Timing.record) ->
      if List.mem r.Timing.tr_stage stages then acc +. r.Timing.tr_seconds
      else acc)
    0.0 records

(* A ratio whose base may be empty reads 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let untraced c kind ~seed ~seconds =
  let setup_s, progs = setup kind ~seed in
  reset_peak_rss ();
  let same = same_as_first c in
  let walls, probes, () =
    repeat ~domains:(W.jobs kind) ~seconds ~min_reps:2 (fun () ->
        same "a repetition" (W.run_op kind ~seed progs))
  in
  report "operation" walls;
  report "probe" probes;
  let rss = peak_rss_mb () in
  let acc = W.accuracy_pass c kind ~jobs:2 in
  [ metric "wall_s" "s" (median (scaled walls probes));
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" rss;
    metric "vli_speedup_err_pct" "%" acc.W.a_vli_speedup;
    metric "vli_cpi_err_pct" "%" acc.W.a_vli_cpi;
    metric "fli_speedup_err_pct" "%" acc.W.a_fli_speedup;
    metric "fli_cpi_err_pct" "%" acc.W.a_fli_cpi;
    metric "sim_cost_pct" "%" acc.W.a_sim_cost;
    metric "sampling_cpi_err_pct" "%" acc.W.a_sampling_cpi ]

(* Untraced and traced operations alternate, so both see the same host
   (per-layer times are plain host seconds); the last traced operation
   supplies the stage breakdown and the counters, and the layer replay
   follows it at once. *)
let traced c kind ~seed ~seconds =
  let _, progs = setup kind ~seed in
  let same = same_as_first c in
  let stop = Unix.gettimeofday () +. seconds in
  let rec pairs acc =
    Gc.full_major ();
    let (), untraced =
      L.timed (fun () ->
          same "an untraced repetition" (W.run_op kind ~seed progs))
    in
    Gc.full_major ();
    Tracer.reset ();
    let tr = L.traced_op kind ~seed progs in
    let spans = Tracer.span_count () in
    Tracer.reset ();
    same "a traced repetition" tr.L.t_outcome;
    let acc = (untraced, tr, spans) :: acc in
    if Unix.gettimeofday () >= stop then acc else pairs acc
  in
  let runs = pairs [] in
  let untraced = List.rev_map (fun (u, _, _) -> u) runs in
  let traced = List.rev_map (fun (_, tr, _) -> tr.L.t_wall) runs in
  report "untraced" untraced;
  report "traced" traced;
  let _, tr, spans = List.hd runs in
  let o = tr.L.t_outcome and count = tr.L.t_count in
  let hit_frac store =
    let hits = count ~store "store.hits" in
    ratio (float_of_int hits) (float_of_int (hits + count ~store "store.computes"))
  in
  let scratch = Metrics.gauge "profile.scratch_intervals" in
  Metrics.set scratch 0;
  let t = L.decompose c kind ~seed o progs in
  let scratch_peak = Metrics.gauge_value scratch in
  (* Accuracy must not depend on the scheduler width. *)
  let a2 = W.accuracy_pass c kind ~jobs:2 in
  let a1 = W.accuracy_pass c kind ~jobs:1 in
  W.check c (a1 = a2) "accuracy differs between jobs 1 and jobs 2";
  let records = o.W.o_records in
  let collect_stage = stage_s records [ Stage.Interval_collection ] in
  let cluster_stage = stage_s records [ Stage.Clustering ] in
  let all_stages = stage_s records Stage.all in
  let passes =
    List.length
      (List.filter
         (fun (r : Timing.record) -> r.Timing.tr_stage = Stage.Interval_collection)
         records)
  in
  let distinct = List.length (List.sort_uniq compare t.L.plans) in
  let untraced_wall = median untraced and traced_wall = median traced in
  let overhead = ratio (traced_wall -. untraced_wall) untraced_wall in
  let accounted = ratio t.L.collect_pass_s collect_stage in
  Printf.eprintf
    "accounting: replayed collection %.3f s over the traced operation's \
     interval-collection stage %.3f s = %.4f; tracing overhead %+.4f\n%!"
    t.L.collect_pass_s collect_stage accounted overhead;
  let count_metric name n = metric name "count" (float_of_int n) in
  let decided =
    count "analysis.proved_mappable" + count "analysis.proved_unmappable"
  in
  [ metric "exec.self_s" "s" t.L.exec_s;
    count_metric "exec.insts" t.L.insts;
    metric "exec.minst_per_s" "Minst/s"
      (ratio (float_of_int t.L.insts /. 1e6) t.L.exec_s);
    metric "cache.self_s" "s" (t.L.cache_pass_s -. t.L.exec_s);
    metric "cache.accesses" "count" t.L.accesses;
    metric "cache.llc_misses" "count" t.L.llc_misses;
    metric "profile.struct_s" "s" t.L.struct_s;
    metric "profile.collect_self_s" "s" (t.L.collect_pass_s -. t.L.cache_pass_s);
    count_metric "profile.intervals" t.L.intervals;
    count_metric "profile.scratch_peak" scratch_peak;
    metric "profile.project_s" "s" t.L.project_s;
    metric "core.matching_s" "s" t.L.matching_s;
    metric "core.mappable_frac" "ratio"
      (ratio (float_of_int t.L.mappable) (float_of_int t.L.candidates));
    metric "simpoint.cluster_s" "s" t.L.cluster_s;
    count_metric "simpoint.points" t.L.points;
    count_metric "simpoint.kmeans_iters" t.L.kmeans_iters;
    count_metric "simpoint.distance_evals" t.L.distance_evals;
    metric "sampling.s" "s" (stage_s records [ Stage.Sampling ]);
    metric "analysis.s" "s"
      (stage_s records [ Stage.Analysis; Stage.Fingerprint ]);
    metric "analysis.decided_frac" "ratio"
      (ratio (float_of_int decided) (float_of_int (count "analysis.candidates")));
    count_metric "analysis.recovered" (count "match.semantic_recovered");
    metric "validate.score_s" "s" (stage_s records [ Stage.Validate ]);
    count_metric "engine.collect_passes" passes;
    metric "engine.collect_useful_frac" "ratio"
      (ratio (float_of_int distinct) (float_of_int passes));
    metric "engine.compile_hit_frac" "ratio" (hit_frac "binaries");
    metric "engine.profile_hit_frac" "ratio" (hit_frac "profiles");
    metric "engine.sched_busy_frac" "ratio"
      (ratio all_stages (tr.L.t_wall *. float_of_int (W.jobs kind)));
    metric "stage.collect_s" "s" collect_stage;
    metric "stage.cluster_s" "s" cluster_stage;
    metric "stage.collect_share" "ratio" (ratio collect_stage all_stages);
    metric "stage.cluster_share" "ratio" (ratio cluster_stage all_stages);
    metric "obs.untraced_wall_s" "s" untraced_wall;
    metric "obs.traced_wall_s" "s" traced_wall;
    metric "obs.trace_overhead_frac" "ratio" overhead;
    metric "obs.collect_accounted_frac" "ratio" accounted;
    count_metric "obs.spans" spans ]

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " vli-coarse | fli-fine | validate-matrix");
      ("--seed", Arg.Set_int seed,
       Printf.sprintf " input seed (default %d; held-out seed %d)"
         W.default_seed W.held_out_seed);
      ("--seconds", Arg.Set_int seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let kind =
    match List.assoc_opt !workload W.kinds with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let c = W.new_checks () in
  let seconds = float_of_int (max 1 !seconds) in
  let metrics =
    if !trace = 0 then untraced c kind ~seed:!seed ~seconds
    else traced c kind ~seed:!seed ~seconds
  in
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) (List.rev c.W.failed);
  let failed = W.n_failed c in
  let metrics =
    if !trace = 0 then
      metric "ok_frac" "ratio"
        (1.0 -. (float_of_int failed /. float_of_int c.W.attempted))
      :: metrics
    else metrics
  in
  let bad =
    List.filter_map
      (fun (name, v) ->
        match Jsonx.member "value" v with
        | Some (Jsonx.Num x) when Float.is_finite x -> None
        | _ -> Some name)
      metrics
  in
  List.iter (fun n -> prerr_endline ("FAILED: metric " ^ n ^ " is not finite")) bad;
  let correct = failed = 0 && bad = [] in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [ ("correct", Jsonx.Bool correct);
            ("attempted", Jsonx.Num (float_of_int c.W.attempted));
            ("failed", Jsonx.Num (float_of_int (failed + List.length bad)));
            ("metrics", Jsonx.Obj metrics) ]));
  exit (if correct then 0 else 1)
