(* The job-graph engine: scheduler, artifact store, timing — and the
   property the whole design hangs on: a parallel run is bit-identical
   to the sequential one. *)

module Pipeline = Cbsp.Pipeline
module Matrix = Cbsp_validate.Matrix
module Scheduler = Cbsp_engine.Scheduler
module Store = Cbsp_engine.Store
module Timing = Cbsp_engine.Timing
module Stage = Cbsp_engine.Stage

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let test_parallel_map_order () =
  let xs = List.init 23 Fun.id in
  List.iter
    (fun jobs ->
      Tutil.check_bool
        (Printf.sprintf "order preserved, jobs=%d" jobs)
        true
        (Scheduler.parallel_map ~jobs (fun x -> x * x) xs
        = List.map (fun x -> x * x) xs))
    [ 1; 2; 4; 16 ];
  Tutil.check_bool "empty list" true
    (Scheduler.parallel_map ~jobs:4 Fun.id [] = ([] : int list))

let test_parallel_map_nested () =
  (* A nested parallel_map inside a worker degrades to List.map — same
     results, no deadlock, bounded domains. *)
  let outer =
    Scheduler.parallel_map ~jobs:3
      (fun i ->
        Tutil.check_bool "inner call sees worker flag" true
          (Scheduler.currently_inside_worker ());
        Scheduler.parallel_map ~jobs:3 (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  Tutil.check_bool "nested results" true
    (outer = [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ] ]);
  Tutil.check_bool "flag cleared outside workers" false
    (Scheduler.currently_inside_worker ())

let test_parallel_map_exception () =
  Alcotest.check_raises "first failing index wins" (Failure "boom-1")
    (fun () ->
      ignore
        (Scheduler.parallel_map ~jobs:4
           (fun i ->
             if i mod 2 = 1 then failwith (Printf.sprintf "boom-%d" i) else i)
           [ 0; 1; 2; 3; 4 ]))

let test_recommended_jobs () =
  Tutil.check_bool "at least one" true (Scheduler.recommended_jobs () >= 1)

let test_parallel_map_exception_counters () =
  (* Even when a task raises, every task still runs (the raiser is
     captured, not rethrown inside the worker), every drain finishes,
     and the obs counters account for all of it. *)
  let tasks = Cbsp_obs.Metrics.counter "scheduler.tasks" in
  let workers = Cbsp_obs.Metrics.counter "scheduler.workers" in
  let tasks0 = Cbsp_obs.Metrics.value tasks in
  let workers0 = Cbsp_obs.Metrics.value workers in
  let ran = Atomic.make 0 in
  Tutil.check_bool "exception propagates" true
    (match
       Scheduler.parallel_map ~jobs:4
         (fun i ->
           Atomic.incr ran;
           if i = 2 then failwith "boom" else i)
         (List.init 9 Fun.id)
     with
     | (_ : int list) -> false
     | exception Failure m -> m = "boom");
  Tutil.check_int "every task still ran" 9 (Atomic.get ran);
  Tutil.check_int "scheduler.tasks counted them all" 9
    (Cbsp_obs.Metrics.value tasks - tasks0);
  (* The caller drains too, so a four-wide map needs three pooled
     domains at most. *)
  Tutil.check_bool "scheduler.workers: at most jobs - 1 spawned" true
    (Cbsp_obs.Metrics.value workers - workers0 <= 3);
  (* No lost domains: the scheduler is immediately usable again. *)
  Tutil.check_bool "scheduler still works" true
    (Scheduler.parallel_map ~jobs:4 (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_parallel_map_reuses_workers () =
  (* Worker domains persist across back-to-back calls: fifty two-wide
     maps spawn at most one domain between them. *)
  let workers = Cbsp_obs.Metrics.counter "scheduler.workers" in
  let workers0 = Cbsp_obs.Metrics.value workers in
  for i = 1 to 50 do
    Tutil.check_bool "results" true
      (Scheduler.parallel_map ~jobs:2 (fun x -> x + i) [ 0; 1; 2; 3 ]
      = [ i; i + 1; i + 2; i + 3 ])
  done;
  Tutil.check_bool "at most one domain spawned over 50 calls" true
    (Cbsp_obs.Metrics.value workers - workers0 <= 1);
  (* Only one is kept: after an eight-wide map, a three-wide map finds
     one idle domain and spawns its second. *)
  ignore (Scheduler.parallel_map ~jobs:8 Fun.id (List.init 8 Fun.id));
  let spawned_by f =
    let before = Cbsp_obs.Metrics.value workers in
    f ();
    Cbsp_obs.Metrics.value workers - before
  in
  let three_wide () =
    ignore (Scheduler.parallel_map ~jobs:3 Fun.id [ 0; 1; 2 ])
  in
  Tutil.check_int "wide maps leave one idle domain" 1 (spawned_by three_wide);
  (* ... and not for long: idle past the linger time, it exits, so a
     three-wide map spawns both of its workers.  Retried, since a loaded
     host may be slow to run the exit. *)
  let rec after_idle attempts =
    Unix.sleepf 1.5;
    let spawned = spawned_by three_wide in
    if spawned = 2 || attempts = 1 then spawned else after_idle (attempts - 1)
  in
  Tutil.check_int "idle worker exits" 2 (after_idle 5)

let test_parallel_map_exception_backtrace () =
  (* The first raiser's backtrace travels across the domain join. *)
  Printexc.record_backtrace true;
  let deep_raise () = failwith "deep" in
  (match
     Scheduler.parallel_map ~jobs:2
       (fun i -> if i = 0 then deep_raise () else ())
       [ 0; 1 ]
   with
  | (_ : unit list) -> Alcotest.fail "expected Failure"
  | exception Failure _ ->
    (* raise_with_backtrace preserved a backtrace (possibly empty under
       flambda, but get_backtrace must not itself fail). *)
    let (_ : string) = Printexc.get_backtrace () in
    ())

(* ------------------------------------------------------------------ *)
(* Artifact store                                                      *)

let test_store_memoizes () =
  let store = Store.create ~name:"t" () in
  let calls = ref 0 in
  let v1 =
    Store.find_or_compute store ~key:"k" (fun () -> incr calls; 41)
  in
  let v2 =
    Store.find_or_compute store ~key:"k" (fun () -> incr calls; 42)
  in
  Tutil.check_int "first compute" 41 v1;
  Tutil.check_int "memoized value" 41 v2;
  Tutil.check_int "computed once" 1 !calls;
  Tutil.check_int "computes counter" 1 (Store.computes store);
  Tutil.check_int "hits counter" 1 (Store.hits store);
  Tutil.check_bool "mem" true (Store.mem store ~key:"k");
  Tutil.check_bool "not mem" false (Store.mem store ~key:"other")

let test_store_exactly_once_parallel () =
  (* Many domains race on the same key: exactly one computes, everyone
     observes the same value. *)
  let store = Store.create () in
  let calls = Atomic.make 0 in
  let values =
    Scheduler.parallel_map ~jobs:8
      (fun _ ->
        Store.find_or_compute store ~key:"shared" (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.005;
            Atomic.get calls))
      (List.init 16 Fun.id)
  in
  Tutil.check_int "one compute under contention" 1 (Atomic.get calls);
  Tutil.check_int "one compute counted" 1 (Store.computes store);
  Tutil.check_int "everyone else hit" 15 (Store.hits store);
  Tutil.check_bool "all callers same value" true
    (List.for_all (fun v -> v = 1) values)

let test_store_caches_exceptions () =
  let store = Store.create () in
  let calls = ref 0 in
  let attempt () =
    match
      Store.find_or_compute store ~key:"bad" (fun () ->
          incr calls;
          failwith "compute failed")
    with
    | (_ : int) -> false
    | exception Failure m -> m = "compute failed"
  in
  Tutil.check_bool "first caller sees the exception" true (attempt ());
  Tutil.check_bool "second caller sees the cached exception" true (attempt ());
  Tutil.check_int "failing computation ran once" 1 !calls;
  Tutil.check_bool "failed key is not mem" false (Store.mem store ~key:"bad")

let test_store_mem_during_inflight_compute () =
  (* The satellite-2 data race: [mem] must read [c_outcome] under the
     cell mutex while the owner writes it.  One worker computes slowly;
     the others hammer [mem] on the same key the whole time.  [mem] may
     answer false (in-flight) or true (done), never crash or tear. *)
  let store = Store.create ~name:"mem-race" () in
  let results =
    Scheduler.parallel_map ~jobs:8
      (fun i ->
        if i = 0 then begin
          let v =
            Store.find_or_compute store ~key:"k" (fun () ->
                Unix.sleepf 0.02;
                42)
          in
          (`Owner, v)
        end
        else begin
          let seen_true = ref 0 in
          for _ = 1 to 5_000 do
            if Store.mem store ~key:"k" then incr seen_true
          done;
          (`Reader, !seen_true)
        end)
      (List.init 8 Fun.id)
  in
  List.iter
    (function
      | `Owner, v -> Tutil.check_int "owner computed" 42 v
      | `Reader, seen -> Tutil.check_bool "reader stayed sane" true (seen >= 0))
    results;
  Tutil.check_bool "mem true once complete" true (Store.mem store ~key:"k");
  Tutil.check_int "still exactly one compute" 1 (Store.computes store)

let test_store_digest_content_keyed () =
  Tutil.check_bool "equal content, equal key" true
    (Store.digest (1, "a", [ 2; 3 ]) = Store.digest (1, "a", [ 2; 3 ]));
  Tutil.check_bool "different content, different key" true
    (Store.digest (1, "a") <> Store.digest (1, "b"))

let test_store_digest_ignores_sharing () =
  (* The same marker keys, once aliasing one name string and once built
     from separate copies: structurally equal, so the same key. *)
  let name = String.concat "" [ "ma"; "in" ] in
  let shared =
    [ Cbsp_compiler.Marker.Proc_entry name; Cbsp_compiler.Marker.Proc_entry name ]
  in
  let copied =
    [ Cbsp_compiler.Marker.Proc_entry (String.concat "" [ "ma"; "in" ]);
      Cbsp_compiler.Marker.Proc_entry (String.concat "" [ "m"; "ain" ]) ]
  in
  Tutil.check_bool "structurally equal" true (shared = copied);
  Tutil.check_bool "equal digests whatever the sharing" true
    (Store.digest shared = Store.digest copied);
  let pair = (name, name) and apart = (name, String.concat "" [ "ma"; "in" ]) in
  Tutil.check_bool "shared vs unshared pair" true
    (Store.digest pair = Store.digest apart)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let test_timing_records () =
  let sink = Timing.create () in
  let v =
    Timing.time sink ~stage:Stage.Compile ~label:"b/32u" ~in_size:3
      ~out_size:(fun x -> x * 2)
      (fun () -> 21)
  in
  Tutil.check_int "thunk result" 21 v;
  (match Timing.records sink with
   | [ r ] ->
     Tutil.check_bool "stage" true (r.Timing.tr_stage = Stage.Compile);
     Alcotest.(check string) "label" "b/32u" r.Timing.tr_label;
     Tutil.check_int "in size" 3 r.Timing.tr_in_size;
     Tutil.check_int "out size" 42 r.Timing.tr_out_size;
     Tutil.check_bool "non-negative time" true (r.Timing.tr_seconds >= 0.0)
   | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  (* A raising thunk still records (with out 0) and re-raises. *)
  Tutil.check_bool "raises through" true
    (match
       Timing.time sink ~stage:Stage.Clustering ~label:"x" (fun () ->
           failwith "oops")
     with
     | (_ : int) -> false
     | exception Failure _ -> true);
  Tutil.check_int "two records now" 2 (List.length (Timing.records sink))

let test_timing_failure_status () =
  (* The satellite-1 bugfix: a raising stage used to record exactly like
     a success with tr_out_size = 0.  It must now carry tr_ok = false,
     count as failed in summaries and surface in the manifest rows. *)
  let sink = Timing.create () in
  let ok =
    Timing.time sink ~stage:Stage.Compile ~label:"good" ~in_size:1
      ~out_size:(fun _ -> 1)
      (fun () -> ())
  in
  ignore ok;
  Tutil.check_bool "failure re-raised" true
    (match
       Timing.time sink ~stage:Stage.Compile ~label:"bad" (fun () ->
           failwith "stage died")
     with
     | (_ : int) -> false
     | exception Failure m -> m = "stage died");
  let records = Timing.records sink in
  let bad = List.find (fun r -> r.Timing.tr_label = "bad") records in
  let good = List.find (fun r -> r.Timing.tr_label = "good") records in
  Tutil.check_bool "failed record marked" false bad.Timing.tr_ok;
  Tutil.check_bool "ok record marked" true good.Timing.tr_ok;
  (match Timing.failures records with
   | [ r ] -> Alcotest.(check string) "failures picks it out" "bad" r.Timing.tr_label
   | rs -> Alcotest.failf "expected 1 failure, got %d" (List.length rs));
  (match Timing.summarize records with
   | [ s ] ->
     Tutil.check_int "two jobs" 2 s.Timing.ss_jobs;
     Tutil.check_int "one failed" 1 s.Timing.ss_failed
   | _ -> Alcotest.fail "expected one stage summary");
  let report = Format.asprintf "%a" Timing.pp_report records in
  Tutil.check_bool "report shows the failure" true
    (let nh = String.length report and needle = "failed" in
     let nn = String.length needle in
     let rec at i = i + nn <= nh && (String.sub report i nn = needle || at (i + 1)) in
     at 0);
  (match Timing.manifest_stages records with
   | [ m ] ->
     Tutil.check_int "manifest stage failed count" 1 m.Cbsp_obs.Manifest.m_failed
   | _ -> Alcotest.fail "expected one manifest stage");
  match Timing.manifest_failures records with
  | [ f ] ->
    Alcotest.(check string) "manifest failure label" "bad"
      f.Cbsp_obs.Manifest.f_label
  | fs -> Alcotest.failf "expected 1 manifest failure, got %d" (List.length fs)

let test_timing_summary () =
  let sink = Timing.create () in
  let spin stage label =
    Timing.time sink ~stage ~label ~in_size:1 ~out_size:(fun _ -> 1)
      (fun () -> ())
  in
  spin Stage.Compile "a";
  spin Stage.Compile "b";
  spin Stage.Summarize "a";
  let summaries = Timing.summarize (Timing.records sink) in
  Tutil.check_int "two stages present" 2 (List.length summaries);
  (match summaries with
   | [ c; s ] ->
     Tutil.check_bool "pipeline order" true
       (c.Timing.ss_stage = Stage.Compile && s.Timing.ss_stage = Stage.Summarize);
     Tutil.check_int "compile jobs" 2 c.Timing.ss_jobs;
     Tutil.check_int "compile in total" 2 c.Timing.ss_in_size
   | _ -> Alcotest.fail "unexpected summary shape");
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  let report = Format.asprintf "%a" Timing.pp_report (Timing.records sink) in
  List.iter
    (fun needle ->
      Tutil.check_bool ("report mentions " ^ needle) true
        (contains report needle))
    [ "compile"; "summarize"; "total" ]

(* ------------------------------------------------------------------ *)
(* Pipeline engine integration                                         *)

let input = Tutil.test_input
let target = 20_000
let configs = Tutil.paper_configs ()

let test_shared_engine_compiles_once () =
  (* The satellite fix: FLI and VLI on one engine share the four compiled
     binaries instead of compiling them twice. *)
  let program = Tutil.two_phase_program () in
  let engine = Pipeline.create_engine () in
  let (_ : Pipeline.fli_result) =
    Pipeline.run_fli ~engine program ~configs ~input ~target
  in
  let (_ : Pipeline.vli_result) =
    Pipeline.run_vli ~engine program ~configs ~input ~target
  in
  let computes, hits = Pipeline.compile_stats engine in
  Tutil.check_int "each (program, config) compiled exactly once" 4 computes;
  Tutil.check_int "second pipeline fully memoized" 4 hits

let test_engine_timing_covers_stages () =
  let program = Tutil.two_phase_program () in
  let engine = Pipeline.create_engine () in
  let (_ : Pipeline.fli_result) =
    Pipeline.run_fli ~engine program ~configs ~input ~target
  in
  let (_ : Pipeline.vli_result) =
    Pipeline.run_vli ~engine program ~configs ~input ~target
  in
  let count stage =
    List.length
      (List.filter
         (fun r -> r.Timing.tr_stage = stage)
         (Pipeline.timings engine))
  in
  Tutil.check_int "4 compile jobs" 4 (count Stage.Compile);
  Tutil.check_int "4 struct-profile jobs" 4 (count Stage.Struct_profile);
  Tutil.check_int "1 matching job" 1 (count Stage.Matching);
  (* 4 FLI collections + 1 VLI primary + 3 followers *)
  Tutil.check_int "8 interval-collection jobs" 8 (count Stage.Interval_collection);
  (* 4 per-binary FLI clusterings + 1 shared VLI clustering *)
  Tutil.check_int "5 clustering jobs" 5 (count Stage.Clustering);
  Tutil.check_int "8 summarize jobs" 8 (count Stage.Summarize)

let test_pipeline_parallel_deterministic () =
  let program = Tutil.two_phase_program () in
  let seq = Pipeline.run_fli program ~configs ~input ~target in
  let par =
    Pipeline.run_fli ~engine:(Pipeline.create_engine ~jobs:4 ()) program
      ~configs ~input ~target
  in
  Tutil.check_bool "fli bit-identical under jobs=4" true (seq = par);
  let vseq = Pipeline.run_vli program ~configs ~input ~target in
  let vpar =
    Pipeline.run_vli ~engine:(Pipeline.create_engine ~jobs:4 ()) program
      ~configs ~input ~target
  in
  Tutil.check_bool "vli binaries bit-identical under jobs=4" true
    (vseq.Pipeline.vli_binaries = vpar.Pipeline.vli_binaries);
  Tutil.check_bool "vli points bit-identical under jobs=4" true
    (vseq.Pipeline.vli_points = vpar.Pipeline.vli_points)

let test_warm_cache_restart () =
  (* The restart scenario: a second engine over a populated artifact
     cache answers every method from disk — no compile, no interval
     collection — with results structurally equal to the cold run's. *)
  Tutil.with_temp_dir "warm" @@ fun cache_dir ->
  let program = Tutil.two_phase_program () in
  let run () =
    let engine = Pipeline.create_engine ~cache_dir () in
    let fli = Pipeline.run_fli ~engine program ~configs ~input ~target in
    let vli = Pipeline.run_vli ~engine program ~configs ~input ~target in
    let sampling =
      Pipeline.run_sampling ~engine program ~configs ~input ~target ~n:8
    in
    ((fli, vli, sampling), Pipeline.timings engine)
  in
  let cold, cold_timings = run () in
  let warm, warm_timings = run () in
  let count timings stage =
    List.length (List.filter (fun r -> r.Timing.tr_stage = stage) timings)
  in
  Tutil.check_bool "cold run collected intervals" true
    (count cold_timings Stage.Interval_collection > 0);
  Tutil.check_bool "warm results equal cold results" true (warm = cold);
  Tutil.check_int "warm: no compile" 0 (count warm_timings Stage.Compile);
  Tutil.check_int "warm: no interval collection" 0
    (count warm_timings Stage.Interval_collection)

(* [~semantic:true] implies the static path, so with or without
   [~static:true] it is one estimator — and one whole-result entry. *)
let test_result_key_is_matching () =
  Tutil.with_temp_dir "matching" @@ fun cache_dir ->
  let program = Tutil.two_phase_program () in
  let engine = Pipeline.create_engine ~cache_dir () in
  let run static =
    Pipeline.run_vli ~static ~semantic:true ~engine program ~configs ~input
      ~target
  in
  let a = run false in
  let b = run true in
  Tutil.check_bool "same result" true (a = b);
  match engine.Pipeline.eng_results with
  | None -> Alcotest.fail "a cache_dir engine keeps result stores"
  | Some rc ->
    Tutil.check_int "vli results computed" 1 (Store.computes rc.Pipeline.rc_vli);
    Tutil.check_int "vli results hit" 1 (Store.hits rc.Pipeline.rc_vli)

(* ------------------------------------------------------------------ *)
(* Suite-level determinism: the acceptance criterion.                  *)

let suite_names = [ "gcc"; "apsi"; "applu" ]

let run_reduced_suite ~jobs =
  let options =
    { Matrix.default_options with
      Matrix.mo_target = 50_000; mo_scale = 2; mo_sample_n = 8;
      mo_sample_seeds = [ 2007 ] }
  in
  Matrix.run ~options ~names:suite_names ~jobs ()

(* What the figures read: the FLI and Dynamic VLI outputs. *)
let paper_outputs (w : Matrix.workload_result) =
  (w.Matrix.w_name, Matrix.fli w, Matrix.vli w)

let test_suite_parallel_bit_identical () =
  (* CPI estimates, phase assignments and boundaries from a 1-worker and
     an N-worker run of the reduced 3-workload suite must be
     bit-identical (floats compared exactly, via structural equality). *)
  let seq = run_reduced_suite ~jobs:1 in
  let par = run_reduced_suite ~jobs:4 in
  Tutil.check_int "same workload count" (List.length seq.Matrix.m_workloads)
    (List.length par.Matrix.m_workloads);
  List.iter2
    (fun a b ->
      let ((name, fli, vli) as outputs) = paper_outputs a in
      Tutil.check_bool (name ^ " has both outputs") true
        (Option.is_some fli && Option.is_some vli);
      Tutil.check_bool (name ^ " identical under jobs=4") true
        (outputs = paper_outputs b))
    seq.Matrix.m_workloads par.Matrix.m_workloads

let test_suite_compiles_once_per_entry () =
  let m = run_reduced_suite ~jobs:2 in
  List.iter
    (fun (w : Matrix.workload_result) ->
      let compiles =
        List.filter
          (fun r -> r.Timing.tr_stage = Stage.Compile)
          w.Matrix.w_timings
      in
      Tutil.check_int (w.Matrix.w_name ^ ": 4 compiles") 4
        (List.length compiles))
    m.Matrix.m_workloads;
  let report = Format.asprintf "%a" Timing.pp_report (Matrix.timings m) in
  Tutil.check_bool "suite timing report renders" true
    (String.length report > 0)

let () =
  Alcotest.run "engine"
    [ ( "scheduler",
        [ Tutil.quick "order preserved" test_parallel_map_order;
          Tutil.quick "nested degrades" test_parallel_map_nested;
          Tutil.quick "exception propagation" test_parallel_map_exception;
          Tutil.quick "exception counters" test_parallel_map_exception_counters;
          Tutil.quick "exception backtrace" test_parallel_map_exception_backtrace;
          Tutil.quick "reuses workers" test_parallel_map_reuses_workers;
          Tutil.quick "recommended jobs" test_recommended_jobs ] );
      ( "store",
        [ Tutil.quick "memoizes" test_store_memoizes;
          Tutil.quick "exactly once in parallel" test_store_exactly_once_parallel;
          Tutil.quick "caches exceptions" test_store_caches_exceptions;
          Tutil.quick "mem during in-flight compute" test_store_mem_during_inflight_compute;
          Tutil.quick "content keyed" test_store_digest_content_keyed;
          Tutil.quick "digest ignores sharing" test_store_digest_ignores_sharing ] );
      ( "timing",
        [ Tutil.quick "records jobs" test_timing_records;
          Tutil.quick "failure status" test_timing_failure_status;
          Tutil.quick "summaries + report" test_timing_summary ] );
      ( "pipeline",
        [ Tutil.quick "shared engine compiles once" test_shared_engine_compiles_once;
          Tutil.quick "timing covers stages" test_engine_timing_covers_stages;
          Tutil.quick "parallel deterministic" test_pipeline_parallel_deterministic;
          Tutil.quick "warm cache restart" test_warm_cache_restart;
          Tutil.quick "one result per matching" test_result_key_is_matching ] );
      ( "suite",
        [ Alcotest.test_case "parallel suite bit-identical" `Slow
            test_suite_parallel_bit_identical;
          Alcotest.test_case "compiles once per entry" `Slow
            test_suite_compiles_once_per_entry ] ) ]
