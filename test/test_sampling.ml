(* The statistical sampling subsystem: estimator invariants (weights sum
   to 1, census is exact), CI calibration over many seeds, stratification
   and allocation properties, and the pipeline wiring. *)

module Sampler = Cbsp_sampling.Sampler
module Strata = Cbsp_sampling.Strata
module Pipeline = Cbsp.Pipeline
module Rng = Cbsp_util.Rng
module Stats = Cbsp_util.Stats
module Config = Cbsp_compiler.Config
module Lower = Cbsp_compiler.Lower
module Interval = Cbsp_profile.Interval
module Executor = Cbsp_exec.Executor
module Interval_ref = Cbsp_oracle.Interval_ref

(* A synthetic population of [n] intervals with phase-structured CPI:
   stratum s has CPI near [1 + s/2].  Returns (insts, cycles, strata,
   true CPI). *)
let population ?(n = 200) ?(phases = 4) ~seed () =
  let rng = Rng.create ~seed in
  let strata = Array.init n (fun _ -> Rng.int rng ~bound:phases) in
  let insts = Array.init n (fun _ -> 50.0 +. (100.0 *. Rng.float rng)) in
  let cycles =
    Array.init n (fun i ->
        insts.(i)
        *. (1.0 +. (0.5 *. float_of_int strata.(i)) +. (0.1 *. Rng.float rng)))
  in
  (insts, cycles, strata, Stats.sum cycles /. Stats.sum insts)

let run_sampler which ~rng ~n ~insts ~cycles ~strata =
  match which with
  | "srs" -> Sampler.srs ~rng ~n ~insts ~cycles ()
  | "systematic" -> Sampler.systematic ~rng ~n ~insts ~cycles ()
  | _ -> Sampler.stratified ~rng ~n ~strata ~insts ~cycles ()

let all_samplers = [ "srs"; "systematic"; "stratified" ]

(* --- estimator invariants --------------------------------------------- *)

let test_census_exact () =
  let insts, cycles, strata, truth = population ~seed:1 () in
  List.iter
    (fun which ->
      let e =
        run_sampler which ~rng:(Rng.create ~seed:7)
          ~n:(Array.length insts) ~insts ~cycles ~strata
      in
      Tutil.check_close ~eps:1e-9 (which ^ " census point is exact") truth
        e.Sampler.e_point;
      Tutil.check_close ~eps:1e-12 (which ^ " census half-width is 0") 0.0
        e.Sampler.e_half;
      Tutil.check_int (which ^ " census samples everything")
        (Array.length insts) e.Sampler.e_n;
      Tutil.check_close ~eps:1e-9 (which ^ " census weights sum to 1") 1.0
        (Stats.sum e.Sampler.e_weights))
    all_samplers

let test_empty_intervals_excluded () =
  (* Zero-instruction (trailing) intervals are not part of the
     population: a census over the live ones is still exact. *)
  let insts, cycles, strata, truth = population ~n:50 ~seed:2 () in
  let pad a v = Array.append a [| v; v |] in
  let insts = pad insts 0.0 and cycles = pad cycles 0.0 in
  let strata = pad strata 0 in
  List.iter
    (fun which ->
      let e =
        run_sampler which ~rng:(Rng.create ~seed:7) ~n:100 ~insts ~cycles
          ~strata
      in
      Tutil.check_int (which ^ " population excludes empties") 50
        e.Sampler.e_population;
      Tutil.check_close ~eps:1e-9 (which ^ " still exact") truth
        e.Sampler.e_point;
      Array.iter
        (fun i ->
          Tutil.check_bool (which ^ " sampled a live interval") true
            (insts.(i) > 0.0))
        e.Sampler.e_indices)
    all_samplers

let prop_weights_and_indices =
  (* For every sampler, any population and any budget: per-sample weights
     sum to 1, indices are strictly ascending (hence distinct), and a
     budget >= population is a census with an exact estimate. *)
  QCheck.Test.make ~name:"sampler weights sum to 1; census exact" ~count:60
    QCheck.(triple (int_range 2 120) (int_range 2 150) (int_range 0 1000))
    (fun (n, pop, seed) ->
      let insts, cycles, strata, truth = population ~n:pop ~seed () in
      List.for_all
        (fun which ->
          let e =
            run_sampler which ~rng:(Rng.create ~seed:(seed + 1)) ~n ~insts
              ~cycles ~strata
          in
          let ascending = ref true in
          Array.iteri
            (fun k i ->
              if k > 0 && i <= e.Sampler.e_indices.(k - 1) then
                ascending := false)
            e.Sampler.e_indices;
          !ascending
          && abs_float (Stats.sum e.Sampler.e_weights -. 1.0) < 1e-9
          && Array.length e.Sampler.e_weights = e.Sampler.e_n
          && (n < pop || abs_float (e.Sampler.e_point -. truth) < 1e-9))
        all_samplers)

let test_point_is_weighted_sum () =
  (* The point estimate equals the weight-vector dot the sampled CPIs —
     the weights really are the estimate's composition. *)
  let insts, cycles, strata, _ = population ~seed:3 () in
  List.iter
    (fun which ->
      let e =
        run_sampler which ~rng:(Rng.create ~seed:11) ~n:40 ~insts ~cycles
          ~strata
      in
      let dot = ref 0.0 in
      Array.iteri
        (fun k i ->
          dot := !dot +. (e.Sampler.e_weights.(k) *. (cycles.(i) /. insts.(i))))
        e.Sampler.e_indices;
      Tutil.check_close ~eps:1e-9 (which ^ " point = weighted CPI sum")
        e.Sampler.e_point !dot)
    all_samplers

let test_systematic_spacing () =
  (* With n dividing the population evenly, systematic picks are exactly
     step apart. *)
  let insts = Array.make 100 10.0 in
  let cycles = Array.map (fun m -> 2.0 *. m) insts in
  let e =
    Sampler.systematic ~rng:(Rng.create ~seed:3) ~n:20 ~insts ~cycles ()
  in
  Tutil.check_int "n" 20 e.Sampler.e_n;
  Array.iteri
    (fun k i ->
      if k > 0 then
        Tutil.check_int "systematic picks are step apart" 5
          (i - e.Sampler.e_indices.(k - 1)))
    e.Sampler.e_indices

let test_sampler_errors () =
  let insts = [| 10.0; 20.0 |] and cycles = [| 15.0; 30.0 |] in
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (what, f) ->
      Tutil.check_bool what true
        (match f () with
         | (_ : Sampler.estimate) -> false
         | exception Invalid_argument _ -> true))
    [ ("length mismatch",
       fun () -> Sampler.srs ~rng ~n:1 ~insts ~cycles:[| 1.0 |] ());
      ("n = 0", fun () -> Sampler.srs ~rng ~n:0 ~insts ~cycles ());
      ("empty population",
       fun () ->
         Sampler.systematic ~rng ~n:1 ~insts:[| 0.0 |] ~cycles:[| 0.0 |] ());
      ("strata length mismatch",
       fun () ->
         Sampler.stratified ~rng ~n:2 ~strata:[| 0 |] ~insts ~cycles ());
      ("negative stratum label",
       fun () ->
         Sampler.stratified ~rng ~n:2 ~strata:[| 0; -1 |] ~insts ~cycles ()) ]

(* --- CI calibration --------------------------------------------------- *)

let coverage which ~n ~runs =
  let insts, cycles, strata, truth = population ~n:300 ~phases:5 ~seed:4 () in
  let hits = ref 0 in
  for seed = 1 to runs do
    let e =
      run_sampler which ~rng:(Rng.create ~seed) ~n ~insts ~cycles ~strata
    in
    if Sampler.covers e ~truth then incr hits
  done;
  float_of_int !hits /. float_of_int runs

let test_coverage () =
  (* A nominal-95% CI must cover the truth on most seeds.  The bounds are
     loose so the test pins calibration, not luck; the CLI smoke sweep
     checks the tighter >= 90% gate end-to-end.  Systematic gets a lower
     bar: with step = pop/n there are only ~step distinct systematic
     samples, so its empirical coverage is heavily quantized. *)
  List.iter
    (fun (which, bound) ->
      let c = coverage which ~n:40 ~runs:200 in
      Tutil.check_bool
        (Printf.sprintf "%s coverage %.2f >= %.2f" which c bound)
        true (c >= bound))
    [ ("srs", 0.85); ("systematic", 0.70); ("stratified", 0.85) ];
  (* Stratification earns its keep: markedly tighter intervals than SRS
     at the same budget on a phase-structured population. *)
  let insts, cycles, strata, _ = population ~n:300 ~phases:5 ~seed:4 () in
  let mean_half which =
    let acc = ref 0.0 in
    for seed = 1 to 50 do
      let e =
        run_sampler which ~rng:(Rng.create ~seed) ~n:40 ~insts ~cycles ~strata
      in
      acc := !acc +. e.Sampler.e_half
    done;
    !acc /. 50.0
  in
  Tutil.check_bool "stratified CI is tighter than SRS" true
    (mean_half "stratified" < mean_half "srs")

(* --- stratification + allocation -------------------------------------- *)

let test_allocate () =
  let sizes = [| 10; 0; 5; 30 |] in
  let alloc = Strata.allocate ~scores:[| 1.0; 0.0; 1.0; 8.0 |] ~sizes ~total:12 in
  Tutil.check_int "budget fully spent" 12 (Array.fold_left ( + ) 0 alloc);
  Tutil.check_int "empty stratum gets nothing" 0 alloc.(1);
  Array.iteri
    (fun j a ->
      Tutil.check_bool "non-empty strata get >= 1" true (sizes.(j) = 0 || a >= 1);
      Tutil.check_bool "allocation within size" true (a <= sizes.(j)))
    alloc;
  Tutil.check_bool "score-heavy stratum dominates" true (alloc.(3) >= alloc.(0));
  (* A total at (or above) the population is a census. *)
  let census = Strata.allocate ~scores:[| 1.0; 0.0; 1.0; 8.0 |] ~sizes ~total:99 in
  Tutil.check_bool "census fills every stratum" true (census = [| 10; 0; 5; 30 |]);
  Tutil.check_bool "budget below stratum count raises" true
    (match Strata.allocate ~scores:[| 1.0; 1.0; 1.0; 1.0 |] ~sizes ~total:2 with
     | (_ : int array) -> false
     | exception Invalid_argument _ -> true)

let test_quantile_bins () =
  let feature = Array.init 100 float_of_int in
  let labels = Strata.quantile_bins ~bins:4 feature in
  let counts = Array.make 4 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) labels;
  Array.iter
    (fun c -> Tutil.check_bool "balanced quartile bins" true (c >= 20 && c <= 30))
    counts;
  Tutil.check_bool "monotone labels for sorted input" true
    (Array.for_all2 (fun a b -> a <= b) (Array.sub labels 0 99)
       (Array.sub labels 1 99));
  (* Heavily tied features collapse bins instead of failing. *)
  let tied = Strata.quantile_bins ~bins:4 (Array.make 50 1.0) in
  Array.iter (fun l -> Tutil.check_int "ties collapse to one bin" 0 l) tied;
  Tutil.check_bool "bins < 1 raises" true
    (match Strata.quantile_bins ~bins:0 feature with
     | (_ : int array) -> false
     | exception Invalid_argument _ -> true)

let test_access_mix () =
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (List.hd (Tutil.paper_configs ())) in
  let iobs, read =
    Interval_ref.fli_observer ~n_blocks:binary.Cbsp_compiler.Binary.n_blocks
      ~target:2_000 ()
  in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input iobs in
  let intervals = read () in
  let bbvs = Array.map (fun iv -> iv.Interval.bbv) intervals in
  let mix = Array.map (Strata.access_mix_of binary) bbvs in
  Tutil.check_int "one mix per interval" (Array.length intervals)
    (Array.length mix);
  Array.iteri
    (fun i m ->
      Tutil.check_bool "mix is a rate in [0, accesses/inst]" true
        (m >= 0.0 && m < 10.0);
      if intervals.(i).Interval.insts = 0 then
        Tutil.check_close ~eps:1e-12 "empty interval has mix 0" 0.0 m)
    mix;
  (* The two-phase program's memory phase must be visible: the mix varies. *)
  Tutil.check_bool "mix separates phases" true
    (Stats.stddev mix > 0.01);
  Tutil.check_bool "dimension mismatch raises" true
    (match Strata.access_mix_of binary [| 1.0 |] with
     | (_ : float) -> false
     | exception Invalid_argument _ -> true)

(* --- speedup propagation ---------------------------------------------- *)

let test_speedup () =
  let insts, cycles, strata, _ = population ~seed:5 () in
  let e rng_seed =
    Sampler.stratified ~rng:(Rng.create ~seed:rng_seed) ~n:60 ~strata ~insts
      ~cycles ()
  in
  let a = e 1 and b = e 2 in
  let r = Sampler.speedup ~a ~insts_a:2.0e6 ~b ~insts_b:1.0e6 in
  Tutil.check_close ~eps:1e-9 "speedup point is the cycle ratio"
    (a.Sampler.e_point *. 2.0e6 /. (b.Sampler.e_point *. 1.0e6))
    r.Sampler.r_point;
  (* Relative half-widths add in quadrature. *)
  let rel e = e.Sampler.e_half /. e.Sampler.e_point in
  Tutil.check_close ~eps:1e-9 "delta-method half-width"
    (r.Sampler.r_point *. sqrt ((rel a ** 2.0) +. (rel b ** 2.0)))
    r.Sampler.r_half;
  (* Total: a non-positive or nan estimate gives a nan CI, never a throw. *)
  List.iter
    (fun point ->
      let b = { b with Sampler.e_point = point } in
      let r = Sampler.speedup ~a ~insts_a:1.0 ~b ~insts_b:1.0 in
      Tutil.check_bool "degenerate estimate: nan CI" true
        (Float.is_nan r.Sampler.r_point && Float.is_nan r.Sampler.r_half))
    [ 0.0; -1.0; Float.nan ];
  let b' = Sampler.stratified ~level:0.9 ~rng:(Rng.create ~seed:2) ~n:60
      ~strata ~insts ~cycles ()
  in
  Tutil.check_bool "level mismatch raises" true
    (match Sampler.speedup ~a ~insts_a:1.0 ~b:b' ~insts_b:1.0 with
     | (_ : Sampler.ratio_ci) -> false
     | exception Invalid_argument _ -> true)

(* --- pipeline wiring --------------------------------------------------- *)

let test_run_sampling () =
  let program = Tutil.two_phase_program () in
  let configs =
    List.filteri (fun i _ -> i < 2) (Tutil.paper_configs ())
  in
  let engine = Pipeline.create_engine () in
  let result =
    Pipeline.run_sampling ~engine program ~configs ~input:Tutil.test_input
      ~target:2_000 ~n:16 ~seeds:[ 2007; 2008 ]
  in
  Tutil.check_int "one entry per config" 2
    (List.length result.Pipeline.smp_binaries);
  List.iter
    (fun (sb : Pipeline.sampling_binary) ->
      Tutil.check_int "all methods present"
        (List.length Pipeline.sampling_methods)
        (List.length sb.Pipeline.sb_methods);
      List.iter2
        (fun name (mr : Pipeline.method_runs) ->
          Tutil.check_bool "method order" true (name = mr.Pipeline.mr_method);
          Tutil.check_int "one run per seed" 2 (List.length mr.Pipeline.mr_runs);
          List.iter
            (fun (run : Pipeline.sampler_run) ->
              let e = run.Pipeline.sr_estimate in
              Tutil.check_bool "estimate is positive" true
                (e.Sampler.e_point > 0.0);
              Tutil.check_bool "population consistent" true
                (e.Sampler.e_population = sb.Pipeline.sb_n_live))
            mr.Pipeline.mr_runs)
        Pipeline.sampling_methods sb.Pipeline.sb_methods)
    result.Pipeline.smp_binaries;
  (* Same seeds, fresh engine: bit-identical estimates (the sampling RNG
     derives from (seed, config, method) only). *)
  let again =
    Pipeline.run_sampling program ~configs ~input:Tutil.test_input ~target:2_000
      ~n:16 ~seeds:[ 2007; 2008 ]
  in
  List.iter2
    (fun (a : Pipeline.sampling_binary) (b : Pipeline.sampling_binary) ->
      List.iter2
        (fun (ma : Pipeline.method_runs) (mb : Pipeline.method_runs) ->
          List.iter2
            (fun (ra : Pipeline.sampler_run) (rb : Pipeline.sampler_run) ->
              Tutil.check_close ~eps:0.0 "deterministic point"
                ra.Pipeline.sr_estimate.Sampler.e_point
                rb.Pipeline.sr_estimate.Sampler.e_point;
              Tutil.check_bool "deterministic selection" true
                (ra.Pipeline.sr_estimate.Sampler.e_indices
                 = rb.Pipeline.sr_estimate.Sampler.e_indices))
            ma.Pipeline.mr_runs mb.Pipeline.mr_runs)
        a.Pipeline.sb_methods b.Pipeline.sb_methods)
    result.Pipeline.smp_binaries again.Pipeline.smp_binaries;
  (* The speedup helper reads straight out of the result. *)
  let labels =
    List.map (fun c -> Config.label c) configs
  in
  match labels with
  | [ a; b ] ->
    let r =
      Pipeline.sampling_speedup result ~a ~b ~method_:"strat-phase" ~seed:2007
    in
    Tutil.check_bool "speedup has a CI" true (r.Sampler.r_half >= 0.0)
  | _ -> assert false

let test_run_sampling_errors () =
  let program = Tutil.two_phase_program () in
  let configs = [ List.hd (Tutil.paper_configs ()) ] in
  List.iter
    (fun (what, f) ->
      Tutil.check_bool what true
        (match f () with
         | (_ : Pipeline.sampling_result) -> false
         | exception Invalid_argument _ -> true))
    [ ("no configs",
       fun () ->
         Pipeline.run_sampling program ~configs:[] ~input:Tutil.test_input
           ~target:2_000 ~n:16);
      ("n too small",
       fun () ->
         Pipeline.run_sampling program ~configs ~input:Tutil.test_input
           ~target:2_000 ~n:1);
      ("no seeds",
       fun () ->
         Pipeline.run_sampling program ~configs ~input:Tutil.test_input
           ~target:2_000 ~n:16 ~seeds:[]) ]

let () =
  Alcotest.run "sampling"
    [ ( "estimators",
        [ Tutil.quick "census is exact" test_census_exact;
          Tutil.quick "empty intervals excluded" test_empty_intervals_excluded;
          Tutil.quick "point = weighted sum" test_point_is_weighted_sum;
          Tutil.quick "systematic spacing" test_systematic_spacing;
          Tutil.quick "error paths" test_sampler_errors;
          Tutil.qcheck_case prop_weights_and_indices ] );
      ( "calibration", [ Tutil.quick "CI coverage" test_coverage ] );
      ( "strata",
        [ Tutil.quick "allocate" test_allocate;
          Tutil.quick "quantile bins" test_quantile_bins;
          Tutil.quick "access mix" test_access_mix ] );
      ( "speedup", [ Tutil.quick "CI propagation" test_speedup ] );
      ( "pipeline",
        [ Tutil.quick "run_sampling" test_run_sampling;
          Tutil.quick "error paths" test_run_sampling_errors ] ) ]
