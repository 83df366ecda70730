module Stats = Cbsp_util.Stats

let test_mean () =
  Tutil.check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Tutil.check_float "mean empty" 0.0 (Stats.mean [||])

let test_variance_stddev () =
  Tutil.check_float "variance" 2.0 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  Tutil.check_float "stddev" (sqrt 2.0) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  Tutil.check_float "variance single" 0.0 (Stats.variance [| 42.0 |])

let test_median_percentile () =
  Tutil.check_float "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Tutil.check_float "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Tutil.check_float "p0 is min" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:0.0);
  Tutil.check_float "p100 is max" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:100.0);
  Tutil.check_float "p50 interpolates" 1.5
    (Stats.percentile [| 1.0; 2.0 |] ~p:50.0)

let test_percentile_contract () =
  (* Empty input marks the statistic unevaluable instead of crashing the
     aggregation that asked for it. *)
  Tutil.check_bool "empty is nan" true
    (Float.is_nan (Stats.percentile [||] ~p:50.0));
  Tutil.check_bool "empty median is nan" true (Float.is_nan (Stats.median [||]));
  (* Out-of-range p is a caller bug and raises. *)
  let invalid = Invalid_argument "Stats.percentile: p must be in [0, 100]" in
  Alcotest.check_raises "negative p" invalid (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:(-0.5)));
  Alcotest.check_raises "p above 100" invalid (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:100.5));
  Alcotest.check_raises "nan p" invalid (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:Float.nan));
  (* nans sort last, so low/mid percentiles of partially-nan data stay
     meaningful instead of depending on the input order. *)
  Tutil.check_float "nan sorts last (p0)" 1.0
    (Stats.percentile [| Float.nan; 2.0; 1.0 |] ~p:0.0);
  Tutil.check_float "nan sorts last (p50)" 2.0
    (Stats.percentile [| Float.nan; 2.0; 1.0 |] ~p:50.0);
  Tutil.check_float "median ignores order of nans" 2.0
    (Stats.median [| 2.0; Float.nan; 1.0 |]);
  Tutil.check_bool "p100 of partially-nan data is nan" true
    (Float.is_nan (Stats.percentile [| Float.nan; 2.0; 1.0 |] ~p:100.0));
  Tutil.check_bool "all-nan median is nan" true
    (Float.is_nan (Stats.median [| Float.nan; Float.nan |]))

let test_errors () =
  Tutil.check_float "relative error" 0.1
    (Stats.relative_error ~truth:10.0 ~estimate:9.0);
  Tutil.check_float "relative error symmetric magnitude" 0.1
    (Stats.relative_error ~truth:10.0 ~estimate:11.0);
  Tutil.check_float "signed error negative" (-0.1)
    (Stats.signed_relative_error ~truth:10.0 ~estimate:9.0);
  (* The nan contract: degenerate truths/estimates mark the cell
     unevaluable instead of raising, so one dead measurement cannot
     abort a whole validation matrix. *)
  Tutil.check_bool "zero truth is nan" true
    (Float.is_nan (Stats.relative_error ~truth:0.0 ~estimate:1.0));
  Tutil.check_bool "nan truth is nan" true
    (Float.is_nan (Stats.relative_error ~truth:Float.nan ~estimate:1.0));
  Tutil.check_bool "inf truth is nan" true
    (Float.is_nan (Stats.relative_error ~truth:Float.infinity ~estimate:1.0));
  Tutil.check_bool "nan estimate is nan" true
    (Float.is_nan (Stats.relative_error ~truth:2.0 ~estimate:Float.nan));
  Tutil.check_bool "inf estimate is nan" true
    (Float.is_nan
       (Stats.relative_error ~truth:2.0 ~estimate:Float.neg_infinity));
  (* signed_relative_error shares the nan contract. *)
  List.iter
    (fun (what, truth, estimate) ->
      Tutil.check_bool ("signed: " ^ what ^ " is nan") true
        (Float.is_nan (Stats.signed_relative_error ~truth ~estimate)))
    [ ("zero truth", 0.0, 1.0); ("nan truth", Float.nan, 1.0);
      ("inf truth", Float.infinity, 1.0); ("nan estimate", 2.0, Float.nan);
      ("inf estimate", 2.0, Float.neg_infinity) ]

let test_sample_variance () =
  (* Known value: var([1..5]) with the n-1 denominator is 2.5. *)
  Tutil.check_float "sample variance" 2.5
    (Stats.sample_variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  Tutil.check_float "single sample" 0.0 (Stats.sample_variance [| 42.0 |]);
  Tutil.check_float "empty" 0.0 (Stats.sample_variance [||]);
  (* n * sample_variance = (n-1) ... relation to population variance *)
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Tutil.check_close ~eps:1e-9 "n/(n-1) scaling"
    (Stats.variance xs *. 8.0 /. 7.0)
    (Stats.sample_variance xs)

let test_t_quantile () =
  (* Two-sided critical values from the standard t table. *)
  List.iter
    (fun (df, level, want) ->
      Tutil.check_close ~eps:2e-3
        (Printf.sprintf "t(df=%d, %.0f%%)" df (100.0 *. level))
        want
        (Stats.t_quantile ~df ~level))
    [ (1, 0.95, 12.706); (2, 0.95, 4.303); (5, 0.95, 2.571);
      (10, 0.95, 2.228); (30, 0.95, 2.042); (100, 0.95, 1.984);
      (10, 0.99, 3.169); (10, 0.90, 1.812); (1000, 0.95, 1.962) ];
  (* Total in df: no degrees of freedom is nan, never a throw. *)
  Tutil.check_bool "df 0 is nan" true
    (Float.is_nan (Stats.t_quantile ~df:0 ~level:0.95));
  Tutil.check_bool "negative df is nan" true
    (Float.is_nan (Stats.t_quantile ~df:(-3) ~level:0.95));
  Alcotest.check_raises "level must be a probability"
    (Invalid_argument "Stats.t_quantile: level must be in (0, 1)") (fun () ->
      ignore (Stats.t_quantile ~df:3 ~level:1.0))

let test_confidence_interval () =
  (* [1..5]: mean 3, s^2 = 2.5, se = sqrt(0.5), t(4, 95%) = 2.776 ->
     half-width 1.963. *)
  let lo, hi = Stats.confidence_interval [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Tutil.check_close ~eps:1e-3 "ci lo" 1.037 lo;
  Tutil.check_close ~eps:1e-3 "ci hi" 4.963 hi;
  (* Zero-variance samples collapse to a point. *)
  let lo, hi = Stats.confidence_interval [| 7.0; 7.0; 7.0 |] in
  Tutil.check_float "degenerate lo" 7.0 lo;
  Tutil.check_float "degenerate hi" 7.0 hi;
  (* Wider at higher confidence. *)
  let lo95, hi95 =
    Stats.confidence_interval ~level:0.95 [| 1.0; 2.0; 3.0; 4.0 |]
  in
  let lo99, hi99 =
    Stats.confidence_interval ~level:0.99 [| 1.0; 2.0; 3.0; 4.0 |]
  in
  Tutil.check_bool "99% wider" true (hi99 -. lo99 > hi95 -. lo95);
  (* Fewer than two samples: no interval, never a throw. *)
  List.iter
    (fun xs ->
      let lo, hi = Stats.confidence_interval xs in
      Tutil.check_bool
        (Printf.sprintf "%d samples: nan interval" (Array.length xs))
        true
        (Float.is_nan lo && Float.is_nan hi))
    [ [||]; [| 1.0 |] ]

let test_sum_kahan () =
  (* A classic case where naive summation loses the small terms. *)
  let xs = Array.make 10_001 1e-10 in
  xs.(0) <- 1e10;
  let total = Stats.sum xs in
  Tutil.check_close ~eps:1e-4 "kahan keeps small terms" (1e10 +. 1e-6) total

(* The Kahan sum as it was written before [Stats.sum] became a plain
   loop: the oracle for the rewrite's bit-identity. *)
let kahan_closure xs =
  let total = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

(* Bit-identical, except that any nan equals any nan: IEEE leaves a nan
   result's sign and payload open, and x86 takes them from whichever
   operand the compiler placed first in a commutative add. *)
let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_sum_degenerate () =
  List.iter
    (fun xs ->
      Tutil.check_bool "sum = closure Kahan on degenerate input" true
        (same_bits (Stats.sum xs) (kahan_closure xs)))
    [ [||]; [| nan |]; [| infinity; neg_infinity |]; [| 1.0; infinity; 2.0 |];
      [| -0.0 |]; [| 1e308; 1e308 |] ]

let prop_sum_matches_closure_kahan =
  QCheck.Test.make ~name:"sum = closure Kahan, bit for bit" ~count:500
    QCheck.(
      array_of_size (Gen.int_range 0 60)
        (make ~print:(Printf.sprintf "%h")
           Gen.(
             frequency
               [ (8, float_range (-1000.0) 1000.0);
                 (4, map (fun e -> 10.0 ** float_of_int e) (int_range (-20) 20));
                 (2, float);
                 (1, oneofl [ nan; infinity; neg_infinity; 0.0; -0.0 ]) ])))
    (fun xs -> same_bits (Stats.sum xs) (kahan_closure xs))

let test_normalize () =
  let n = Array.make 3 nan in
  Stats.normalize_into [| 1.0; 0.0; 3.0 |] n;
  Tutil.check_float "normalize first" 0.25 n.(0);
  Tutil.check_bool "zero stays +0.0" true
    (Int64.bits_of_float n.(1) = Int64.bits_of_float 0.0);
  Tutil.check_float "normalize third" 0.75 n.(2);
  Alcotest.check_raises "zero sum"
    (Invalid_argument "Stats.normalize_into: zero sum") (fun () ->
      Stats.normalize_into [| 0.0; 0.0 |] (Array.make 2 0.0));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.normalize_into: length mismatch") (fun () ->
      Stats.normalize_into [| 1.0; 2.0 |] (Array.make 3 0.0))

let test_sq_distance () =
  Tutil.check_float "sq distance" 25.0
    (Stats.sq_distance [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  Tutil.check_float "distance to self" 0.0
    (Stats.sq_distance [| 1.0; 2.0 |] [| 1.0; 2.0 |])

let float_array_gen =
  QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))

let prop_normalize_sums_to_one =
  QCheck.Test.make ~name:"normalize sums to 1" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range 0.001 1000.0))
    (fun xs ->
      let n = Array.make (Array.length xs) nan in
      Stats.normalize_into xs n;
      Float.abs (Stats.sum n -. 1.0) < 1e-9
      && n = Cbsp_oracle.Simpoint_ref.normalize xs)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair float_array_gen (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs ~p in
      let lo = Array.fold_left Float.min infinity xs in
      let hi = Array.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_percentile_total =
  (* Total for every p in [0, 100] and arbitrary floats (the default
     generator emits nan and infinities): never raises, and any finite
     answer lies within the finite values' range. *)
  QCheck.Test.make ~name:"percentile total on [0,100] x floats" ~count:500
    QCheck.(pair (array float) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs ~p in
      let finite = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq xs)) in
      if Float.is_nan v then true
      else if Array.length finite = 0 then true (* +/-inf inputs *)
      else
        v >= Array.fold_left Float.min infinity finite -. 1e-9
        || v = Float.infinity || v = Float.neg_infinity)

let prop_mean_between_extremes =
  QCheck.Test.make ~name:"mean within min/max" ~count:200 float_array_gen
    (fun xs ->
      let m = Stats.mean xs in
      let lo = Array.fold_left Float.min infinity xs in
      let hi = Array.fold_left Float.max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_relative_error_total =
  (* Total on R^2: nan exactly when truth is 0/non-finite or the
     estimate is non-finite; otherwise the usual non-negative ratio. *)
  QCheck.Test.make ~name:"relative_error total with nan contract" ~count:500
    QCheck.(pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
    (fun (truth, estimate) ->
      let e = Stats.relative_error ~truth ~estimate in
      if truth = 0.0 then Float.is_nan e
      else
        Float.is_finite e && e >= 0.0
        && Float.abs (e -. (Float.abs (truth -. estimate) /. Float.abs truth))
           <= 1e-12 *. Float.max 1.0 e)

let prop_signed_relative_error_total =
  (* Same domain and nan cases as [relative_error], whose magnitude it
     carries with the estimate's side of the truth as its sign. *)
  QCheck.Test.make ~name:"signed_relative_error total with nan contract"
    ~count:500
    QCheck.(pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
    (fun (truth, estimate) ->
      let e = Stats.signed_relative_error ~truth ~estimate in
      if truth = 0.0 then Float.is_nan e
      else
        Float.abs e = Stats.relative_error ~truth ~estimate
        && e *. truth *. (estimate -. truth) >= 0.0)

(* Total contract: any sample count gives an interval without a throw,
   (nan, nan) below two samples, and one bracketing the mean above. *)
let prop_confidence_interval_total =
  QCheck.Test.make ~name:"confidence_interval total" ~count:300
    QCheck.(array_of_size (Gen.int_bound 6) (float_range (-100.0) 100.0))
    (fun xs ->
      let lo, hi = Stats.confidence_interval xs in
      if Array.length xs < 2 then Float.is_nan lo && Float.is_nan hi
      else
        let m = Stats.mean xs in
        lo <= m && m <= hi)

let prop_sq_distance_symmetric =
  QCheck.Test.make ~name:"sq_distance symmetric" ~count:200
    QCheck.(pair (array_of_size (Gen.return 8) (float_range (-10.0) 10.0))
              (array_of_size (Gen.return 8) (float_range (-10.0) 10.0)))
    (fun (a, b) ->
      Float.abs (Stats.sq_distance a b -. Stats.sq_distance b a) < 1e-9)

let () =
  Alcotest.run "stats"
    [ ( "descriptive",
        [ Tutil.quick "mean" test_mean;
          Tutil.quick "variance/stddev" test_variance_stddev;
          Tutil.quick "sample variance" test_sample_variance;
          Tutil.quick "t quantile" test_t_quantile;
          Tutil.quick "confidence interval" test_confidence_interval;
          Tutil.quick "median/percentile" test_median_percentile;
          Tutil.quick "percentile contract" test_percentile_contract;
          Tutil.quick "error metrics" test_errors;
          Tutil.quick "kahan sum" test_sum_kahan;
          Tutil.quick "kahan sum degenerate" test_sum_degenerate;
          Tutil.quick "normalize" test_normalize;
          Tutil.quick "sq_distance" test_sq_distance ] );
      ( "properties",
        [ Tutil.qcheck_case prop_normalize_sums_to_one;
          Tutil.qcheck_case prop_percentile_bounded;
          Tutil.qcheck_case prop_percentile_total;
          Tutil.qcheck_case prop_mean_between_extremes;
          Tutil.qcheck_case prop_relative_error_total;
          Tutil.qcheck_case prop_signed_relative_error_total;
          Tutil.qcheck_case prop_confidence_interval_total;
          Tutil.qcheck_case prop_sq_distance_symmetric;
          Tutil.qcheck_case prop_sum_matches_closure_kahan ] ) ]
