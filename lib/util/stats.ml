let sum xs =
  (* Kahan summation: experiment aggregates add millions of small interval
     contributions, where naive summation visibly drifts. *)
  let total = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let y = Array.unsafe_get xs i -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let sample_variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

(* --------------------------------------------------------------- *)
(* Student-t machinery for the sampling estimators' confidence      *)
(* intervals.                                                       *)

(* Lanczos approximation (g = 7, 9 coefficients); relative error below
   1e-13 over the positive reals — far more than a CI table needs. *)
let log_gamma =
  let coef =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  fun x ->
    if x <= 0.0 then invalid_arg "Stats.log_gamma: non-positive argument";
    let x = x -. 1.0 in
    let a = ref coef.(0) in
    for i = 1 to 8 do
      a := !a +. (coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Continued fraction for the incomplete beta function (modified Lentz;
   the betacf of Numerical Recipes).  Converges in a few dozen terms for
   the x < (a+1)/(a+b+2) regime the caller arranges. *)
let betacf a b x =
  let fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  (try
     for m = 1 to 300 do
       let fm = float_of_int m in
       let m2 = 2.0 *. fm in
       let step aa =
         d := 1.0 +. (aa *. !d);
         if Float.abs !d < fpmin then d := fpmin;
         c := 1.0 +. (aa /. !c);
         if Float.abs !c < fpmin then c := fpmin;
         d := 1.0 /. !d;
         !d *. !c
       in
       h := !h *. step (fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)));
       let del =
         step (-.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2)))
       in
       h := !h *. del;
       if Float.abs (del -. 1.0) < 3e-14 then raise Exit
     done
   with Exit -> ());
  !h

(* Regularized incomplete beta I_x(a, b). *)
let reg_inc_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else begin
    let ln_front =
      (a *. log x) +. (b *. log (1.0 -. x))
      +. log_gamma (a +. b) -. log_gamma a -. log_gamma b
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then
      exp ln_front *. betacf a b x /. a
    else 1.0 -. (exp ln_front *. betacf b a (1.0 -. x) /. b)
  end

(* CDF of Student's t with [df] degrees of freedom at [t] via the
   identity F(t) = 1 - I_{df/(df+t^2)}(df/2, 1/2) / 2 for t >= 0. *)
let t_cdf ~df t =
  let nu = float_of_int df in
  let tail = 0.5 *. reg_inc_beta (nu /. 2.0) 0.5 (nu /. (nu +. (t *. t))) in
  if t >= 0.0 then 1.0 -. tail else tail

let t_quantile ~df ~level =
  if level <= 0.0 || level >= 1.0 then
    invalid_arg "Stats.t_quantile: level must be in (0, 1)";
  if df < 1 then nan
  else begin
    (* Two-sided critical value c with P(|T| <= c) = level, i.e. the
       (1+level)/2 quantile: bracket then bisect the CDF (monotone,
       smooth; 80 halvings put the error far below float noise on the
       answer). *)
    let p = (1.0 +. level) /. 2.0 in
    let hi = ref 1.0 in
    while t_cdf ~df !hi < p && !hi < 1e12 do
      hi := !hi *. 2.0
    done;
    let lo = ref 0.0 in
    for _ = 1 to 100 do
      let mid = 0.5 *. (!lo +. !hi) in
      if t_cdf ~df mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* Fewer than two samples have no spread to scale: [t_quantile ~df:0]
   is nan, and so is each end. *)
let confidence_interval ?(level = 0.95) xs =
  let n = Array.length xs in
  let m = mean xs in
  let half =
    t_quantile ~df:(n - 1) ~level
    *. sqrt (sample_variance xs /. float_of_int n)
  in
  (m -. half, m +. half)

(* nans sort after every finite value (the polymorphic [compare] puts
   them first, silently shifting every quantile of a poisoned array), so
   low percentiles of a partially-poisoned array still read the finite
   values and a fully-poisoned array reads nan. *)
let compare_nan_last a b =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare a b

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare_nan_last ys;
  ys

let percentile xs ~p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p must be in [0, 100]";
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let ys = sorted_copy xs in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then ys.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (ys.(lo) *. (1.0 -. frac)) +. (ys.(hi) *. frac)
    end
  end

let median xs = percentile xs ~p:50.0

(* Total on all of R^2: a zero or non-finite truth (an empty or dead
   measurement, not a bad estimate) and a non-finite estimate both yield
   nan, the "cell could not be evaluated" marker every aggregation layer
   is expected to skip-and-count rather than fold into a mean.  Raising
   here (the old contract) meant one degenerate cell aborted a whole
   validation matrix. *)
let signed_relative_error ~truth ~estimate =
  if truth = 0.0 || not (Float.is_finite truth) || not (Float.is_finite estimate)
  then Float.nan
  else (estimate -. truth) /. truth

let relative_error ~truth ~estimate =
  Float.abs (signed_relative_error ~truth ~estimate)

(* [out.(i) <- xs.(i) /. sum xs] in ascending order.  Zeros are stored
   without dividing: [0.0 /. total] is exactly [+0.0] for any
   positive finite [total], and BBVs are two-thirds zeros, so skipping
   those fdivs is a real win in the per-interval hot path. *)
let normalize_into xs out =
  let n = Array.length xs in
  if Array.length out <> n then
    invalid_arg "Stats.normalize_into: length mismatch";
  let total = sum xs in
  if total = 0.0 then invalid_arg "Stats.normalize_into: zero sum";
  for i = 0 to n - 1 do
    let x = Array.unsafe_get xs i in
    Array.unsafe_set out i (if x = 0.0 then 0.0 else x /. total)
  done

let sq_distance a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Stats.sq_distance: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get a i -. Array.unsafe_get b i in
    acc := !acc +. (d *. d)
  done;
  !acc
