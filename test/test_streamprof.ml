(* The streaming collector's BBV memo against the materialized
   reference: every interval copied out, every live BBV normalized and
   projected into a fresh array ([Simpoint_ref]), and the mix applied to
   every BBV.  A memo hit must return exactly what a miss would compute,
   so the collector's columns, points and mixes equal the reference bit
   for bit whatever the hit pattern. *)

module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Simpoint = Cbsp_simpoint.Simpoint
module Strata = Cbsp_sampling.Strata
module Streamprof = Cbsp.Streamprof
module Simpoint_ref = Cbsp_oracle.Simpoint_ref
module Interval_ref = Cbsp_oracle.Interval_ref

let sp_config = Simpoint.default_config

let bits v = Marshal.to_string v [ Marshal.No_sharing ]

(* A mix function that counts its calls, i.e. the memo's misses. *)
let counting mix =
  let calls = ref 0 in
  ((fun bbv -> incr calls; mix bbv), calls)

(* Feed [intervals] to a fresh collector with [mix]. *)
let collect ~n_blocks ~mix intervals =
  let col = Streamprof.create ~mix ~sp_config ~n_blocks () in
  Array.iter (Streamprof.emit col) intervals;
  col

(* Every column the collector keeps, against the materialized reference;
   a failure names the first column that differs. *)
let differs ~n_blocks ~mix col (intervals : Interval.interval array) =
  let live =
    List.filter
      (fun i -> intervals.(i).Interval.insts > 0)
      (List.init (Array.length intervals) Fun.id)
    |> Array.of_list
  in
  let projection = Simpoint.projection_for ~config:sp_config ~in_dim:n_blocks () in
  let stats = Streamprof.stats col and ci = Streamprof.cluster_inputs col in
  let column f = Array.map f intervals in
  let checks =
    [ ("insts", bits (column (fun iv -> iv.Interval.insts)),
       bits stats.Streamprof.st_insts);
      ("cycles", bits (column (fun iv -> iv.Interval.cycles)),
       bits stats.Streamprof.st_cycles);
      ("extras",
       bits (Array.concat (Array.to_list (column (fun iv -> iv.Interval.extras)))),
       bits stats.Streamprof.st_extras);
      ("live", bits live, bits ci.Streamprof.ci_live_idx);
      ("weights",
       bits (Array.map (fun i -> float_of_int intervals.(i).Interval.insts) live),
       bits ci.Streamprof.ci_weights);
      ("points",
       bits
         (Simpoint_ref.apply_all projection
            (Array.map (fun i -> Simpoint_ref.normalize intervals.(i).Interval.bbv) live)),
       bits ci.Streamprof.ci_points);
      ("mix",
       bits
         (column (fun iv ->
              if iv.Interval.insts = 0 then 0.0 else mix iv.Interval.bbv)),
       bits (Streamprof.mix col)) ]
  in
  List.find_map (fun (what, want, got) -> if want = got then None else Some what)
    checks

(* Points with the same bits are one array. *)
let shared_when_equal points =
  let ok = ref true in
  Array.iter
    (fun p ->
      Array.iter
        (fun q -> if bits p = bits q && p != q then ok := false)
        points)
    points;
  !ok

(* --- random programs at fine grains ------------------------------------ *)

(* One execution drives the copying reference builder and the streaming
   builder + collector side by side, both sampling the same CPU, so the
   collector sees the builder's reused scratch exactly as a pass does. *)
let fine_pass (plan, target) =
  let program = Genprog.build_program plan in
  let binary =
    List.hd (Tutil.compile_all ~loop_splitting:plan.Genprog.splitting program)
  in
  let n_blocks = binary.Binary.n_blocks in
  let cpu = Cbsp_cache.Cpu.create () in
  let cycles () = Cbsp_cache.Cpu.cycles cpu
  and extras () = Cbsp_cache.Cpu.extra_counters cpu in
  let mix = Strata.access_mix_of binary in
  let counted, calls = counting mix in
  let col = Streamprof.create ~mix:counted ~sp_config ~n_blocks () in
  let ref_obs, read =
    Interval_ref.fli_observer ~n_blocks ~target ~cycles ~extras ()
  in
  let obs, finish =
    Interval.fli_stream ~n_blocks ~target ~cycles ~extras
      ~emit:(Streamprof.emit col) ()
  in
  ignore
    (Executor.run binary Tutil.test_input
       (Executor.compose [ ref_obs; obs; Cbsp_cache.Cpu.observer cpu ])
      : Executor.totals);
  ignore (finish () : int);
  (n_blocks, mix, col, read (), !calls)

let fine_pass_arb = QCheck.(pair (make Genprog.plan_gen) (int_range 40 400))

let prop_memo_matches_reference =
  QCheck.Test.make ~name:"collector = materialized reference, fine FLI"
    ~count:20 fine_pass_arb
    (fun desc ->
      let n_blocks, mix, col, intervals, calls = fine_pass desc in
      let n_live =
        Array.fold_left
          (fun n iv -> if iv.Interval.insts > 0 then n + 1 else n)
          0 intervals
      in
      match differs ~n_blocks ~mix col intervals with
      | Some what -> QCheck.Test.fail_reportf "%s differs" what
      | None ->
        calls <= n_live
        && shared_when_equal (Streamprof.cluster_inputs col).Streamprof.ci_points)

(* SimPoint's pick on a fine pass's points: the k sweep keeps grouped
   results and expands only the chosen k, and must return what
   clustering every k with plain Lloyd and scoring the expanded results
   returns, bit for bit. *)
let prop_pick_matches_reference =
  QCheck.Test.make ~name:"pick_projected = reference, fine FLI" ~count:10
    fine_pass_arb
    (fun desc ->
      let _, _, col, _, _ = fine_pass desc in
      let ci = Streamprof.cluster_inputs col in
      let weights = ci.Streamprof.ci_weights and points = ci.Streamprof.ci_points in
      QCheck.assume (Array.length points > 0);
      bits (Simpoint.pick_projected ~weights ~points ())
      = bits (Simpoint_ref.pick_projected_reference ~weights ~points))

(* --- fixtures ---------------------------------------------------------- *)

let interval ?(cycles = 0.0) bbv =
  { Interval.insts = int_of_float (Array.fold_left ( +. ) 0.0 bbv); cycles;
    extras = [| cycles |]; bbv }

(* A mix that tells every fixture BBV apart. *)
let weighted bbv =
  let acc = ref 0.0 in
  Array.iteri (fun b x -> acc := !acc +. (x *. float_of_int (b + 1))) bbv;
  !acc

(* Three times as many distinct BBVs as slots, cycled: some share a slot,
   so slots are evicted and refilled, and a hit on the slot alone would
   hand one BBV another's point and mix. *)
let test_eviction () =
  let n_blocks = 12 in
  let distinct = 3 * Streamprof.chunk_size in
  let bbv i =
    Array.init n_blocks (fun b ->
        float_of_int (if b = 0 then i + 1 else (i + b) mod 5))
  in
  let intervals =
    Array.init (5 * distinct) (fun j ->
        interval ~cycles:(float_of_int j) (bbv (j mod distinct)))
  in
  let counted, calls = counting weighted in
  let col = collect ~n_blocks ~mix:counted intervals in
  (match differs ~n_blocks ~mix:weighted col intervals with
  | Some what -> Alcotest.failf "%s differs from the reference" what
  | None -> ());
  Tutil.check_bool "every distinct BBV missed at least once" true
    (!calls >= distinct);
  Tutil.check_bool "distinct points shared" true
    (shared_when_equal (Streamprof.cluster_inputs col).Streamprof.ci_points)

(* A repeated BBV is a hit after its first miss: one mix call for a run,
   and for an empty interval (mix 0.0) none. *)
let test_repeat_hits () =
  let n_blocks = 6 in
  let v = [| 3.0; 0.0; 5.0; 1.0; 0.0; 7.0 |] in
  let intervals =
    Array.append (Array.init 10 (fun _ -> interval v))
      [| interval (Array.make n_blocks 0.0) |]
  in
  let counted, calls = counting weighted in
  let col = collect ~n_blocks ~mix:counted intervals in
  (match differs ~n_blocks ~mix:weighted col intervals with
  | Some what -> Alcotest.failf "%s differs from the reference" what
  | None -> ());
  Tutil.check_int "one mix call for ten equal BBVs" 1 !calls;
  let mix = Streamprof.mix col in
  Tutil.check_int "a mix per interval" 11 (Array.length mix);
  Tutil.check_bool "empty trailing interval: mix 0" true (mix.(10) = 0.0)

(* A BBV and its exact double are two memo entries (their counts differ)
   with one normalized vector, so one kept point array. *)
let test_double_shares_point () =
  let n_blocks = 5 in
  let v = [| 2.0; 0.0; 9.0; 4.0; 1.0 |] in
  let intervals =
    [| interval v; interval (Array.map (fun x -> 2.0 *. x) v); interval v |]
  in
  let col = collect ~n_blocks ~mix:weighted intervals in
  (match differs ~n_blocks ~mix:weighted col intervals with
  | Some what -> Alcotest.failf "%s differs from the reference" what
  | None -> ());
  let points = (Streamprof.cluster_inputs col).Streamprof.ci_points in
  Tutil.check_int "three live points" 3 (Array.length points);
  Tutil.check_bool "the double shares the point array" true
    (points.(0) == points.(1) && points.(1) == points.(2))

(* Without [mix] the column is empty; stats-only collectors keep no
   points. *)
let test_without_mix () =
  let n_blocks = 4 in
  let intervals = [| interval [| 1.0; 2.0; 0.0; 3.0 |] |] in
  let col = Streamprof.create ~sp_config ~n_blocks () in
  Array.iter (Streamprof.emit col) intervals;
  Tutil.check_int "no mix column" 0 (Array.length (Streamprof.mix col));
  Tutil.check_int "one point" 1
    (Array.length (Streamprof.cluster_inputs col).Streamprof.ci_points);
  let col = Streamprof.create_stats_only () in
  Array.iter (Streamprof.emit col) intervals;
  Tutil.check_int "stats only: no points" 0
    (Array.length (Streamprof.cluster_inputs col).Streamprof.ci_points);
  Tutil.check_int "stats only: one interval" 1
    (Array.length (Streamprof.stats col).Streamprof.st_insts)

let () =
  Alcotest.run "streamprof"
    [ ( "memo",
        [ Tutil.quick "eviction" test_eviction;
          Tutil.quick "repeat hits" test_repeat_hits;
          Tutil.quick "double shares point" test_double_shares_point;
          Tutil.quick "without mix" test_without_mix ] );
      ( "properties",
        [ Tutil.qcheck_case prop_memo_matches_reference;
          Tutil.qcheck_case prop_pick_matches_reference ] ) ]
