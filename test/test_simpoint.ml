module Simpoint = Cbsp_simpoint.Simpoint
module Stats = Cbsp_util.Stats
module Rng = Cbsp_util.Rng
module Simpoint_ref = Cbsp_oracle.Simpoint_ref

(* Synthetic interval population: three code signatures (disjoint block
   usage) with known proportions. *)
let signature_data ?(n = 90) () =
  let rng = Rng.create ~seed:31 in
  let dims = 30 in
  let bbv_of_kind kind =
    let v = Array.make dims 0.0 in
    for j = 0 to 9 do
      v.((kind * 10) + j) <- 50.0 +. Rng.float rng
    done;
    v
  in
  let kinds = Array.init n (fun i -> i mod 3) in
  let bbvs = Array.map bbv_of_kind kinds in
  let weights = Array.make n 1000.0 in
  (kinds, weights, bbvs)

let test_recovers_phases () =
  let kinds, weights, bbvs = signature_data () in
  let sp = Simpoint_ref.pick ~weights ~bbvs () in
  Tutil.check_int "three phases" 3 sp.Simpoint.k;
  (* all intervals of one kind share a phase *)
  Array.iteri
    (fun i kind ->
      let first = sp.Simpoint.phase_of.(Array.to_list kinds |> List.mapi (fun j k -> (j, k))
                                        |> List.find (fun (_, k) -> k = kind) |> fst) in
      Tutil.check_int "kind maps to one phase" first sp.Simpoint.phase_of.(i))
    kinds

let test_weights_sum_to_one () =
  let _, weights, bbvs = signature_data () in
  let sp = Simpoint_ref.pick ~weights ~bbvs () in
  let total =
    Array.fold_left (fun acc p -> acc +. p.Simpoint.weight) 0.0 sp.Simpoint.points
  in
  Tutil.check_close ~eps:1e-9 "weights sum to 1" 1.0 total

let test_rep_in_own_phase () =
  let _, weights, bbvs = signature_data () in
  let sp = Simpoint_ref.pick ~weights ~bbvs () in
  Array.iter
    (fun p ->
      Tutil.check_int "rep labelled with its phase" p.Simpoint.phase
        sp.Simpoint.phase_of.(p.Simpoint.rep))
    sp.Simpoint.points

let test_phase_weight_matches_population () =
  let _, weights, bbvs = signature_data ~n:90 () in
  let sp = Simpoint_ref.pick ~weights ~bbvs () in
  Array.iter
    (fun p ->
      (* kinds are equally frequent, so each phase holds 1/3 of weight *)
      Tutil.check_close ~eps:1e-6 "phase weight 1/3" (1.0 /. 3.0) p.Simpoint.weight)
    sp.Simpoint.points

let test_max_k_respected () =
  let _, weights, bbvs = signature_data () in
  let config = { Simpoint.default_config with Simpoint.max_k = 2 } in
  let sp = Simpoint_ref.pick ~config ~weights ~bbvs () in
  Tutil.check_bool "k <= max_k" true (sp.Simpoint.k <= 2)

let test_single_interval () =
  let sp = Simpoint_ref.pick ~weights:[| 5.0 |] ~bbvs:[| [| 1.0; 2.0 |] |] () in
  Tutil.check_int "one phase" 1 sp.Simpoint.k;
  Tutil.check_int "rep is the interval" 0 sp.Simpoint.points.(0).Simpoint.rep;
  Tutil.check_close ~eps:1e-9 "weight 1" 1.0 sp.Simpoint.points.(0).Simpoint.weight

let test_invalid_inputs () =
  Alcotest.check_raises "no intervals"
    (Invalid_argument "Simpoint.pick_projected: no intervals") (fun () ->
      ignore (Simpoint_ref.pick ~weights:[||] ~bbvs:[||] ()));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Simpoint.pick_projected: non-positive weight") (fun () ->
      ignore (Simpoint_ref.pick ~weights:[| 0.0 |] ~bbvs:[| [| 1.0 |] |] ()));
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "weight %h" w)
        (Invalid_argument "Simpoint.pick_projected: non-finite weight")
        (fun () ->
          ignore
            (Simpoint.pick_projected ~weights:[| 1.0; w |]
               ~points:[| [| 0.0 |]; [| 1.0 |] |]
               ())))
    [ nan; infinity; neg_infinity ]

let test_deterministic () =
  let _, weights, bbvs = signature_data () in
  let s1 = Simpoint_ref.pick ~weights ~bbvs () in
  let s2 = Simpoint_ref.pick ~weights ~bbvs () in
  Tutil.check_bool "same result" true (s1 = s2)

let test_bic_scores_exposed () =
  let _, weights, bbvs = signature_data () in
  let sp = Simpoint_ref.pick ~weights ~bbvs () in
  Tutil.check_int "one score per k"
    (min Simpoint.default_config.Simpoint.max_k 90)
    (List.length sp.Simpoint.bic_scores)

let test_early_policy_picks_earliest () =
  let _, weights, bbvs = signature_data () in
  let config =
    { Simpoint.default_config with Simpoint.rep_policy = Simpoint.Early 0.05 }
  in
  let sp = Simpoint_ref.pick ~config ~weights ~bbvs () in
  let centroid = Simpoint_ref.pick ~weights ~bbvs () in
  (* same clustering, but representatives never later than centroid's *)
  Tutil.check_int "same k" centroid.Simpoint.k sp.Simpoint.k;
  Array.iteri
    (fun i p ->
      Tutil.check_bool "early rep <= centroid rep" true
        (p.Simpoint.rep <= centroid.Simpoint.points.(i).Simpoint.rep);
      Tutil.check_int "early rep in own phase" p.Simpoint.phase
        sp.Simpoint.phase_of.(p.Simpoint.rep))
    sp.Simpoint.points;
  (* with EXACTLY identical BBVs per kind, the earliest occurrence of
     each kind must be chosen: intervals 0, 1, 2 *)
  let dims = 30 in
  let exact_bbv kind =
    Array.init dims (fun j -> if j / 10 = kind then 7.0 else 0.0)
  in
  let bbvs = Array.init 60 (fun i -> exact_bbv (i mod 3)) in
  let weights = Array.make 60 1.0 in
  let config =
    { Simpoint.default_config with
      Simpoint.rep_policy = Simpoint.Early 0.0; max_k = 3 }
  in
  let sp = Simpoint_ref.pick ~config ~weights ~bbvs () in
  let reps =
    Array.to_list sp.Simpoint.points
    |> List.map (fun p -> p.Simpoint.rep)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "earliest of each kind" [ 0; 1; 2 ] reps

let test_binary_search_agrees () =
  let _, weights, bbvs = signature_data () in
  let config =
    { Simpoint.default_config with Simpoint.k_search = Simpoint.Binary_search }
  in
  let sp = Simpoint_ref.pick ~config ~weights ~bbvs () in
  (* three clean signatures: both searches must find k = 3, and the
     binary search must have clustered strictly fewer k values *)
  Tutil.check_int "binary search finds k=3" 3 sp.Simpoint.k;
  Tutil.check_bool "fewer clusterings evaluated" true
    (List.length sp.Simpoint.bic_scores
     < Simpoint.default_config.Simpoint.max_k)

(* Every FLI pass of the fli-fine benchmark workload (six programs, four
   binaries each, input scale 1 and seed 42, a target of 1/4000 of the
   first binary's run): thousands of intervals with a few dozen distinct
   projected points, the shape grouped k-means exists for. *)
let test_fli_fine_passes_match_reference () =
  let module Registry = Cbsp_workloads.Registry in
  let module Config = Cbsp_compiler.Config in
  let module Lower = Cbsp_compiler.Lower in
  let module Binary = Cbsp_compiler.Binary in
  let module Executor = Cbsp_exec.Executor in
  let module Interval = Cbsp_profile.Interval in
  let module Streamprof = Cbsp.Streamprof in
  let input = Cbsp_source.Input.make ~name:"scale1" ~seed:42 ~scale:1 () in
  let sp_config = Simpoint.default_config in
  let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
  List.iter
    (fun name ->
      let entry = Registry.find name in
      let program = entry.Registry.build () in
      let binaries =
        List.map (Lower.compile program)
          (Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ())
      in
      let primary_insts =
        (Executor.run (List.hd binaries) input Executor.null_observer)
          .Executor.insts
      in
      let target = max 100 (primary_insts / 4000) in
      List.iteri
        (fun b binary ->
          let n_blocks = binary.Binary.n_blocks in
          let col = Streamprof.create ~sp_config ~n_blocks () in
          let obs, finish =
            Interval.fli_stream ~n_blocks ~target ~emit:(Streamprof.emit col) ()
          in
          ignore (Executor.run binary input obs : Executor.totals);
          ignore (finish () : int);
          let ci = Streamprof.cluster_inputs col in
          let weights = ci.Streamprof.ci_weights
          and points = ci.Streamprof.ci_points in
          let sp = Simpoint.pick_projected ~weights ~points () in
          let reference = Simpoint_ref.pick_projected_reference ~weights ~points in
          let check what x y =
            Tutil.check_bool (Printf.sprintf "%s/%d: %s" name b what) true
              (bits x = bits y)
          in
          check "k" sp.Simpoint.k reference.Simpoint.k;
          check "phase_of" sp.Simpoint.phase_of reference.Simpoint.phase_of;
          check "points" sp.Simpoint.points reference.Simpoint.points;
          check "bic_scores" sp.Simpoint.bic_scores reference.Simpoint.bic_scores)
        binaries)
    [ "applu"; "apsi"; "art"; "bzip2"; "fma3d"; "gzip" ]

(* The memoized clustering sweep on the three layouts a pass can have:
   points in runs (the memo's best case), duplicates drawn i.i.d. (most
   chunks hold most values) and all-distinct points (member sets rarely
   recur), over two to four 256-point chunks. *)
let prop_pick_matches_reference =
  QCheck.Test.make ~name:"pick_projected = reference pick, any layout"
    ~count:12
    QCheck.(pair (int_range 0 2) (int_range 0 100_000))
    (fun (layout, seed) ->
      let rng = Rng.create ~seed in
      let layout = [| `Runs; `Iid; `Distinct |].(layout) in
      let n = 300 + Rng.int rng ~bound:700 in
      let values = 5 + Rng.int rng ~bound:50 in
      let points = Tutil.layout_points rng ~layout ~n ~dims:15 ~values in
      let weights = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
      let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
      bits (Simpoint.pick_projected ~weights ~points ())
      = bits (Simpoint_ref.pick_projected_reference ~weights ~points))

let () =
  Alcotest.run "simpoint"
    [ ( "pick",
        [ Tutil.quick "recovers phases" test_recovers_phases;
          Tutil.quick "weights sum to 1" test_weights_sum_to_one;
          Tutil.quick "rep in own phase" test_rep_in_own_phase;
          Tutil.quick "phase weights" test_phase_weight_matches_population;
          Tutil.quick "max_k respected" test_max_k_respected;
          Tutil.quick "single interval" test_single_interval;
          Tutil.quick "invalid inputs" test_invalid_inputs;
          Tutil.quick "deterministic" test_deterministic;
          Tutil.quick "bic scores exposed" test_bic_scores_exposed ] );
      ( "policies",
        [ Tutil.quick "early representatives" test_early_policy_picks_earliest;
          Tutil.quick "binary k search" test_binary_search_agrees ] );
      ( "registry",
        [ Tutil.quick "fli-fine passes = reference pick"
            test_fli_fine_passes_match_reference ] );
      ("properties", [ Tutil.qcheck_case prop_pick_matches_reference ]) ]
