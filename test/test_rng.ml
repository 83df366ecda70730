module Rng = Cbsp_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Tutil.check_bool "different seeds diverge" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let (_ : int64) = Rng.next_int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b);
  let (_ : int64) = Rng.next_int64 a in
  (* advancing a does not advance b *)
  let a' = Rng.next_int64 a and b' = Rng.next_int64 b in
  Tutil.check_bool "streams now offset" true (a' <> b')

let test_split_deterministic () =
  let parent = Rng.create ~seed:3 in
  let c1 = Rng.split parent ~tag:5 in
  let c2 = Rng.split parent ~tag:5 in
  Alcotest.(check int64) "same tag, same child" (Rng.next_int64 c1)
    (Rng.next_int64 c2);
  let c3 = Rng.split parent ~tag:6 in
  Tutil.check_bool "different tag differs" true
    (Rng.next_int64 c2 <> Rng.next_int64 c3)

let test_split_does_not_advance_parent () =
  let a = Rng.create ~seed:3 and b = Rng.create ~seed:3 in
  let (_ : Rng.t) = Rng.split a ~tag:1 in
  Alcotest.(check int64) "parent unchanged by split" (Rng.next_int64 b)
    (Rng.next_int64 a)

let test_int_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_int_bound_one () =
  let rng = Rng.create ~seed:9 in
  Tutil.check_int "bound 1 is always 0" 0 (Rng.int rng ~bound:1)

let test_int_invalid () =
  let rng = Rng.create ~seed:9 in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng ~bound:0))

let test_int_in () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng ~lo:(-3) ~hi:4 in
    if v < -3 || v > 4 then Alcotest.failf "int_in out of range: %d" v
  done

let test_float_range () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of [0,1): %f" v
  done

let test_float_mean () =
  let rng = Rng.create ~seed:21 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  Tutil.check_close ~eps:0.01 "uniform mean near 0.5" 0.5 (!acc /. float_of_int n)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:23 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  Tutil.check_close ~eps:0.03 "gaussian mean near 0" 0.0 (!sum /. float_of_int n);
  Tutil.check_close ~eps:0.05 "gaussian variance near 1" 1.0 (!sq /. float_of_int n)

let test_hash2_properties () =
  for a = 0 to 50 do
    for b = 0 to 50 do
      let h = Cbsp_util.Rng.hash2 a b in
      if h < 0 then Alcotest.failf "hash2 negative for (%d,%d)" a b
    done
  done;
  Tutil.check_bool "hash2 not symmetric in general" true
    (Rng.hash2 1 2 <> Rng.hash2 2 1)

(* Pinned streams.  [Executor_ref] shares this module with the executor,
   so a changed stream would pass every differential test and silently
   move every address, trip count and k-means seed: these literals fix
   the SplitMix64 outputs themselves. *)
let draws n f = List.init n (fun _ -> f ())

let test_golden_next_int64 () =
  let check seed expected =
    let rng = Rng.create ~seed in
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) expected
      (draws (List.length expected) (fun () -> Rng.next_int64 rng))
  in
  check 1
    [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
      0xF440FE3B62C79D2CL ];
  check 0 [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L ];
  check (-42) [ 0xD5A48CF7B485659BL; 0x7DB2965C555FA7FFL ];
  Alcotest.(check int64) "copy" 0x863B891F4C0ABD4FL
    (Rng.next_int64 (Rng.copy (Rng.create ~seed:7)))

let test_golden_draws () =
  let rng = Rng.create ~seed:9 in
  Alcotest.(check (list int)) "int, bound 1000" [ 916; 543; 589; 688; 18 ]
    (draws 5 (fun () -> Rng.int rng ~bound:1000));
  let rng = Rng.create ~seed:9 in
  Alcotest.(check (list int)) "int, bound max_int"
    [ 949735607876857916; 2274640955332710543; 4374190475535221589 ]
    (draws 3 (fun () -> Rng.int rng ~bound:max_int));
  let rng = Rng.create ~seed:13 in
  Alcotest.(check (list int)) "int_in" [ -1; -3; -2; -3 ]
    (draws 4 (fun () -> Rng.int_in rng ~lo:(-3) ~hi:4));
  let rng = Rng.create ~seed:17 in
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.982d497b44fbp-3; 0x1.f64e739d5deecp-1; 0x1.bc0ccbcecaf4p-2 ]
    (draws 3 (fun () -> Rng.float rng));
  let rng = Rng.create ~seed:5 in
  Alcotest.(check (list bool)) "bool"
    [ true; false; false; true; true; true; true; true ]
    (draws 8 (fun () -> Rng.bool rng))

let test_golden_split () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent ~tag:5 in
  Alcotest.(check (list int64)) "split, then draw"
    [ 0x903B846C3B25F70BL; 0xAA21C4EB74D7D52FL ]
    (draws 2 (fun () -> Rng.next_int64 child));
  let (_ : int64) = Rng.next_int64 parent in
  Alcotest.(check int64) "split of an advanced parent" 0x42EC67026D7DC85BL
    (Rng.next_int64 (Rng.split parent ~tag:5));
  (* the executor's per-array address stream *)
  let rng = Rng.split (Rng.create ~seed:42) ~tag:1 in
  Alcotest.(check (list int)) "executor stream" [ 14051; 7181; 10180 ]
    (draws 3 (fun () -> Rng.int rng ~bound:20_000))

let test_golden_hash2 () =
  List.iter
    (fun (a, b, h) ->
      Tutil.check_int (Printf.sprintf "hash2 %d %d" a b) h (Rng.hash2 a b))
    [ (0, 0, 0); (1, 2, 4308867352236993466); (2, 1, 1130602568784900891);
      (12345, 678, 3365174346935033805); (-5, 7, 2399512356748969153);
      (max_int, min_int, 3467569371926960507) ]

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng ~bound in
      v >= 0 && v < bound)

let prop_hash2_deterministic =
  QCheck.Test.make ~name:"hash2 deterministic" ~count:500
    QCheck.(pair int int)
    (fun (a, b) -> Rng.hash2 a b = Rng.hash2 a b)

let () =
  Alcotest.run "rng"
    [ ( "splitmix64",
        [ Tutil.quick "determinism" test_determinism;
          Tutil.quick "seed sensitivity" test_seed_sensitivity;
          Tutil.quick "copy independence" test_copy_independent;
          Tutil.quick "split determinism" test_split_deterministic;
          Tutil.quick "split keeps parent" test_split_does_not_advance_parent ] );
      ( "draws",
        [ Tutil.quick "int bounds" test_int_bounds;
          Tutil.quick "int bound=1" test_int_bound_one;
          Tutil.quick "int invalid bound" test_int_invalid;
          Tutil.quick "int_in range" test_int_in;
          Tutil.quick "float range" test_float_range;
          Tutil.quick "float mean" test_float_mean;
          Tutil.quick "gaussian moments" test_gaussian_moments;
          Tutil.quick "hash2 properties" test_hash2_properties ] );
      ( "golden streams",
        [ Tutil.quick "next_int64" test_golden_next_int64;
          Tutil.quick "int, int_in, float, bool" test_golden_draws;
          Tutil.quick "split then draw" test_golden_split;
          Tutil.quick "hash2" test_golden_hash2 ] );
      ( "properties",
        [ Tutil.qcheck_case prop_int_in_range;
          Tutil.qcheck_case prop_hash2_deterministic ] ) ]
