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
      ( "properties",
        [ Tutil.qcheck_case prop_int_in_range;
          Tutil.qcheck_case prop_hash2_deterministic ] ) ]
