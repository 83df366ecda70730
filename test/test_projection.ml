module Projection = Cbsp_simpoint.Projection
module Stats = Cbsp_util.Stats
module Rng = Cbsp_util.Rng
module Simpoint_ref = Cbsp_oracle.Simpoint_ref

(* [v] projected by [project_into] into a fresh buffer that starts as
   nan, so a slot it fails to write shows. *)
let project p v =
  let out = Array.make (Projection.out_dim p) nan in
  Projection.project_into p v out;
  out

let test_dims () =
  let p = Projection.create ~seed:1 ~in_dim:100 ~out_dim:15 in
  Tutil.check_int "in_dim" 100 (Projection.in_dim p);
  Tutil.check_int "out_dim" 15 (Projection.out_dim p);
  let v = Array.make 100 1.0 in
  let out = project p v in
  Tutil.check_int "output length" 15 (Array.length out);
  Array.iter (fun x -> Tutil.check_bool "every slot written" true (x = x)) out

let test_deterministic () =
  let p1 = Projection.create ~seed:7 ~in_dim:20 ~out_dim:5 in
  let p2 = Projection.create ~seed:7 ~in_dim:20 ~out_dim:5 in
  let v = Array.init 20 (fun i -> float_of_int i) in
  Alcotest.(check (array (float 1e-12))) "same projection for same seed"
    (project p1 v) (project p2 v)

let test_linear () =
  let p = Projection.create ~seed:3 ~in_dim:10 ~out_dim:4 in
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let b = Array.init 10 (fun i -> float_of_int (10 - i)) in
  let sum = Array.init 10 (fun i -> a.(i) +. b.(i)) in
  let pa = project p a and pb = project p b in
  let psum = project p sum in
  Array.iteri
    (fun i v -> Tutil.check_close ~eps:1e-9 "linearity" v (pa.(i) +. pb.(i)))
    psum

let test_zero_maps_to_zero () =
  let p = Projection.create ~seed:3 ~in_dim:10 ~out_dim:4 in
  let z = project p (Array.make 10 0.0) in
  Array.iter (fun v -> Tutil.check_float "zero vector" 0.0 v) z

let test_dimension_mismatch () =
  let p = Projection.create ~seed:3 ~in_dim:10 ~out_dim:4 in
  Alcotest.check_raises "wrong input length"
    (Invalid_argument "Projection.project_into: dimension mismatch") (fun () ->
      ignore (project p (Array.make 9 0.0)))

let test_invalid_create () =
  Alcotest.check_raises "zero out_dim"
    (Invalid_argument "Projection.create: dimensions must be positive") (fun () ->
      ignore (Projection.create ~seed:1 ~in_dim:10 ~out_dim:0))

(* Distances between far-apart vectors should remain clearly separated
   from distances between identical vectors: a loose Johnson-Lindenstrauss
   sanity check on the distance ORDERING the clustering depends on. *)
let test_distance_separation () =
  let in_dim = 200 and out_dim = 15 in
  let p = Projection.create ~seed:11 ~in_dim ~out_dim in
  let rng = Rng.create ~seed:4 in
  let random_vec () = Array.init in_dim (fun _ -> Rng.float rng) in
  for _ = 1 to 50 do
    let a = random_vec () in
    let near = Array.map (fun x -> x +. 0.001) a in
    let far = random_vec () in
    let pa = project p a in
    let d_near = Stats.sq_distance pa (project p near) in
    let d_far = Stats.sq_distance pa (project p far) in
    if d_near >= d_far then
      Alcotest.fail "projection inverted a near/far distance pair"
  done

let test_apply_all () =
  let p = Projection.create ~seed:3 ~in_dim:6 ~out_dim:2 in
  let vs = Array.init 5 (fun i -> Array.make 6 (float_of_int i)) in
  let out = Simpoint_ref.apply_all p vs in
  Tutil.check_int "apply_all count" 5 (Array.length out);
  Array.iter (fun v -> Tutil.check_int "apply_all dims" 2 (Array.length v)) out

(* The materialized reference's apply_all must agree exactly with
   per-row apply, and the buffer-reusing project_into with both.  The
   name is kept from when apply_all ran on several workers. *)
let test_apply_all_parallel_identical () =
  let in_dim = 120 and out_dim = 15 in
  let p = Projection.create ~seed:17 ~in_dim ~out_dim in
  let rng = Rng.create ~seed:18 in
  let vs =
    Array.init 75 (fun _ ->
        Array.init in_dim (fun j -> if j mod 4 = 0 then Rng.float rng else 0.0))
  in
  let expected = Array.map (Simpoint_ref.apply p) vs in
  Tutil.check_bool "apply_all bit-identical to per-row apply" true
    (Simpoint_ref.apply_all p vs = expected);
  let buf = Array.make out_dim nan in
  Projection.project_into p vs.(0) buf;
  Tutil.check_bool "project_into bit-identical to apply" true (buf = expected.(0))

let test_apply_into_bad_buffer () =
  let p = Projection.create ~seed:3 ~in_dim:10 ~out_dim:4 in
  Alcotest.check_raises "wrong output length"
    (Invalid_argument "Projection.project_into: output buffer length mismatch")
    (fun () -> Projection.project_into p (Array.make 10 0.0) (Array.make 3 0.0))

let () =
  Alcotest.run "projection"
    [ ( "projection",
        [ Tutil.quick "dims" test_dims;
          Tutil.quick "deterministic" test_deterministic;
          Tutil.quick "linear" test_linear;
          Tutil.quick "zero" test_zero_maps_to_zero;
          Tutil.quick "dimension mismatch" test_dimension_mismatch;
          Tutil.quick "invalid create" test_invalid_create;
          Tutil.quick "distance separation" test_distance_separation;
          Tutil.quick "apply_all" test_apply_all;
          Tutil.quick "apply_all parallel identical" test_apply_all_parallel_identical;
          Tutil.quick "apply_into bad buffer" test_apply_into_bad_buffer ] ) ]
