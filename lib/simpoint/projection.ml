module Rng = Cbsp_util.Rng

type matrix =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { matrix : matrix; in_dim : int; out_dim : int }
(* Row-major flat float64 Bigarray: entry (j, i) — input dimension j,
   output dimension i — lives at [j * out_dim + i], so projection is a
   single pass over the input's nonzero entries with each row's
   coefficients contiguous.  Bigarray storage keeps the whole matrix in
   one unboxed block (no per-row indirection, no bounds checks in the
   hot loop via unsafe_get). *)

let create ~seed ~in_dim ~out_dim =
  if in_dim <= 0 || out_dim <= 0 then
    invalid_arg "Projection.create: dimensions must be positive";
  let rng = Rng.create ~seed in
  let matrix =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (in_dim * out_dim)
  in
  (* Same draw order as the historical float array array fill (row by
     row, ascending), so a given seed yields the same matrix bit for
     bit. *)
  for j = 0 to in_dim - 1 do
    for i = 0 to out_dim - 1 do
      Bigarray.Array1.unsafe_set matrix ((j * out_dim) + i)
        ((2.0 *. Rng.float rng) -. 1.0)
    done
  done;
  { matrix; in_dim; out_dim }

let in_dim t = t.in_dim

let out_dim t = t.out_dim

(* [out] is assumed zeroed and of length [out_dim].  Output dimensions
   are processed in blocks of four whose partial sums live in local refs
   (unboxed by the compiler), eliminating the per-element load/store on
   [out] that dominates the naive j-outer loop.  Each out.(i) still
   accumulates its terms in ascending-j order, so the result is
   bit-identical to the historical implementation — blocking only
   reorders work across independent output elements, never within one
   sum. *)
let apply_to_zeroed t v out =
  let m = t.matrix in
  let od = t.out_dim and id = t.in_dim in
  let i = ref 0 in
  while od - !i >= 8 do
    let i0 = !i in
    let a0 = ref (Array.unsafe_get out i0)
    and a1 = ref (Array.unsafe_get out (i0 + 1))
    and a2 = ref (Array.unsafe_get out (i0 + 2))
    and a3 = ref (Array.unsafe_get out (i0 + 3))
    and a4 = ref (Array.unsafe_get out (i0 + 4))
    and a5 = ref (Array.unsafe_get out (i0 + 5))
    and a6 = ref (Array.unsafe_get out (i0 + 6))
    and a7 = ref (Array.unsafe_get out (i0 + 7)) in
    for j = 0 to id - 1 do
      let x = Array.unsafe_get v j in
      if x <> 0.0 then begin
        let base = (j * od) + i0 in
        a0 := !a0 +. (x *. Bigarray.Array1.unsafe_get m base);
        a1 := !a1 +. (x *. Bigarray.Array1.unsafe_get m (base + 1));
        a2 := !a2 +. (x *. Bigarray.Array1.unsafe_get m (base + 2));
        a3 := !a3 +. (x *. Bigarray.Array1.unsafe_get m (base + 3));
        a4 := !a4 +. (x *. Bigarray.Array1.unsafe_get m (base + 4));
        a5 := !a5 +. (x *. Bigarray.Array1.unsafe_get m (base + 5));
        a6 := !a6 +. (x *. Bigarray.Array1.unsafe_get m (base + 6));
        a7 := !a7 +. (x *. Bigarray.Array1.unsafe_get m (base + 7))
      end
    done;
    Array.unsafe_set out i0 !a0;
    Array.unsafe_set out (i0 + 1) !a1;
    Array.unsafe_set out (i0 + 2) !a2;
    Array.unsafe_set out (i0 + 3) !a3;
    Array.unsafe_set out (i0 + 4) !a4;
    Array.unsafe_set out (i0 + 5) !a5;
    Array.unsafe_set out (i0 + 6) !a6;
    Array.unsafe_set out (i0 + 7) !a7;
    i := i0 + 8
  done;
  while od - !i >= 4 do
    let i0 = !i in
    let a0 = ref (Array.unsafe_get out i0)
    and a1 = ref (Array.unsafe_get out (i0 + 1))
    and a2 = ref (Array.unsafe_get out (i0 + 2))
    and a3 = ref (Array.unsafe_get out (i0 + 3)) in
    for j = 0 to id - 1 do
      let x = Array.unsafe_get v j in
      if x <> 0.0 then begin
        let base = (j * od) + i0 in
        a0 := !a0 +. (x *. Bigarray.Array1.unsafe_get m base);
        a1 := !a1 +. (x *. Bigarray.Array1.unsafe_get m (base + 1));
        a2 := !a2 +. (x *. Bigarray.Array1.unsafe_get m (base + 2));
        a3 := !a3 +. (x *. Bigarray.Array1.unsafe_get m (base + 3))
      end
    done;
    Array.unsafe_set out i0 !a0;
    Array.unsafe_set out (i0 + 1) !a1;
    Array.unsafe_set out (i0 + 2) !a2;
    Array.unsafe_set out (i0 + 3) !a3;
    i := i0 + 4
  done;
  while od - !i >= 2 do
    let i0 = !i in
    let a0 = ref (Array.unsafe_get out i0)
    and a1 = ref (Array.unsafe_get out (i0 + 1)) in
    for j = 0 to id - 1 do
      let x = Array.unsafe_get v j in
      if x <> 0.0 then begin
        let base = (j * od) + i0 in
        a0 := !a0 +. (x *. Bigarray.Array1.unsafe_get m base);
        a1 := !a1 +. (x *. Bigarray.Array1.unsafe_get m (base + 1))
      end
    done;
    Array.unsafe_set out i0 !a0;
    Array.unsafe_set out (i0 + 1) !a1;
    i := i0 + 2
  done;
  while !i < od do
    let i0 = !i in
    let acc = ref (Array.unsafe_get out i0) in
    for j = 0 to id - 1 do
      let x = Array.unsafe_get v j in
      if x <> 0.0 then
        acc := !acc +. (x *. Bigarray.Array1.unsafe_get m ((j * od) + i0))
    done;
    Array.unsafe_set out i0 !acc;
    incr i
  done

let project_into t v out =
  if Array.length v <> t.in_dim then
    invalid_arg "Projection.project_into: dimension mismatch";
  if Array.length out <> t.out_dim then
    invalid_arg "Projection.project_into: output buffer length mismatch";
  Array.fill out 0 t.out_dim 0.0;
  apply_to_zeroed t v out

let apply t v =
  if Array.length v <> t.in_dim then
    invalid_arg "Projection.apply: dimension mismatch";
  let out = Array.make t.out_dim 0.0 in
  apply_to_zeroed t v out;
  out

let apply_all t vs =
  Array.iter
    (fun v ->
      if Array.length v <> t.in_dim then
        invalid_arg "Projection.apply: dimension mismatch")
    vs;
  Array.map
    (fun v ->
      let out = Array.make t.out_dim 0.0 in
      apply_to_zeroed t v out;
      out)
    vs
