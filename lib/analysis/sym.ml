module Ast = Cbsp_source.Ast

type t = { lo : Poly.t; hi : Poly.t; exact : bool }

let interval lo hi = { lo; hi; exact = Poly.equal lo hi }

let of_poly p = { lo = p; hi = p; exact = true }

let zero = of_poly Poly.zero

let one = of_poly (Poly.const 1)

let const c = of_poly (Poly.const c)

let of_trips (trips : Ast.trips) =
  match trips with
  | Ast.Fixed n -> const n
  | Ast.Scaled { base; per_scale } ->
    if base >= 0 && per_scale >= 0 then of_poly (Poly.affine ~base ~per_scale)
    else
      (* The executor clamps [base + per_scale * scale] at zero; with a
         negative parameter that is no longer a polynomial, so widen.
         Validate rejects this shape — defensive only. *)
      interval Poly.zero (Poly.affine ~base ~per_scale)
  | Ast.Jitter { mean; spread } ->
    if spread <= 0 then const mean
    else interval (Poly.const (mean - spread)) (Poly.const (mean + spread))

let add a b =
  { lo = Poly.add a.lo b.lo; hi = Poly.add a.hi b.hi; exact = a.exact && b.exact }

(* Both bounds are non-negative at every scale >= 0, so products of
   bounds bound the product. *)
let mul a b =
  { lo = Poly.mul a.lo b.lo; hi = Poly.mul a.hi b.hi; exact = a.exact && b.exact }

let ceil_div t u =
  if u <= 1 then t
  else if t.exact && Poly.is_const t.lo then
    const ((Poly.eval t.lo ~scale:0 + u - 1) / u)
  else if t.exact && Poly.divisible_by t.lo u then of_poly (Poly.div_floor t.lo u)
  else
    (* ceil (p s / u) <= sum_i ceil (c_i / u) s^i: the right side is an
       integer >= p s / u. The floor-quotient polynomial is <= p s / u,
       hence <= the ceiling. *)
    interval (Poly.div_floor t.lo u) (Poly.div_ceil t.hi u)

let in_select ~arms t =
  if arms <= 1 then t else interval Poly.zero t.hi

let eval t ~scale = (Poly.eval t.lo ~scale, Poly.eval t.hi ~scale)

let decided_at t ~scale =
  let lo, hi = eval t ~scale in
  if lo = hi then Some lo else None

let is_zero t = Poly.is_zero t.hi
