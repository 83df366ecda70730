type t = int array
(* t.(i) multiplies scale^i; trimmed (no trailing zeros), all >= 0. *)

let zero : t = [||]

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let const c = if c <= 0 then zero else [| c |]

let affine ~base ~per_scale = trim [| max 0 base; max 0 per_scale |]

let is_zero t = Array.length t = 0

let is_const t = Array.length t <= 1

let equal (a : t) (b : t) = a = b

let add a b =
  let n = max (Array.length a) (Array.length b) in
  trim
    (Array.init n (fun i ->
         (if i < Array.length a then a.(i) else 0)
         + if i < Array.length b then b.(i) else 0))

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let r = Array.make (Array.length a + Array.length b - 1) 0 in
    Array.iteri
      (fun i ca -> Array.iteri (fun j cb -> r.(i + j) <- r.(i + j) + (ca * cb)) b)
      a;
    trim r
  end

let divisible_by t u = u <> 0 && Array.for_all (fun c -> c mod u = 0) t

let div_floor t u =
  if u <= 0 then invalid_arg "Poly.div_floor";
  trim (Array.map (fun c -> c / u) t)

let div_ceil t u =
  if u <= 0 then invalid_arg "Poly.div_ceil";
  trim (Array.map (fun c -> (c + u - 1) / u) t)

let eval t ~scale = Array.fold_right (fun c acc -> (acc * scale) + c) t 0
