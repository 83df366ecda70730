(** Polynomials in the input scale with non-negative integer coefficients.

    Trip counts in the workload language are constant ([Fixed]) or affine
    in the input scale ([Scaled]); loop nesting multiplies them, so the
    execution count of any statement under fixed/scaled control flow is a
    polynomial in the scale.  {!Validate.check} rejects negative trip
    parameters, so all coefficients are non-negative — every polynomial
    is monotone over scales [>= 0], which is what lets {!Sym} use
    coefficient-wise quotients as sound division bounds. *)

type t

val zero : t
val const : int -> t
(** Clamped at zero: [const c = zero] for [c <= 0]. *)

val affine : base:int -> per_scale:int -> t
(** [base + per_scale * scale], each coefficient clamped at zero. *)

val is_zero : t -> bool
val is_const : t -> bool
(** True for degree [<= 0] (including {!zero}). *)

val equal : t -> t -> bool

val add : t -> t -> t
val mul : t -> t -> t

val divisible_by : t -> int -> bool
(** Every coefficient divisible by the divisor. *)

val div_floor : t -> int -> t
(** Coefficient-wise floor quotient: a lower bound for [p/u] at any
    scale [>= 0]. *)

val div_ceil : t -> int -> t
(** Coefficient-wise ceiling quotient: an integer upper bound for
    [ceil (p s / u)] at any integer scale [s >= 0]. *)

val eval : t -> scale:int -> int
