(** The symbolic count domain: an interval of {!Poly} polynomials.

    A value abstracts a non-negative integer quantity (an execution
    count) as [[lo, hi]] where both bounds are polynomials in the input
    scale.  [Fixed]/[Scaled] trip counts are exact (lo = hi); [Jitter]
    trips widen to the constant interval the executor's bounded hash can
    produce, and statements under a [Select] arm widen to [[0, hi]]
    because arm dispatch is input-hash driven.

    Soundness contract: for every integer scale [s >= 0], the concrete
    count lies in [[eval lo s, eval hi s]].  All operations preserve
    this. *)

type t = private { lo : Poly.t; hi : Poly.t; exact : bool }
(** [exact] iff [lo] and [hi] are the same polynomial — the count is a
    pure function of the scale. *)

val zero : t
val one : t
val const : int -> t
val of_trips : Cbsp_source.Ast.trips -> t
(** Symbolic trip count, mirroring [Input.eval_trips]: [Fixed]/[Scaled]
    are exact (the validator guarantees non-negative parameters);
    [Jitter {mean; spread}] is the interval
    [[max 0 (mean - spread), mean + spread]]. *)

val add : t -> t -> t
val mul : t -> t -> t

val ceil_div : t -> int -> t
(** [ceil_div t u] bounds [ceil (t / u)] — the per-entry back-edge count
    of a loop unrolled by factor [u].  Exact when [u <= 1], when [t] is
    an exact constant, or when [t] is exact with all coefficients
    divisible by [u]; widened to coefficient-wise quotient bounds
    otherwise. *)

val in_select : arms:int -> t -> t
(** Multiplier for statements inside one arm of a select executed [t]
    times: the arm runs between 0 and [t] times (exact passthrough for a
    single arm). *)

val eval : t -> scale:int -> int * int
(** Concrete [(lo, hi)] bounds at one scale. *)

val decided_at : t -> scale:int -> int option
(** The concrete count when the bounds coincide at this scale (which can
    happen even when the polynomials differ). *)

val is_zero : t -> bool
(** The count is exactly zero at every scale. *)
