(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic choice in the system flows through this module so that
    whole experiments are reproducible bit-for-bit from a single seed.  The
    generator is the SplitMix64 mixer of Steele, Lea and Flood, which has a
    full 2^64 period, passes BigCrush, and — crucially for us — supports
    cheap, collision-resistant stream splitting so that independent
    subsystems (workload trip counts, k-means seeding, random projection)
    can derive independent streams from one master seed.

    The state is 8 unboxed bytes, so a draw allocates nothing beyond its
    own result: [int], [bool] and [hash2] allocate nothing at all, [float]
    only its boxed float, [next_int64] only its boxed [int64].  Every
    output is pinned by literal values in the test suite: a change to
    any stream is a change to every experiment. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from a 63-bit seed. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> tag:int -> t
(** [split t ~tag] derives an independent generator from [t]'s seed and
    [tag] without consuming state from [t].  Same (seed, tag) always gives
    the same stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val hash2 : int -> int -> int
(** [hash2 a b] is a stateless 62-bit non-negative mix of two integers;
    used for per-site deterministic jitter where carrying generator state
    would be awkward. *)
