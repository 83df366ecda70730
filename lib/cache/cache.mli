(** The cache model of the paper's memory system (Table 1): write-back /
    write-allocate LRU set-associative levels, and one access's walk
    through them to DRAM.

    Each set keeps its ways in recency order, way 0 the most recently
    used: a hit at way [k] rotates ways [0..k]; a miss evicts the last
    way, shifts the rest down and inserts at way 0.  Invalid ways form
    each set's suffix, so they fill first.  The resident and evicted
    lines are exactly those of LRU timestamps.

    A level is one [int] array of [sets * associativity] words, one per
    way: the line's tag ([addr lsr log2 line_bytes]) shifted left once,
    with the dirty bit in bit 0, and [-2] for an invalid way.  A
    move-to-front step moves one word, and a way hits iff
    [w lor 1 = (tag lsl 1) lor 1].  Addresses must be >= 0 (and below
    [max_int] at one-byte lines), so that every tag fits a way word and
    none reads as invalid.

    The lookup, the level walk and the stall sum share this module so
    that {!on_access} makes direct calls only: under [-opaque] (the dev
    profile) a call into another module is an indirect [caml_applyN]. *)

type t
(** One cache level. *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;  (** Dirty lines evicted. *)
}

val create : capacity_bytes:int -> associativity:int -> line_bytes:int -> t
(** @raise Invalid_argument unless capacity, associativity and line size
    are positive, line size and the set count are powers of two, and
    capacity = sets * associativity * line size for an integral set
    count. *)

val access : t -> addr:int -> is_write:bool -> bool
(** Look up the line containing [addr] ([>= 0]); on a miss, allocate it
    (evicting LRU).  Returns whether it hit.  Write hits and allocated
    writes mark the line dirty. *)

val probe : t -> addr:int -> bool
(** Non-modifying lookup (no allocation, no LRU update). *)

val stats : t -> stats

val accesses : t -> int
val misses : t -> int
(** {!stats}'s [accesses] and [misses] without building the record. *)

val reset_stats : t -> unit
(** Clears counters, keeps contents (for measure-after-warmup flows). *)

val flush : t -> unit
(** Invalidate all lines and clear counters. *)

val sets : t -> int
val associativity : t -> int
val line_bytes : t -> int

(** {1 Levels in front of DRAM} *)

type path = private {
  levels : t array;       (** Nearest first. *)
  latencies : int array;  (** Hit latency of each level. *)
  dram_latency : int;
  mutable dram : int;     (** Accesses that missed every level. *)
  mutable stall : int;    (** Sum of every access's latency. *)
}

val path : (t * int) list -> dram_latency:int -> path
(** The levels, nearest first, each with its hit latency. *)

val walk : path -> addr:int -> is_write:bool -> int
(** Performs the access, adds its latency to [stall] and returns it: the
    hit latency of the first level that hits, or [dram_latency].  Every
    level that misses allocates the line (non-inclusive fill). *)

val on_access : path -> int -> bool -> unit
(** {!walk} as an executor callback, with the first level's way 0
    checked inline. *)

val on_run : path -> int -> int -> bool -> unit
(** [on_run p addr n any_write] stands for [n] more calls of
    [on_access p] on the line of [addr], right after one that accessed
    [addr], with [any_write] true iff one of them writes: the first
    level counts [n] accesses and [n] hits, marks the line dirty if
    [any_write], and [stall] grows by [n] times its latency.  That is
    exact because the preceding access left the line at the first
    level's way 0, where every repeat hits without moving it.
    @raise Invalid_argument if the path has no levels. *)

val flush_path : path -> unit
(** Flushes every level and zeroes [dram] and [stall]. *)
