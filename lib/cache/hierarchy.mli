(** The paper's memory system (Table 1): a three-level non-inclusive
    write-back hierarchy in front of DRAM, LRU at every level.

    {v
      Level      Capacity  Assoc  Line  Hit latency
      FLC (L1D)  32 KB     2-way  64 B    3 cycles
      MLC (L2D)  512 KB    8-way  64 B   14 cycles
      LLC (L3D)  1024 KB  16-way  64 B   35 cycles
      DRAM                               250 cycles
    v} *)

type level_config = {
  lv_name : string;
  lv_capacity : int;
  lv_assoc : int;
  lv_line : int;
  lv_latency : int;
}

type config = { levels : level_config list; dram_latency : int }

val paper_table1 : config
(** Exactly the paper's Table 1. *)

val scaled_config : factor:int -> config
(** Table 1 with capacities divided by [factor] (latency and geometry
    otherwise unchanged) — for fast unit tests.
    @raise Invalid_argument if any scaled capacity is invalid. *)

type t

val create : config -> t

val access : t -> addr:int -> is_write:bool -> int
(** {!Cache.walk} over the hierarchy: the access's latency in cycles. *)

type level_stats = { ls_name : string; ls_stats : Cache.stats }

val stats : t -> level_stats list

val dram_accesses : t -> int

val flush : t -> unit

val path : t -> Cache.path
(** The levels as {!access} walks them; {!Cpu}'s observer drives it. *)
