(** In-order CPI model over the cache hierarchy — our CMP$im.

    CMP$im models an in-order core: every instruction retires in one base
    cycle, and every data access stalls the pipeline for the latency of
    the level it hits.  CPI is therefore
    [1.0 + stall_cycles / instructions], which reproduces the paper's
    per-phase CPI range (roughly 2.5-7.6 in Tables 2-3) for workloads
    whose footprints straddle the hierarchy.

    A collection pass {!borrow}s its CPU: each domain keeps at most one
    idle CPU, whose paper Table 1 hierarchy is 25,088 way words,
    and a pass that finds one with its config resets and reuses it
    instead of allocating another. *)

type t

val create : ?config:Hierarchy.config -> unit -> t
(** Defaults to {!Hierarchy.paper_table1}. *)

val observer : t -> Cbsp_exec.Executor.observer
(** Plug into an executor run: blocks advance base cycles, accesses add
    stall cycles.  Every observer of one [t] shares one [on_access]
    closure, the one {!runs} names. *)

val runs : t -> Cbsp_exec.Executor.runs option
(** The run route into this CPU ({!Cbsp_exec.Executor.run}'s [?runs]):
    runs grouped by the first level's line and charged through
    {!Cache.on_run}, valid while {!observer}'s [on_access] receives the
    accesses (alone or composed beside observers that ignore accesses).
    Counters and cycles end bit-identical to the per-element stream's,
    and a block or marker event never falls inside a run, so every
    sample taken at one is identical too.  [None] for a hierarchy with
    no levels. *)

val hierarchy : t -> Hierarchy.t
(** The cache levels the observer drives, for their stats. *)

val cycles : t -> float
(** Total simulated cycles so far — monotone during a run, suitable as
    the [cycles] thunk of interval builders. *)

val insts : t -> int

val cpi : t -> float
(** Total function: [nan] before any instruction has executed (never
    raises), matching the nan-propagating contracts of
    [Stats.relative_error]/[Stats.percentile] so a zero-instruction run
    flows through error pipelines as "no data" instead of an
    exception. *)

val extra_counter_names : t -> string list
(** Labels of {!extra_counters}, in order: one ["<level>_misses"] per
    hierarchy level, then ["dram_accesses"] and ["accesses"]. *)

val extra_counters : t -> float array
(** Monotone counter snapshot (suitable as the [extras] thunk of interval
    builders): per-level misses, DRAM accesses, total accesses.  A fresh
    array each call, the only allocation. *)

val reset : t -> unit
(** Empties every level (tags, dirty bits and stats) and zeroes the DRAM
    count, the stall sum and the instruction count: the CPU then reads
    exactly as a fresh one of its config. *)

val borrow : ?config:Hierarchy.config -> (t -> 'a) -> 'a
(** [borrow ?config f] applies [f] to this domain's idle CPU if it has
    one of [config] (default {!Hierarchy.paper_table1}, compared
    structurally), {!reset} first, and otherwise to a fresh one; when
    [f] returns or raises, that CPU becomes the domain's idle one,
    replacing any other.  So [f] sees a CPU indistinguishable from
    [create ?config ()], and one borrowed inside [f] on the same domain
    is a different CPU.  The CPU must not be used after [f] returns:
    read every counter, cycle and name inside [f]. *)
