(** Process-global metrics registry: named, labeled counters, gauges and
    histograms, safe to update from any scheduler domain.

    Series are deduplicated by (name, sorted labels): requesting an
    existing series returns the same handle, so unrelated modules can
    contribute to one series without coordinating.  Naming convention:
    dotted [subsystem.metric] names (["scheduler.tasks"],
    ["store.hits"]), with labels for dimensions (["store", "binaries"]).

    Counters and gauges are [Atomic]-backed; histograms keep
    count/sum/min/max under a private mutex (all observation sites are
    coarse-grained — per stage or per wait, never per instruction). *)

type counter
type gauge
type histogram

val counter : ?labels:(string * string) list -> string -> counter
(** Find or register the counter series [name]/[labels].
    @raise Invalid_argument if the series exists with another kind. *)

val gauge : ?labels:(string * string) list -> string -> gauge

val histogram : ?labels:(string * string) list -> string -> histogram

val incr : ?by:int -> counter -> unit
(** Atomically add [by] (default 1). *)

val value : counter -> int

type tally
(** One object's own count, which also adds to a shared counter series:
    for objects made per operation (stores, disk caches), which must not
    register a series each, since a series is never unregistered. *)

val tally : ?labels:(string * string) list -> string -> tally
(** A fresh count of 0 that adds to the counter series [name]/[labels]. *)

val bump : tally -> unit
(** Add 1 to the count and to its series. *)

val own : tally -> int
(** The count: this tally's bumps only. *)

val set : gauge -> int -> unit

val gauge_value : gauge -> int

val observe : histogram -> float -> unit

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;   (** [infinity] when empty. *)
  hs_max : float;   (** [neg_infinity] when empty. *)
}

val histogram_stats : histogram -> histogram_stats

type sample =
  | Counter_sample of int
  | Gauge_sample of int
  | Histogram_sample of histogram_stats

type item = {
  it_name : string;
  it_labels : (string * string) list;  (** Sorted by key. *)
  it_sample : sample;
}

val snapshot : unit -> item list
(** Every registered series with its current value, sorted by
    (name, labels) — a canonical order for manifests and tests. *)

val reset : unit -> unit
(** Zero every registered series.  Handles stay valid. *)
