(** Content-keyed artifact store: memoizes expensive pipeline artifacts
    (compiled binaries, structure profiles) under a digest of everything
    that determines them.

    The store guarantees {e exactly-once} computation per key, even under
    concurrent lookups from several scheduler domains: the first caller
    computes, every concurrent caller for the same key blocks until the
    value (or the computing function's exception) is available.  Because
    every producer in this codebase is a pure function of its key's
    contents, a memoized artifact is indistinguishable from a recomputed
    one — hits cannot change results, only skip work. *)

type 'v t

val create : ?name:string -> ?disk:Diskcache.t -> unit -> 'v t
(** [name] labels the store in {!pp_stats} output (default ["store"]).

    With [disk], values also persist across processes: the owner of a
    key consults the {!Diskcache} before computing, publishes the
    [Marshal] encoding of a successful result after, and coalesces
    identical in-flight computes across processes via the cache's
    per-key lock files.  Values must therefore be marshal-able (pure
    data — true of every artifact this codebase stores); a persisted
    payload that fails to unmarshal is quarantined and recomputed, and
    exceptions are never persisted. *)

val disk : 'v t -> Diskcache.t option

val digest : 'a -> string
(** A content key: the MD5 digest of the value's [Marshal] encoding
    without sharing, so structurally equal values get equal keys however
    their substructures are aliased.  The value must be acyclic pure
    data (no closures) — true of programs, configurations, inputs and
    cut plans here. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** Return the cached value for [key], or run the computation and cache
    it.  Exactly one caller computes per key; if the computation raises,
    the exception is cached and re-raised to every (current and future)
    caller for that key. *)

val mem : 'v t -> key:string -> bool

val computes : 'v t -> int
(** Number of computations actually executed (cache misses). *)

val hits : 'v t -> int
(** Number of [find_or_compute] calls served from cache — in-memory
    hits, waits on in-flight computations, and disk hits. *)

val evictions : 'v t -> int
(** Disk-cache evictions charged to this store (0 without [disk]). *)

val quarantined : 'v t -> int
(** Corrupt disk entries quarantined for this store (0 without
    [disk]). *)

val pp_stats : Format.formatter -> 'v t -> unit
(** e.g. ["binaries: 4 computed, 4 hits"]; with a disk layer also
    [", 3 disk hits, 1 evicted, 0 quarantined"]. *)
