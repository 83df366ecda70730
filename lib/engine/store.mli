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
(** [name] labels the store's metrics series (default ["store"]).

    With [disk], values also persist across processes: the owner of a
    key consults the {!Diskcache} before computing and publishes the
    [Marshal] encoding of a successful result after.  Processes sharing
    the directory do not wait for each other; each computes what it
    misses, and the last identical publication wins.  Values must
    therefore be marshal-able (pure data — true of every artifact this
    codebase stores); a persisted payload that fails to unmarshal is
    quarantined and recomputed, a failed publication is counted and
    ignored, and exceptions are never persisted. *)

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
    caller for that key.  The key's cell is filled on every path, so
    no concurrent caller is left waiting. *)

val mem : 'v t -> key:string -> bool

val find_opt : 'v t -> key:string -> 'v option
(** The value for [key] if the store already holds it, in memory or on
    disk, without ever computing: [None] when the key is absent, in
    flight or raised.  A value served is counted as a hit. *)

val computes : 'v t -> int
(** Number of computations actually executed (cache misses). *)

val hits : 'v t -> int
(** Number of [find_or_compute] calls served from cache — in-memory
    hits, waits on in-flight computations, and disk hits. *)

val quarantined : 'v t -> int
(** Corrupt disk entries quarantined for this store (0 without
    [disk]). *)
