(** Persistent artifact cache: the on-disk layer under {!Store}.

    Entries are opaque byte payloads keyed by content digests, stored
    one file per entry as [dir/<md5-hex>.art] and framed with the
    [cbsp-art/2] format (magic version tag, embedded key, and an MD5
    over every framed byte).  Publication is atomic (tmp file +
    [rename]), so concurrent publishers of one key — in this process or
    another — leave one complete entry, the last to land.  Lookups
    verify the digest and the embedded key, and move any corrupt or
    mismatched file aside ([.quar]): corruption is counted and costs a
    recompute, never a crash or a poisoned result.

    Eviction is strict LRU under an optional byte budget.  {!create}
    scans the directory and adopts entries left by earlier processes;
    an entry another instance publishes later is adopted on first
    sight.  One mutex guards the instance.

    Metrics, one series per store name however many instances open it:
    [store.disk_hits], [store.misses], [store.evictions],
    [store.quarantined], [store.publish_errors] (counters, summed over
    the name's instances), [store.bytes] (gauge: the resident bytes of
    the instance that last changed them).  {!hits}, {!evictions},
    {!quarantined} and {!publish_errors} are this instance's own. *)

type t

val create : dir:string -> ?byte_budget:int -> ?name:string -> unit -> t
(** Open (creating directories as needed) a cache rooted at [dir] and
    warm-start from any entries already there.  [byte_budget] bounds
    resident bytes (0, the default, means unlimited); [name] labels the
    metrics series. *)

val find : t -> key:string -> string option
(** The payload published for [key], or [None] on miss.  Digest and
    key mismatches quarantine the entry and report a miss, as does an
    unreadable file. *)

val put : t -> key:string -> string -> unit
(** Publish a payload for [key] (last writer wins), then evict
    least-recently-used entries while the byte budget is exceeded.
    Best-effort: a write or rename error removes the tmp file, counts
    in [store.publish_errors], and returns normally. *)

val quarantine : t -> key:string -> unit
(** Move [key]'s entry aside and count it — for callers that detect
    payload-level corruption the frame cannot see (e.g. a [Marshal]
    decode failure). *)

val hits : t -> int

val evictions : t -> int

val quarantined : t -> int

val publish_errors : t -> int

val bytes : t -> int
(** Resident bytes: the summed sizes of the entry files in the table. *)

val entry_count : t -> int
