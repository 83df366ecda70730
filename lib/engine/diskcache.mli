(** Sharded persistent artifact cache: the on-disk layer under
    {!Store}.

    Entries are opaque byte payloads keyed by content digests, stored
    one file per entry under [dir/shard-NNN/], framed with the
    [cbsp-art/1] format (magic version tag, embedded key, Adler-32
    checksums over header and payload).
    Publication is atomic (tmp file + [rename]); lookups verify the
    checksums and the embedded key, and move any corrupt or mismatched
    file aside ([.quar]) — corruption is counted and costs a recompute,
    never a crash or a poisoned result.

    Eviction is LRU under an optional byte budget, lock-striped per
    shard (strict LRU with [shards = 1]).  Warm start: {!create} scans
    the directory and adopts entries left by previous processes.

    Cross-process coalescing: {!try_lock}/{!wait}/{!unlock} implement
    "first process computes, others wait for the published entry" via
    [O_EXCL] lock files with stale-lock stealing.

    Metrics (labeled by store name + instance):
    [store.disk_hits], [store.misses], [store.evictions],
    [store.quarantined] (counters), [store.bytes] (gauge),
    [store.lock_wait_seconds] (histogram). *)

type t

val create :
  dir:string ->
  ?shards:int ->
  ?byte_budget:int ->
  ?name:string ->
  ?stale_lock_s:float ->
  unit ->
  t
(** Open (creating directories as needed) a cache rooted at [dir] and
    warm-start from any entries already on disk.  [shards] defaults to
    16; [byte_budget] bounds resident bytes (0, the default, means
    unlimited); [name] labels the metrics series; [stale_lock_s] is the
    age past which a foreign lock file is presumed dead (default 60s).
    @raise Invalid_argument if [shards < 1]. *)

val find : t -> key:string -> string option
(** The payload published for [key], or [None] on miss.  Checksum and
    key mismatches quarantine the entry and report a miss. *)

val put : t -> key:string -> string -> unit
(** Atomically publish a payload for [key] (last writer wins), then
    evict least-recently-used entries of the key's shard while the
    byte budget is exceeded. *)

val quarantine : t -> key:string -> unit
(** Move [key]'s entry aside and count it — for callers that detect
    payload-level corruption the framing checksums cannot see (e.g. a
    [Marshal] decode failure). *)

val try_lock : ?steal:bool -> t -> key:string -> bool
(** Try to acquire the cross-process compute lock for [key].  [true]
    means this caller owns the compute and must {!unlock} when done
    (after {!put} on success).  Stale locks (older than
    [stale_lock_s]) are stolen unless [steal:false]. *)

val unlock : t -> key:string -> unit

val wait : t -> key:string -> ?timeout_s:float -> unit -> string option
(** Poll for another process's publication of [key].  Returns the
    payload, or [None] when the lock disappears without a publication
    or [timeout_s] (default 30s) elapses — either way the caller should
    compute. *)

val dir : t -> string

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val quarantined : t -> int

val bytes : t -> int
(** Resident payload bytes as accounted by this instance. *)

val entry_count : t -> int
