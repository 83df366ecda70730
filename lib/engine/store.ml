(* Each key owns a cell; the table mutex only guards cell creation, so a
   slow computation for one key never blocks lookups of another.  The
   cell's own mutex/condition implements "first caller computes, the
   rest wait".

   With an attached {!Diskcache} the owner consults disk before
   computing and publishes after.  Other processes sharing the
   directory are not waited for: each computes what it misses, and the
   cache's atomic rename makes the last identical write win.  Values
   cross the disk boundary as [Marshal] bytes under the cache's
   digest-checked framing; a payload that passes the digest but fails
   to unmarshal is quarantined like any other corruption.  Only
   successful computations are persisted, and best-effort: a failed
   write is counted by the cache, never raised.  Exceptions are cached
   in memory for this process only.

   Each store counts its own computes and hits, and adds each to the
   obs metrics registry's [store.computes]/[store.hits] series of its
   name, with a [store.wait_seconds] histogram of how long waiters
   blocked on in-flight computations.  The series are per name, not per
   instance: a process that makes an engine per program per operation
   would otherwise register three series per store forever.
   Disk-level series ([store.disk_hits]/[store.misses]/
   [store.evictions]/[store.quarantined]/[store.publish_errors]/
   [store.bytes]) belong to the attached cache. *)

module Metrics = Cbsp_obs.Metrics

type 'v outcome = Value of 'v | Raised of exn

type 'v cell = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable c_outcome : 'v outcome option;
}

type 'v t = {
  s_mutex : Mutex.t;
  s_table : (string, 'v cell) Hashtbl.t;
  s_disk : Diskcache.t option;
  s_computes : Metrics.tally;
  s_hits : Metrics.tally;
  s_wait : Metrics.histogram;
}

let create ?(name = "store") ?disk () =
  let labels = [ ("store", name) ] in
  { s_mutex = Mutex.create (); s_table = Hashtbl.create 64;
    s_disk = disk;
    s_computes = Metrics.tally ~labels "store.computes";
    s_hits = Metrics.tally ~labels "store.hits";
    s_wait = Metrics.histogram ~labels "store.wait_seconds" }

(* [No_sharing] makes the encoding a function of the value's structure
   alone: with sharing, two equal values whose strings are aliased
   differently (a marker name read from one binary's table vs built by
   the prover) marshal to different bytes and miss each other's
   entries. *)
let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* The value persisted for [key], if any.  A payload that fails to
   unmarshal is corruption the frame cannot see: quarantine it and read
   it as absent. *)
let from_disk t ~key =
  match t.s_disk with
  | None -> None
  | Some d -> (
    match Diskcache.find d ~key with
    | None -> None
    | Some payload -> (
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception _ ->
        Diskcache.quarantine d ~key;
        None))

(* The owner's path once the in-memory cell is created: serve from
   disk, else compute and publish a success. *)
let resolve t ~key f =
  match from_disk t ~key with
  | Some v ->
    Metrics.bump t.s_hits;
    Value v
  | None -> (
    Metrics.bump t.s_computes;
    match f () with
    | v ->
      Option.iter
        (fun d -> Diskcache.put d ~key (Marshal.to_string v []))
        t.s_disk;
      Value v
    | exception e -> Raised e)

(* Find [key]'s cell or create it; its creator resolves it with
   [resolve] and wakes the waiters, every other caller waits. *)
let fill t ~key resolve =
  let cell, owner =
    Mutex.protect t.s_mutex (fun () ->
        match Hashtbl.find_opt t.s_table key with
        | Some c -> (c, false)
        | None ->
          let c =
            { c_mutex = Mutex.create (); c_cond = Condition.create ();
              c_outcome = None }
          in
          Hashtbl.add t.s_table key c;
          (c, true))
  in
  if owner then begin
    (* Whatever escapes [resolve] still fills the cell, so no waiter
       is stranded. *)
    let outcome = try resolve () with e -> Raised e in
    Mutex.protect cell.c_mutex (fun () ->
        cell.c_outcome <- Some outcome;
        Condition.broadcast cell.c_cond);
    match outcome with Value v -> v | Raised e -> raise e
  end
  else begin
    Metrics.bump t.s_hits;
    let t0 = Unix.gettimeofday () in
    let outcome =
      Mutex.protect cell.c_mutex (fun () ->
          while cell.c_outcome = None do
            Condition.wait cell.c_cond cell.c_mutex
          done;
          Option.get cell.c_outcome)
    in
    Metrics.observe t.s_wait (Unix.gettimeofday () -. t0);
    match outcome with Value v -> v | Raised e -> raise e
  end

let find_or_compute t ~key f = fill t ~key (fun () -> resolve t ~key f)

(* A lookup that never computes: a value held in memory, else one on
   disk, which then fills the key's cell as an owner's disk hit would. *)
let find_opt t ~key =
  match Mutex.protect t.s_mutex (fun () -> Hashtbl.find_opt t.s_table key) with
  | Some cell -> (
    match Mutex.protect cell.c_mutex (fun () -> cell.c_outcome) with
    | Some (Value v) ->
      Metrics.bump t.s_hits;
      Some v
    | Some (Raised _) | None -> None)
  | None ->
    Option.map
      (fun v ->
        fill t ~key (fun () ->
            Metrics.bump t.s_hits;
            Value v))
      (from_disk t ~key)

(* [c_outcome] is written by the owner under the CELL mutex, so reading
   it here must take the cell mutex too — holding only the table mutex
   (as this function once did) is a data race under domains: the table
   mutex orders nothing against the owner's write. *)
let mem t ~key =
  match
    Mutex.protect t.s_mutex (fun () -> Hashtbl.find_opt t.s_table key)
  with
  | None -> false
  | Some cell ->
    Mutex.protect cell.c_mutex (fun () ->
        match cell.c_outcome with
        | Some (Value _) -> true
        | Some (Raised _) | None -> false)

let computes t = Metrics.own t.s_computes

let hits t = Metrics.own t.s_hits

let quarantined t =
  match t.s_disk with None -> 0 | Some d -> Diskcache.quarantined d
