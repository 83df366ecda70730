(* The persistent artifact layer: cbsp-art/1 framing round-trips, any
   single-byte corruption is quarantined (never a crash or a wrong
   value), eviction is LRU under the byte budget, and concurrent
   identical lookups — across domains and across cache instances —
   coalesce to exactly one compute. *)

module Diskcache = Cbsp_engine.Diskcache
module Store = Cbsp_engine.Store
module Scheduler = Cbsp_engine.Scheduler

let with_dir = Tutil.with_temp_dir

(* ------------------------------------------------------------------ *)
(* Framing round-trip                                                  *)

let test_roundtrip_basic () =
  with_dir "rt" @@ fun dir ->
  let c = Diskcache.create ~dir ~shards:4 ~name:"t" () in
  Diskcache.put c ~key:"k1" "hello";
  Tutil.check_bool "same-instance find" true
    (Diskcache.find c ~key:"k1" = Some "hello");
  Tutil.check_bool "missing key" true (Diskcache.find c ~key:"nope" = None);
  (* A second instance over the same directory warm-starts and serves
     the entry — the cross-process / restart path. *)
  let c2 = Diskcache.create ~dir ~shards:4 ~name:"t" () in
  Tutil.check_int "warm-start adopted the entry" 1 (Diskcache.entry_count c2);
  Tutil.check_bool "warm-start find" true
    (Diskcache.find c2 ~key:"k1" = Some "hello");
  Tutil.check_int "warm hit counted" 1 (Diskcache.hits c2)

(* Arbitrary keys and payloads (any bytes, including NUL and newlines)
   survive put → find, both on the writing instance and on a fresh
   warm-started one. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"diskcache put/find round-trips any bytes"
    ~count:60
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(0 -- 500)))
    (fun (key, payload) ->
      with_dir "qc" @@ fun dir ->
      let c = Diskcache.create ~dir ~shards:2 () in
      Diskcache.put c ~key payload;
      let c2 = Diskcache.create ~dir ~shards:2 () in
      Diskcache.find c ~key = Some payload
      && Diskcache.find c2 ~key = Some payload)

let test_last_writer_wins () =
  with_dir "lww" @@ fun dir ->
  let c = Diskcache.create ~dir ~shards:1 () in
  Diskcache.put c ~key:"k" "first";
  Diskcache.put c ~key:"k" "second";
  Tutil.check_bool "overwritten" true (Diskcache.find c ~key:"k" = Some "second");
  Tutil.check_int "one entry" 1 (Diskcache.entry_count c)

(* ------------------------------------------------------------------ *)
(* Corruption: every possible single-byte flip of an entry file must
   read as a miss, quarantine the file aside, and never crash.         *)

let entry_file dir =
  let shard = Filename.concat dir "shard-000" in
  match
    Array.to_list (Sys.readdir shard)
    |> List.filter (fun n -> Filename.check_suffix n ".art")
  with
  | [ n ] -> Filename.concat shard n
  | l -> Alcotest.failf "expected exactly one .art entry, got %d" (List.length l)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let test_single_byte_corruption_exhaustive () =
  with_dir "corrupt" @@ fun dir ->
  let key = "corruption-victim" in
  let payload = "0123456789abcdef-payload" in
  let c0 = Diskcache.create ~dir ~shards:1 () in
  Diskcache.put c0 ~key payload;
  let path = entry_file dir in
  let good = read_file path in
  for i = 0 to String.length good - 1 do
    let bad = Bytes.of_string good in
    Bytes.set bad i (Char.chr (Char.code good.[i] lxor 0xff));
    write_file path (Bytes.to_string bad);
    (* A fresh instance warm-starts from the directory, so the corrupt
       file is in its index exactly like a real survivor would be. *)
    let c = Diskcache.create ~dir ~shards:1 () in
    (match Diskcache.find c ~key with
    | Some v ->
      Alcotest.failf "byte %d: corrupt entry served a value (%d bytes)" i
        (String.length v)
    | None -> ());
    Tutil.check_int (Printf.sprintf "byte %d: quarantined" i) 1
      (Diskcache.quarantined c);
    Tutil.check_bool
      (Printf.sprintf "byte %d: file moved aside" i)
      false (Sys.file_exists path);
    Tutil.check_bool
      (Printf.sprintf "byte %d: .quar file exists" i)
      true
      (Sys.file_exists (path ^ ".quar"));
    Sys.remove (path ^ ".quar");
    write_file path good
  done;
  (* The pristine file still reads fine afterwards. *)
  let c = Diskcache.create ~dir ~shards:1 () in
  Tutil.check_bool "restored entry reads back" true
    (Diskcache.find c ~key = Some payload)

let test_truncation_quarantined () =
  with_dir "trunc" @@ fun dir ->
  let key = "short" in
  let c0 = Diskcache.create ~dir ~shards:1 () in
  Diskcache.put c0 ~key "some payload bytes";
  let path = entry_file dir in
  let good = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub good 0 keep);
      let c = Diskcache.create ~dir ~shards:1 () in
      Tutil.check_bool
        (Printf.sprintf "truncated to %d: miss" keep)
        true
        (Diskcache.find c ~key = None);
      Tutil.check_int (Printf.sprintf "truncated to %d: quarantined" keep) 1
        (Diskcache.quarantined c);
      (try Sys.remove (path ^ ".quar") with Sys_error _ -> ());
      write_file path good)
    [ 0; 1; String.length good / 2; String.length good - 1 ]

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)

(* Frame overhead for a 1-byte key with a sub-128-byte payload:
   11 (magic) + 3 (varints + key) + 4 + 4 (checksums) = 22 bytes. *)
let entry_bytes payload_len = 22 + payload_len

let test_lru_eviction_order () =
  with_dir "lru" @@ fun dir ->
  let payload = String.make 100 'x' in
  let per_entry = entry_bytes 100 (* = 122 *) in
  let budget = (3 * per_entry) + 34 (* fits 3 entries, not 4 *) in
  let c = Diskcache.create ~dir ~shards:1 ~byte_budget:budget () in
  Diskcache.put c ~key:"a" payload;
  Diskcache.put c ~key:"b" payload;
  Diskcache.put c ~key:"c" payload;
  Tutil.check_int "no eviction under budget" 0 (Diskcache.evictions c);
  (* Touch [a]: it becomes the most recently used, so the LRU victim of
     the next insertion is [b]. *)
  Tutil.check_bool "touch a" true (Diskcache.find c ~key:"a" = Some payload);
  Diskcache.put c ~key:"d" payload;
  Tutil.check_int "one eviction" 1 (Diskcache.evictions c);
  Tutil.check_bool "b evicted (LRU)" true (Diskcache.find c ~key:"b" = None);
  (* Check (and thereby touch) the survivors oldest-first, so [c] is the
     LRU again afterwards: the finds below re-stamp c, then a, then d. *)
  Tutil.check_bool "c survived" true (Diskcache.find c ~key:"c" = Some payload);
  Tutil.check_bool "a survived (recently touched)" true
    (Diskcache.find c ~key:"a" = Some payload);
  Tutil.check_bool "d survived (just inserted)" true
    (Diskcache.find c ~key:"d" = Some payload);
  Diskcache.put c ~key:"e" payload;
  Tutil.check_int "second eviction" 2 (Diskcache.evictions c);
  Tutil.check_bool "c evicted next" true (Diskcache.find c ~key:"c" = None);
  Tutil.check_int "three entries resident" 3 (Diskcache.entry_count c);
  Tutil.check_bool "bytes within budget" true (Diskcache.bytes c <= budget)

let test_eviction_spares_newest () =
  (* A budget smaller than a single entry must not evict the entry just
     inserted — the cache always keeps the most recently touched one. *)
  with_dir "tiny-budget" @@ fun dir ->
  let c = Diskcache.create ~dir ~shards:1 ~byte_budget:10 () in
  Diskcache.put c ~key:"only" "payload far over the 10-byte budget";
  Tutil.check_int "entry kept" 1 (Diskcache.entry_count c);
  Tutil.check_bool "still readable" true
    (Diskcache.find c ~key:"only" <> None)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)

let test_multi_domain_coalescing () =
  (* K concurrent identical lookups through a disk-backed store: exactly
     one compute, everyone sees the same value, and the artifact lands
     on disk for the next process. *)
  with_dir "coalesce" @@ fun dir ->
  let disk = Diskcache.create ~dir ~shards:4 ~name:"co" () in
  let store = Store.create ~name:"co" ~disk () in
  let calls = Atomic.make 0 in
  let values =
    Scheduler.parallel_map ~jobs:8
      (fun _ ->
        Store.find_or_compute store ~key:"shared-artifact" (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.005;
            [ 1; 2; 3 ]))
      (List.init 16 Fun.id)
  in
  Tutil.check_int "exactly one compute under contention" 1 (Atomic.get calls);
  Tutil.check_int "store counted one compute" 1 (Store.computes store);
  Tutil.check_int "fifteen coalesced hits" 15 (Store.hits store);
  Tutil.check_bool "all callers same value" true
    (List.for_all (fun v -> v = [ 1; 2; 3 ]) values);
  (* A second store over a fresh cache instance (the restart / second
     process) is served from disk without computing. *)
  let disk2 = Diskcache.create ~dir ~shards:4 ~name:"co" () in
  let store2 = Store.create ~name:"co" ~disk:disk2 () in
  let v =
    Store.find_or_compute store2 ~key:"shared-artifact" (fun () ->
        Atomic.incr calls;
        [ 9 ])
  in
  Tutil.check_bool "warm store served persisted value" true (v = [ 1; 2; 3 ]);
  Tutil.check_int "no new compute" 1 (Atomic.get calls);
  Tutil.check_int "disk hit counted" 1 (Diskcache.hits disk2)

let test_cross_instance_lock_coalescing () =
  (* Two cache instances over one directory stand in for two processes:
     the lock owner computes and publishes; the other instance's [wait]
     returns the published payload. *)
  with_dir "locks" @@ fun dir ->
  let a = Diskcache.create ~dir ~shards:1 () in
  let b = Diskcache.create ~dir ~shards:1 () in
  Tutil.check_bool "a takes the lock" true (Diskcache.try_lock a ~key:"k");
  Tutil.check_bool "b cannot" false (Diskcache.try_lock b ~key:"k");
  let waiter =
    Domain.spawn (fun () -> Diskcache.wait b ~key:"k" ~timeout_s:5.0 ())
  in
  Unix.sleepf 0.02;
  Diskcache.put a ~key:"k" "published";
  Diskcache.unlock a ~key:"k";
  Tutil.check_bool "waiter got the publication" true
    (Domain.join waiter = Some "published")

let test_lock_released_without_publication () =
  with_dir "lock-abort" @@ fun dir ->
  let a = Diskcache.create ~dir ~shards:1 () in
  let b = Diskcache.create ~dir ~shards:1 () in
  Tutil.check_bool "a takes the lock" true (Diskcache.try_lock a ~key:"k");
  let waiter =
    Domain.spawn (fun () -> Diskcache.wait b ~key:"k" ~timeout_s:5.0 ())
  in
  Unix.sleepf 0.02;
  (* Owner dies without publishing: waiters must fall back to compute. *)
  Diskcache.unlock a ~key:"k";
  Tutil.check_bool "waiter told to compute" true (Domain.join waiter = None)

let test_stale_lock_stolen () =
  with_dir "stale" @@ fun dir ->
  let a = Diskcache.create ~dir ~shards:1 ~stale_lock_s:0.01 () in
  let b = Diskcache.create ~dir ~shards:1 ~stale_lock_s:0.01 () in
  Tutil.check_bool "a takes the lock" true (Diskcache.try_lock a ~key:"k");
  Unix.sleepf 0.05;
  Tutil.check_bool "b steals the stale lock" true (Diskcache.try_lock b ~key:"k");
  Diskcache.unlock b ~key:"k"

let test_store_quarantines_unmarshalable_payload () =
  (* A payload that passes the framing checksums but is not a [Marshal]
     encoding — corruption the frame cannot see.  The store must
     quarantine it and recompute, not crash or return garbage. *)
  with_dir "badmarshal" @@ fun dir ->
  let disk = Diskcache.create ~dir ~shards:1 ~name:"bm" () in
  Diskcache.put disk ~key:"k" "definitely not marshal bytes";
  let store = Store.create ~name:"bm" ~disk () in
  let v = Store.find_or_compute store ~key:"k" (fun () -> 42) in
  Tutil.check_int "recomputed past the bad payload" 42 v;
  Tutil.check_int "payload quarantined" 1 (Store.quarantined store);
  Tutil.check_int "one compute" 1 (Store.computes store);
  (* The recomputed value was re-published and now reads back fine. *)
  let disk2 = Diskcache.create ~dir ~shards:1 ~name:"bm" () in
  let store2 = Store.create ~name:"bm" ~disk:disk2 () in
  Tutil.check_int "republished value served" 42
    (Store.find_or_compute store2 ~key:"k" (fun () -> 7));
  Tutil.check_int "served without computing" 0 (Store.computes store2)

let () =
  Alcotest.run "store"
    [ ( "roundtrip",
        [ Tutil.quick "put/find + warm start" test_roundtrip_basic;
          Tutil.qcheck_case prop_roundtrip;
          Tutil.quick "last writer wins" test_last_writer_wins ] );
      ( "corruption",
        [ Tutil.quick "every single-byte flip quarantined"
            test_single_byte_corruption_exhaustive;
          Tutil.quick "truncation quarantined" test_truncation_quarantined ] );
      ( "eviction",
        [ Tutil.quick "LRU order under byte budget" test_lru_eviction_order;
          Tutil.quick "newest entry spared" test_eviction_spares_newest ] );
      ( "coalescing",
        [ Tutil.quick "multi-domain exactly-once" test_multi_domain_coalescing;
          Tutil.quick "cross-instance lock wait"
            test_cross_instance_lock_coalescing;
          Tutil.quick "abandoned lock falls back"
            test_lock_released_without_publication;
          Tutil.quick "stale lock stolen" test_stale_lock_stolen;
          Tutil.quick "unmarshalable payload recomputed"
            test_store_quarantines_unmarshalable_payload ] ) ]
