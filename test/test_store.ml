(* The persistent artifact layer: cbsp-art/2 framing round-trips, any
   single-byte corruption or foreign entry is quarantined (never a
   crash or a wrong value), eviction is LRU under the byte budget and
   the byte count matches the files, concurrent identical lookups
   across domains coalesce to exactly one compute, instances racing one
   key leave one intact entry, and a failed publication never strands
   a waiter. *)

module Diskcache = Cbsp_engine.Diskcache
module Store = Cbsp_engine.Store
module Scheduler = Cbsp_engine.Scheduler

let with_dir = Tutil.with_temp_dir

(* ------------------------------------------------------------------ *)
(* Framing round-trip                                                  *)

let test_roundtrip_basic () =
  with_dir "rt" @@ fun dir ->
  let c = Diskcache.create ~dir ~name:"t" () in
  Diskcache.put c ~key:"k1" "hello";
  Tutil.check_bool "same-instance find" true
    (Diskcache.find c ~key:"k1" = Some "hello");
  Tutil.check_bool "missing key" true (Diskcache.find c ~key:"nope" = None);
  (* A second instance over the same directory warm-starts and serves
     the entry — the cross-process / restart path. *)
  let c2 = Diskcache.create ~dir ~name:"t" () in
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
      let c = Diskcache.create ~dir () in
      Diskcache.put c ~key payload;
      let c2 = Diskcache.create ~dir () in
      Diskcache.find c ~key = Some payload
      && Diskcache.find c2 ~key = Some payload)

let test_last_writer_wins () =
  with_dir "lww" @@ fun dir ->
  let c = Diskcache.create ~dir () in
  Diskcache.put c ~key:"k" "first";
  Diskcache.put c ~key:"k" "second";
  Tutil.check_bool "overwritten" true (Diskcache.find c ~key:"k" = Some "second");
  Tutil.check_int "one entry" 1 (Diskcache.entry_count c)

(* ------------------------------------------------------------------ *)
(* Corruption: every possible single-byte flip of an entry file must
   read as a miss, quarantine the file aside, and never crash.         *)

let files_with ~suffix dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun n -> Filename.check_suffix n suffix)
  |> List.map (Filename.concat dir)

let entry_file dir =
  match files_with ~suffix:".art" dir with
  | [ path ] -> path
  | l -> Alcotest.failf "expected exactly one .art entry, got %d" (List.length l)

(* Where the cache keeps [key]'s entry. *)
let entry_path dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".art")

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
  let c0 = Diskcache.create ~dir () in
  Diskcache.put c0 ~key payload;
  let path = entry_file dir in
  let good = read_file path in
  for i = 0 to String.length good - 1 do
    let bad = Bytes.of_string good in
    Bytes.set bad i (Char.chr (Char.code good.[i] lxor 0xff));
    write_file path (Bytes.to_string bad);
    (* A fresh instance warm-starts from the directory, so the corrupt
       file is in its index exactly like a real survivor would be. *)
    let c = Diskcache.create ~dir () in
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
  let c = Diskcache.create ~dir () in
  Tutil.check_bool "restored entry reads back" true
    (Diskcache.find c ~key = Some payload)

let test_truncation_quarantined () =
  with_dir "trunc" @@ fun dir ->
  let key = "short" in
  let c0 = Diskcache.create ~dir () in
  Diskcache.put c0 ~key "some payload bytes";
  let path = entry_file dir in
  let good = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub good 0 keep);
      let c = Diskcache.create ~dir () in
      Tutil.check_bool
        (Printf.sprintf "truncated to %d: miss" keep)
        true
        (Diskcache.find c ~key = None);
      Tutil.check_int (Printf.sprintf "truncated to %d: quarantined" keep) 1
        (Diskcache.quarantined c);
      (try Sys.remove (path ^ ".quar") with Sys_error _ -> ());
      write_file path good)
    [ 0; 1; String.length good / 2; String.length good - 1 ]

(* An intact entry for another key, planted under [key]'s name after
   the instance was created (so it is not in the table): a digest
   collision as far as the cache can tell.  It must be quarantined and
   counted, not served and not left in place. *)
let test_foreign_key_quarantined () =
  with_dir "foreign" @@ fun dir ->
  let c = Diskcache.create ~dir () in
  with_dir "foreign-src" (fun src ->
      let w = Diskcache.create ~dir:src () in
      Diskcache.put w ~key:"other" "someone else's payload";
      write_file (entry_path dir "k") (read_file (entry_file src)));
  Tutil.check_bool "miss" true (Diskcache.find c ~key:"k" = None);
  Tutil.check_int "quarantined" 1 (Diskcache.quarantined c);
  Tutil.check_bool "file moved aside" false
    (Sys.file_exists (entry_path dir "k"));
  Tutil.check_bool ".quar file exists" true
    (Sys.file_exists (entry_path dir "k" ^ ".quar"));
  Tutil.check_int "nothing resident" 0 (Diskcache.entry_count c)

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)

(* Frame overhead for a 1-byte key: 11 (magic) + 2 (key length and
   newline) + 1 (key) + 16 (MD5) = 30 bytes. *)
let entry_bytes payload_len = 30 + payload_len

let test_lru_eviction_order () =
  with_dir "lru" @@ fun dir ->
  let payload = String.make 100 'x' in
  let per_entry = entry_bytes 100 (* = 130 *) in
  let budget = (3 * per_entry) + 34 (* fits 3 entries, not 4 *) in
  let c = Diskcache.create ~dir ~byte_budget:budget () in
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
  Tutil.check_bool "bytes within budget" true (Diskcache.bytes c <= budget);
  (* A warm start under a smaller budget holds it too. *)
  let small = 2 * per_entry in
  let c2 = Diskcache.create ~dir ~byte_budget:small () in
  Tutil.check_int "warm start evicted one" 1 (Diskcache.evictions c2);
  Tutil.check_int "two entries resident" 2 (Diskcache.entry_count c2);
  Tutil.check_int "two entry files" 2 (Array.length (Sys.readdir dir));
  Tutil.check_bool "warm bytes within budget" true
    (Diskcache.bytes c2 <= small)

let test_eviction_spares_newest () =
  (* A budget smaller than a single entry must not evict the entry just
     inserted — the cache always keeps the most recently touched one. *)
  with_dir "tiny-budget" @@ fun dir ->
  let c = Diskcache.create ~dir ~byte_budget:10 () in
  Diskcache.put c ~key:"only" "payload far over the 10-byte budget";
  Tutil.check_int "entry kept" 1 (Diskcache.entry_count c);
  Tutil.check_bool "still readable" true
    (Diskcache.find c ~key:"only" <> None)

let file_bytes dir =
  List.fold_left
    (fun acc path -> acc + (Unix.stat path).Unix.st_size)
    0 (files_with ~suffix:".art" dir)

(* [bytes] is the sum of the entry files' sizes however an entry
   entered the table: warm start, another instance's publication seen
   for the first time, or another instance's overwrite. *)
let test_bytes_match_files () =
  with_dir "bytes" @@ fun dir ->
  let a = Diskcache.create ~dir () in
  Diskcache.put a ~key:"k1" "one";
  Diskcache.put a ~key:"k2" (String.make 500 'x');
  let b = Diskcache.create ~dir () in
  Tutil.check_int "after warm start" (file_bytes dir) (Diskcache.bytes b);
  Diskcache.put a ~key:"k3" (String.make 3000 'y');
  Tutil.check_bool "first sight" true (Diskcache.find b ~key:"k3" <> None);
  Tutil.check_int "after first sight" (file_bytes dir) (Diskcache.bytes b);
  Diskcache.put a ~key:"k1" (String.make 70 'z');
  Tutil.check_bool "overwrite read" true
    (Diskcache.find b ~key:"k1" = Some (String.make 70 'z'));
  Tutil.check_int "after overwrite" (file_bytes dir) (Diskcache.bytes b);
  Tutil.check_int "three entries" 3 (Diskcache.entry_count b)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)

let test_multi_domain_coalescing () =
  (* K concurrent identical lookups through a disk-backed store: exactly
     one compute, everyone sees the same value, and the artifact lands
     on disk for the next process. *)
  with_dir "coalesce" @@ fun dir ->
  let disk = Diskcache.create ~dir ~name:"co" () in
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
  let disk2 = Diskcache.create ~dir ~name:"co" () in
  let store2 = Store.create ~name:"co" ~disk:disk2 () in
  let v =
    Store.find_or_compute store2 ~key:"shared-artifact" (fun () ->
        Atomic.incr calls;
        [ 9 ])
  in
  Tutil.check_bool "warm store served persisted value" true (v = [ 1; 2; 3 ]);
  Tutil.check_int "no new compute" 1 (Atomic.get calls);
  Tutil.check_int "disk hit counted" 1 (Diskcache.hits disk2)

(* Two stores over one directory stand in for two processes racing one
   key: both compute (nothing coordinates them), both get the value, and
   the atomic rename leaves exactly one intact entry and no debris for
   a third instance to serve. *)
let test_instances_race_one_key () =
  with_dir "race" @@ fun dir ->
  let calls = Atomic.make 0 in
  let run () =
    let store = Store.create ~name:"race" ~disk:(Diskcache.create ~dir ()) () in
    Store.find_or_compute store ~key:"k" (fun () ->
        Atomic.incr calls;
        Unix.sleepf 0.01;
        [ 4; 5; 6 ])
  in
  let other = Domain.spawn run in
  let mine = run () in
  Tutil.check_bool "this domain got the value" true (mine = [ 4; 5; 6 ]);
  Tutil.check_bool "other domain got the value" true
    (Domain.join other = [ 4; 5; 6 ]);
  Tutil.check_int "one entry" 1 (List.length (files_with ~suffix:".art" dir));
  Tutil.check_bool "no tmp, lock or quarantine files" true
    (Array.for_all
       (fun n -> Filename.check_suffix n ".art")
       (Sys.readdir dir));
  let third = Store.create ~name:"race" ~disk:(Diskcache.create ~dir ()) () in
  Tutil.check_bool "third instance served" true
    (Store.find_or_compute third ~key:"k" (fun () -> [ 0 ]) = [ 4; 5; 6 ]);
  Tutil.check_int "third instance did not compute" 0 (Store.computes third);
  Tutil.check_bool "at most two computes" true (Atomic.get calls <= 2)

(* Publication failing (the cache directory is gone) must neither
   raise from the owner nor strand a caller waiting on the key: the
   value is returned to both, the cell is filled, and the failure is
   counted. *)
let test_publish_error_fills_cell () =
  with_dir "gone" @@ fun dir ->
  let disk = Diskcache.create ~dir () in
  Tutil.rm_rf dir;
  let store = Store.create ~name:"gone" ~disk () in
  let started = Atomic.make false and waited = Atomic.make None in
  let waiter =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do Domain.cpu_relax () done;
        Atomic.set waited
          (Some (Store.find_or_compute store ~key:"k" (fun () -> 0))))
  in
  let v =
    Store.find_or_compute store ~key:"k" (fun () ->
        Atomic.set started true;
        Unix.sleepf 0.02;
        42)
  in
  Tutil.check_int "owner got the value" 42 v;
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get waited = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  (match Atomic.get waited with
  | Some w -> Tutil.check_int "waiter got the value" 42 w
  | None -> Alcotest.fail "waiter still blocked after 5 s");
  Domain.join waiter;
  Tutil.check_bool "cell filled" true (Store.mem store ~key:"k");
  Tutil.check_int "failure counted" 1 (Diskcache.publish_errors disk)

let test_store_quarantines_unmarshalable_payload () =
  (* A payload that passes the framing checksums but is not a [Marshal]
     encoding — corruption the frame cannot see.  The store must
     quarantine it and recompute, not crash or return garbage. *)
  with_dir "badmarshal" @@ fun dir ->
  let disk = Diskcache.create ~dir ~name:"bm" () in
  Diskcache.put disk ~key:"k" "definitely not marshal bytes";
  let store = Store.create ~name:"bm" ~disk () in
  let v = Store.find_or_compute store ~key:"k" (fun () -> 42) in
  Tutil.check_int "recomputed past the bad payload" 42 v;
  Tutil.check_int "payload quarantined" 1 (Store.quarantined store);
  Tutil.check_int "one compute" 1 (Store.computes store);
  (* The recomputed value was re-published and now reads back fine. *)
  let disk2 = Diskcache.create ~dir ~name:"bm" () in
  let store2 = Store.create ~name:"bm" ~disk:disk2 () in
  Tutil.check_int "republished value served" 42
    (Store.find_or_compute store2 ~key:"k" (fun () -> 7));
  Tutil.check_int "served without computing" 0 (Store.computes store2)

(* [find_opt] serves what a store holds, in memory or on disk, and never
   computes: an absent key, a raised one and a fresh directory all give
   [None] and leave the compute count alone. *)
let test_find_opt_never_computes () =
  with_dir "find" @@ fun dir ->
  let store = Store.create ~disk:(Diskcache.create ~dir ()) () in
  Tutil.check_bool "absent" true (Store.find_opt store ~key:"k" = None);
  Tutil.check_int "a miss computes nothing" 0 (Store.computes store);
  ignore (Store.find_or_compute store ~key:"k" (fun () -> 42) : int);
  Tutil.check_bool "held in memory" true (Store.find_opt store ~key:"k" = Some 42);
  (try ignore (Store.find_or_compute store ~key:"bad" (fun () -> failwith "x") : int)
   with Failure _ -> ());
  Tutil.check_bool "raised" true (Store.find_opt store ~key:"bad" = None);
  let warm = Store.create ~disk:(Diskcache.create ~dir ()) () in
  Tutil.check_bool "on disk" true (Store.find_opt warm ~key:"k" = Some 42);
  Tutil.check_int "a disk hit computes nothing" 0 (Store.computes warm);
  Tutil.check_int "then it is in memory" 42
    (Store.find_or_compute warm ~key:"k" (fun () -> 0))

let () =
  Alcotest.run "store"
    [ ( "roundtrip",
        [ Tutil.quick "put/find + warm start" test_roundtrip_basic;
          Tutil.qcheck_case prop_roundtrip;
          Tutil.quick "last writer wins" test_last_writer_wins;
          Tutil.quick "find_opt never computes" test_find_opt_never_computes ] );
      ( "corruption",
        [ Tutil.quick "every single-byte flip quarantined"
            test_single_byte_corruption_exhaustive;
          Tutil.quick "truncation quarantined" test_truncation_quarantined;
          Tutil.quick "foreign key quarantined" test_foreign_key_quarantined ] );
      ( "eviction",
        [ Tutil.quick "LRU order under byte budget" test_lru_eviction_order;
          Tutil.quick "newest entry spared" test_eviction_spares_newest;
          Tutil.quick "bytes match entry files" test_bytes_match_files ] );
      ( "coalescing",
        [ Tutil.quick "multi-domain exactly-once" test_multi_domain_coalescing;
          Tutil.quick "two instances race one key" test_instances_race_one_key;
          Tutil.quick "publish error fills the cell"
            test_publish_error_fills_cell;
          Tutil.quick "unmarshalable payload recomputed"
            test_store_quarantines_unmarshalable_payload ] ) ]
