(* Sharded persistent artifact cache.

   Layout: [dir/shard-NNN/<md5-hex>.art], one file per entry, where the
   shard index and file name both derive from the MD5 of the full
   content key.  Each shard has its own mutex (lock striping): a slow
   disk read in one shard never blocks lookups in another.  Publication
   is a write to a dot-tmp file in the same shard directory followed by
   [Unix.rename], so readers — in this process or another — only ever
   see complete entries.

   Entries are framed as [cbsp-art/1]: a magic version tag, LEB128
   varint lengths, the full key, and Adler-32 checksums over header and
   payload, so a digest collision or a torn/bit-rotted file is
   detected on read: the entry is renamed aside ([.quar]), counted in
   [store.quarantined], and reported as a miss — corruption can cost a
   recompute, never a crash or a wrong value.

   Eviction is LRU under a byte budget, scoped to the shard being
   inserted into (strict LRU when [shards = 1]; approximate across
   shards, which keeps eviction lock-striped too).  The most recently
   touched entry is never evicted.

   Cross-process coalescing uses an [O_EXCL] lock file per key
   ([<name>.lock]): the creator computes and publishes, concurrent
   processes poll for the published entry and fall back to computing if
   the lock goes stale. *)

module Metrics = Cbsp_obs.Metrics

let fail fmt = Printf.ksprintf invalid_arg ("Diskcache: " ^^ fmt)

let magic = "cbsp-art/1\n"

(* --- adler32 + varints: the cbsp-art/1 frame --------------------------- *)

let adler_init = (1, 0)

let adler_feed (a, b) s pos len =
  let a = ref a and b = ref b in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code (String.unsafe_get s i)) mod 65521;
    b := (!b + !a) mod 65521
  done;
  (!a, !b)

let adler_value (a, b) = (b lsl 16) lor a

let adler_string s =
  adler_value (adler_feed adler_init s 0 (String.length s))

let put_varint buf n =
  if n < 0 then fail "cannot varint-encode negative %d" n;
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let put_u32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (shift * 8)) land 0xff))
  done

type cursor = { data : string; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let get_byte cur =
  if cur.pos >= String.length cur.data then corrupt "truncated entry";
  let c = Char.code (String.unsafe_get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  c

let get_varint cur =
  let n = ref 0 and shift = ref 0 in
  let continue = ref true in
  while !continue do
    let b = get_byte cur in
    if !shift > 56 then corrupt "varint overflow";
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !n

let get_u32 cur =
  let v = ref 0 in
  for shift = 0 to 3 do
    v := !v lor (get_byte cur lsl (shift * 8))
  done;
  !v

let get_string cur len =
  if len < 0 || cur.pos + len > String.length cur.data then
    corrupt "truncated entry";
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* --- entry framing ----------------------------------------------------- *)

let encode_entry ~key payload =
  let hdr = Buffer.create (String.length key + 16) in
  put_varint hdr (String.length key);
  Buffer.add_string hdr key;
  put_varint hdr (String.length payload);
  let hdr = Buffer.contents hdr in
  let buf =
    Buffer.create (String.length magic + String.length hdr
                   + String.length payload + 8)
  in
  Buffer.add_string buf magic;
  Buffer.add_string buf hdr;
  put_u32 buf (adler_string hdr);
  Buffer.add_string buf payload;
  put_u32 buf (adler_string payload);
  Buffer.contents buf

(* Raises [Corrupt] on any framing or checksum violation. *)
let decode_entry data =
  let cur = { data; pos = 0 } in
  let m = get_string cur (String.length magic) in
  if m <> magic then corrupt "bad magic";
  let hdr_start = cur.pos in
  let key_len = get_varint cur in
  let key = get_string cur key_len in
  let payload_len = get_varint cur in
  let hdr_adler =
    adler_value (adler_feed adler_init data hdr_start (cur.pos - hdr_start))
  in
  let stored = get_u32 cur in
  if stored <> hdr_adler then
    corrupt "header checksum mismatch (%08x vs %08x)" stored hdr_adler;
  let payload = get_string cur payload_len in
  let stored = get_u32 cur in
  let payload_adler = adler_string payload in
  if stored <> payload_adler then
    corrupt "payload checksum mismatch (%08x vs %08x)" stored payload_adler;
  if cur.pos <> String.length data then corrupt "trailing garbage";
  (key, payload)

(* --- filesystem helpers ------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

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

let unlink_quiet path = try Sys.remove path with Sys_error _ -> ()

(* --- cache ------------------------------------------------------------- *)

type entry = {
  mutable e_bytes : int;
  mutable e_seq : int;  (* LRU stamp: larger = more recently touched *)
}

type shard = {
  sh_mutex : Mutex.t;
  sh_dir : string;
  sh_table : (string, entry) Hashtbl.t;  (* keyed by entry basename *)
}

type t = {
  d_dir : string;
  d_shards : shard array;
  d_budget : int;  (* bytes; <= 0 means unlimited *)
  d_stale_lock_s : float;
  d_seq : int Atomic.t;
  d_total : int Atomic.t;  (* resident bytes across all shards *)
  d_hits : Metrics.counter;
  d_misses : Metrics.counter;
  d_evictions : Metrics.counter;
  d_quarantined : Metrics.counter;
  d_bytes : Metrics.gauge;
  d_lock_wait : Metrics.histogram;
}

let next_id = Atomic.make 0

let art_suffix = ".art"

let warm_load t =
  (* Rebuild the shard indexes from whatever a previous process left on
     disk.  Sizes come from [stat]; LRU stamps from mtime order.
     Entries are not checksummed here — a corrupt file is detected (and
     quarantined) on first read, exactly like a fresh one. *)
  let found = ref [] in
  Array.iter
    (fun sh ->
      match Sys.readdir sh.sh_dir with
      | exception Sys_error _ -> ()
      | names ->
        Array.iter
          (fun name ->
            if Filename.check_suffix name art_suffix then begin
              let path = Filename.concat sh.sh_dir name in
              match Unix.stat path with
              | exception Unix.Unix_error _ -> ()
              | st ->
                found :=
                  (st.Unix.st_mtime, sh, name, st.Unix.st_size) :: !found
            end)
          names)
    t.d_shards;
  let by_mtime =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !found
  in
  List.iter
    (fun (_, sh, name, bytes) ->
      let seq = Atomic.fetch_and_add t.d_seq 1 in
      Hashtbl.replace sh.sh_table name { e_bytes = bytes; e_seq = seq };
      ignore (Atomic.fetch_and_add t.d_total bytes))
    by_mtime;
  Metrics.set t.d_bytes (Atomic.get t.d_total)

let create ~dir ?(shards = 16) ?(byte_budget = 0) ?(name = "disk")
    ?(stale_lock_s = 60.) () =
  if shards < 1 then fail "need at least 1 shard, got %d" shards;
  let labels =
    [ ("store", name);
      ("instance", string_of_int (Atomic.fetch_and_add next_id 1)) ]
  in
  let mk_shard i =
    let sh_dir = Filename.concat dir (Printf.sprintf "shard-%03d" i) in
    mkdir_p sh_dir;
    { sh_mutex = Mutex.create (); sh_dir; sh_table = Hashtbl.create 32 }
  in
  let t =
    { d_dir = dir;
      d_shards = Array.init shards mk_shard;
      d_budget = byte_budget;
      d_stale_lock_s = stale_lock_s;
      d_seq = Atomic.make 0;
      d_total = Atomic.make 0;
      d_hits = Metrics.counter ~labels "store.disk_hits";
      d_misses = Metrics.counter ~labels "store.misses";
      d_evictions = Metrics.counter ~labels "store.evictions";
      d_quarantined = Metrics.counter ~labels "store.quarantined";
      d_bytes = Metrics.gauge ~labels "store.bytes";
      d_lock_wait = Metrics.histogram ~labels "store.lock_wait_seconds" }
  in
  warm_load t;
  t

let dir t = t.d_dir

let entry_name key = Digest.to_hex (Digest.string key) ^ art_suffix

let shard_of t key =
  let md5 = Digest.string key in
  t.d_shards.(Char.code md5.[0] mod Array.length t.d_shards)

let entry_path sh name = Filename.concat sh.sh_dir name

let touch t e = e.e_seq <- Atomic.fetch_and_add t.d_seq 1

(* Must hold [sh.sh_mutex]. *)
let drop_entry_locked t sh name e =
  Hashtbl.remove sh.sh_table name;
  ignore (Atomic.fetch_and_add t.d_total (-e.e_bytes));
  Metrics.set t.d_bytes (Atomic.get t.d_total)

(* Must hold [sh.sh_mutex].  Rename the file aside so it stops counting
   as resident but stays inspectable post-mortem. *)
let quarantine_locked t sh name e =
  let path = entry_path sh name in
  (try Unix.rename path (path ^ ".quar") with Unix.Unix_error _ -> ());
  drop_entry_locked t sh name e;
  Metrics.incr t.d_quarantined

(* Must hold [sh.sh_mutex].  Evict least-recently-used entries of this
   shard while the global byte total exceeds the budget, sparing the
   most recently touched entry ([keep]). *)
let evict_locked t sh ~keep =
  if t.d_budget > 0 then begin
    let continue = ref true in
    while !continue && Atomic.get t.d_total > t.d_budget do
      let victim =
        Hashtbl.fold
          (fun name e acc ->
            if name = keep then acc
            else
              match acc with
              | Some (_, best) when best.e_seq <= e.e_seq -> acc
              | _ -> Some (name, e))
          sh.sh_table None
      in
      match victim with
      | None -> continue := false
      | Some (name, e) ->
        unlink_quiet (entry_path sh name);
        drop_entry_locked t sh name e;
        Metrics.incr t.d_evictions
    done
  end

(* Load [path] and verify framing + key.  Must hold [sh.sh_mutex].
   Returns [None] after quarantining on any corruption. *)
let load_locked t sh name ~key =
  let path = entry_path sh name in
  match read_file path with
  | exception Sys_error _ ->
    (* Vanished under us (e.g. evicted by another process): a miss. *)
    (match Hashtbl.find_opt sh.sh_table name with
    | Some e -> drop_entry_locked t sh name e
    | None -> ());
    None
  | data -> (
    match decode_entry data with
    | stored_key, payload when stored_key = key -> Some payload
    | _, _ ->
      (* Digest collision or foreign entry under our name. *)
      (match Hashtbl.find_opt sh.sh_table name with
      | Some e -> quarantine_locked t sh name e
      | None -> ());
      None
    | exception Corrupt _ ->
      (match Hashtbl.find_opt sh.sh_table name with
      | Some e -> quarantine_locked t sh name e
      | None ->
        let p = entry_path sh name in
        (try Unix.rename p (p ^ ".quar") with Unix.Unix_error _ -> ());
        Metrics.incr t.d_quarantined);
      None)

let find t ~key =
  let name = entry_name key in
  let sh = shard_of t key in
  Mutex.protect sh.sh_mutex (fun () ->
      let known = Hashtbl.find_opt sh.sh_table name in
      let present =
        match known with
        | Some _ -> true
        | None ->
          (* Another process may have published since warm-start. *)
          Sys.file_exists (entry_path sh name)
      in
      if not present then begin
        Metrics.incr t.d_misses;
        None
      end
      else
        match load_locked t sh name ~key with
        | None ->
          Metrics.incr t.d_misses;
          None
        | Some payload ->
          (match Hashtbl.find_opt sh.sh_table name with
          | Some e -> touch t e
          | None ->
            (* First sighting of a cross-process publication. *)
            let e = { e_bytes = String.length payload + 64; e_seq = 0 } in
            touch t e;
            Hashtbl.replace sh.sh_table name e;
            ignore (Atomic.fetch_and_add t.d_total e.e_bytes);
            Metrics.set t.d_bytes (Atomic.get t.d_total));
          Metrics.incr t.d_hits;
          Some payload)

let tmp_counter = Atomic.make 0

let put t ~key payload =
  let name = entry_name key in
  let sh = shard_of t key in
  let data = encode_entry ~key payload in
  let tmp =
    Filename.concat sh.sh_dir
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  write_file tmp data;
  Mutex.protect sh.sh_mutex (fun () ->
      Unix.rename tmp (entry_path sh name);
      let bytes = String.length data in
      (match Hashtbl.find_opt sh.sh_table name with
      | Some e ->
        ignore (Atomic.fetch_and_add t.d_total (bytes - e.e_bytes));
        e.e_bytes <- bytes;
        touch t e
      | None ->
        let e = { e_bytes = bytes; e_seq = 0 } in
        touch t e;
        Hashtbl.replace sh.sh_table name e;
        ignore (Atomic.fetch_and_add t.d_total bytes));
      Metrics.set t.d_bytes (Atomic.get t.d_total);
      evict_locked t sh ~keep:name)

let quarantine t ~key =
  let name = entry_name key in
  let sh = shard_of t key in
  Mutex.protect sh.sh_mutex (fun () ->
      match Hashtbl.find_opt sh.sh_table name with
      | Some e -> quarantine_locked t sh name e
      | None ->
        let path = entry_path sh name in
        if Sys.file_exists path then begin
          (try Unix.rename path (path ^ ".quar") with Unix.Unix_error _ -> ());
          Metrics.incr t.d_quarantined
        end)

(* --- cross-process coalescing ------------------------------------------ *)

let lock_path t key =
  let sh = shard_of t key in
  Filename.concat sh.sh_dir (entry_name key ^ ".lock")

let rec try_lock ?(steal = true) t ~key =
  let path = lock_path t key in
  match Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
  with
  | fd ->
    let pid = string_of_int (Unix.getpid ()) in
    ignore (Unix.write_substring fd pid 0 (String.length pid));
    Unix.close fd;
    true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    let stale =
      match Unix.stat path with
      | exception Unix.Unix_error _ -> true (* released while we looked *)
      | st -> Unix.gettimeofday () -. st.Unix.st_mtime > t.d_stale_lock_s
    in
    if stale && steal then begin
      unlink_quiet path;
      try_lock ~steal:false t ~key
    end
    else false

let unlock t ~key = unlink_quiet (lock_path t key)

let wait t ~key ?(timeout_s = 30.) () =
  let path = lock_path t key in
  let t0 = Unix.gettimeofday () in
  let rec poll delay =
    match find t ~key with
    | Some payload ->
      Metrics.observe t.d_lock_wait (Unix.gettimeofday () -. t0);
      Some payload
    | None ->
      if (not (Sys.file_exists path))
         || Unix.gettimeofday () -. t0 > timeout_s
      then begin
        (* Lock released without a publication (owner failed) or the
           wait timed out: the caller computes. *)
        Metrics.observe t.d_lock_wait (Unix.gettimeofday () -. t0);
        None
      end
      else begin
        Unix.sleepf delay;
        poll (Float.min 0.05 (delay *. 2.))
      end
  in
  poll 0.001

(* --- stats ------------------------------------------------------------- *)

let hits t = Metrics.value t.d_hits
let misses t = Metrics.value t.d_misses
let evictions t = Metrics.value t.d_evictions
let quarantined t = Metrics.value t.d_quarantined
let bytes t = Atomic.get t.d_total

let entry_count t =
  Array.fold_left
    (fun acc sh ->
      acc + Mutex.protect sh.sh_mutex (fun () -> Hashtbl.length sh.sh_table))
    0 t.d_shards
