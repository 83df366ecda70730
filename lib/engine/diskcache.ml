(* Persistent artifact cache: one directory, one mutex.

   Layout: [dir/<md5-hex>.art], one file per entry, named by the MD5 of
   the full content key.  Publication writes a dot-tmp file in [dir] and
   [Unix.rename]s it over the entry, so readers in this process or
   another only ever see complete entries.  Concurrent publishers of one
   key write the same bytes (every producer is a pure function of its
   key), so the last rename to land wins and nothing is lost.

   Entries are framed as [cbsp-art/2]: the magic, the key length in
   decimal and a newline, the full key, the payload, then the MD5 of
   every byte before it.  A digest collision, a torn write or bit rot is
   detected on read: the file is renamed aside ([.quar]), counted in
   [store.quarantined], and reported as a miss.  Corruption costs a
   recompute, never a crash or a wrong value.

   Eviction is strict LRU over the one table under a byte budget; the
   most recently touched entry is never evicted.  The table is rebuilt
   from the directory at [create] and extended on first sight of an
   entry another instance or process published since.

   Each instance counts its own hits, evictions, quarantines and publish
   errors, and adds each to its store name's series, with that name's
   [store.misses] series and a [store.bytes] gauge (the resident bytes
   of the instance that last changed them).  The series are per name,
   not per instance: a series is never unregistered, so one per
   [create] would grow the registry with every cache opened. *)

module Metrics = Cbsp_obs.Metrics

let magic = "cbsp-art/2\n"

let art_suffix = ".art"

(* --- entry framing ----------------------------------------------------- *)

let encode_entry ~key payload =
  let body =
    String.concat ""
      [ magic; string_of_int (String.length key); "\n"; key; payload ]
  in
  body ^ Digest.string body

(* [Some (key, payload)] for an intact frame, [None] otherwise.  The
   trailing digest is checked first, so the parse below only ever sees
   bytes [encode_entry] wrote. *)
let decode_entry data =
  let n = String.length data in
  let body = n - 16 in
  let prefix = String.length magic in
  if body < prefix
     || Digest.substring data 0 body <> String.sub data body 16
     || not (String.starts_with ~prefix:magic data)
  then None
  else
    match String.index_from_opt data prefix '\n' with
    | None -> None
    | Some nl -> (
      match int_of_string_opt (String.sub data prefix (nl - prefix)) with
      | Some klen when klen >= 0 && klen <= body - nl - 1 ->
        Some
          ( String.sub data (nl + 1) klen,
            String.sub data (nl + 1 + klen) (body - nl - 1 - klen) )
      | _ -> None)

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
  mutable e_bytes : int;  (* size of the entry file *)
  mutable e_seq : int;  (* LRU stamp: larger = more recently touched *)
}

(* Every mutable field is guarded by [d_mutex]. *)
type t = {
  d_dir : string;
  d_mutex : Mutex.t;
  d_table : (string, entry) Hashtbl.t;  (* keyed by entry basename *)
  d_budget : int;  (* bytes; <= 0 means unlimited *)
  mutable d_seq : int;
  mutable d_total : int;  (* resident bytes *)
  d_hits : Metrics.tally;
  d_misses : Metrics.counter;
  d_evictions : Metrics.tally;
  d_quarantined : Metrics.tally;
  d_publish_errors : Metrics.tally;
  d_bytes : Metrics.gauge;
}

let entry_name key = Digest.to_hex (Digest.string key) ^ art_suffix

let entry_path t name = Filename.concat t.d_dir name

let touch t e =
  e.e_seq <- t.d_seq;
  t.d_seq <- t.d_seq + 1

let add_bytes t delta =
  t.d_total <- t.d_total + delta;
  Metrics.set t.d_bytes t.d_total

let drop_locked t name =
  match Hashtbl.find_opt t.d_table name with
  | Some e ->
    Hashtbl.remove t.d_table name;
    add_bytes t (-e.e_bytes)
  | None -> ()

(* Rename the file aside so it stops counting as resident but stays
   inspectable post-mortem.  Counted only when a file was moved: a
   racing instance may have moved it first. *)
let quarantine_locked t name =
  drop_locked t name;
  let path = entry_path t name in
  match Unix.rename path (path ^ ".quar") with
  | () -> Metrics.bump t.d_quarantined
  | exception Unix.Unix_error _ -> ()

(* Evict least-recently-used entries while the byte total exceeds the
   budget, sparing [keep]. *)
let evict_locked t ~keep =
  let rec loop () =
    if t.d_budget > 0 && t.d_total > t.d_budget then
      let victim =
        Hashtbl.fold
          (fun name e acc ->
            match acc with
            | _ when name = keep -> acc
            | Some (_, best) when best.e_seq <= e.e_seq -> acc
            | _ -> Some (name, e))
          t.d_table None
      in
      match victim with
      | None -> ()
      | Some (name, _) ->
        unlink_quiet (entry_path t name);
        drop_locked t name;
        Metrics.bump t.d_evictions;
        loop ()
  in
  loop ()

(* Record [name] as resident with [bytes] on disk, most recently used,
   then restore the budget. *)
let admit_locked t name bytes =
  (match Hashtbl.find_opt t.d_table name with
  | Some e ->
    add_bytes t (bytes - e.e_bytes);
    e.e_bytes <- bytes;
    touch t e
  | None ->
    let e = { e_bytes = bytes; e_seq = 0 } in
    touch t e;
    Hashtbl.replace t.d_table name e;
    add_bytes t bytes);
  evict_locked t ~keep:name

(* Rebuild the table from whatever earlier processes left on disk,
   oldest first, under the budget.  Sizes come from [stat], LRU order
   from mtimes.  Entries are not verified here: a corrupt file is
   quarantined on first read.  Runs before [t] is shared. *)
let warm_load t =
  let found =
    match Sys.readdir t.d_dir with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if not (Filename.check_suffix name art_suffix) then None
             else
               match Unix.stat (entry_path t name) with
               | exception Unix.Unix_error _ -> None
               | st -> Some (st.Unix.st_mtime, name, st.Unix.st_size))
  in
  List.iter
    (fun (_, name, bytes) -> admit_locked t name bytes)
    (List.sort compare found)

let create ~dir ?(byte_budget = 0) ?(name = "disk") () =
  mkdir_p dir;
  let labels = [ ("store", name) ] in
  let t =
    { d_dir = dir;
      d_mutex = Mutex.create ();
      d_table = Hashtbl.create 64;
      d_budget = byte_budget;
      d_seq = 0;
      d_total = 0;
      d_hits = Metrics.tally ~labels "store.disk_hits";
      d_misses = Metrics.counter ~labels "store.misses";
      d_evictions = Metrics.tally ~labels "store.evictions";
      d_quarantined = Metrics.tally ~labels "store.quarantined";
      d_publish_errors = Metrics.tally ~labels "store.publish_errors";
      d_bytes = Metrics.gauge ~labels "store.bytes" }
  in
  warm_load t;
  t

(* The file is read even when the table does not know it: another
   instance or process may have published it since. *)
let find t ~key =
  let name = entry_name key in
  Mutex.protect t.d_mutex (fun () ->
      let found =
        match read_file (entry_path t name) with
        | exception (Sys_error _ | End_of_file) ->
          (* Absent, or evicted by another process: a miss. *)
          drop_locked t name;
          None
        | data -> (
          match decode_entry data with
          | Some (stored, payload) when stored = key ->
            admit_locked t name (String.length data);
            Some payload
          | _ ->
            quarantine_locked t name;
            None)
      in
      if found = None then Metrics.incr t.d_misses else Metrics.bump t.d_hits;
      found)

let tmp_counter = Atomic.make 0

let put t ~key payload =
  let name = entry_name key in
  let data = encode_entry ~key payload in
  let tmp =
    entry_path t
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  try
    write_file tmp data;
    Mutex.protect t.d_mutex (fun () ->
        Unix.rename tmp (entry_path t name);
        admit_locked t name (String.length data))
  with Sys_error _ | Unix.Unix_error _ ->
    unlink_quiet tmp;
    Metrics.bump t.d_publish_errors

let quarantine t ~key =
  Mutex.protect t.d_mutex (fun () -> quarantine_locked t (entry_name key))

(* --- stats ------------------------------------------------------------- *)

let hits t = Metrics.own t.d_hits
let evictions t = Metrics.own t.d_evictions
let quarantined t = Metrics.own t.d_quarantined
let publish_errors t = Metrics.own t.d_publish_errors
let bytes t = Mutex.protect t.d_mutex (fun () -> t.d_total)
let entry_count t = Mutex.protect t.d_mutex (fun () -> Hashtbl.length t.d_table)
