type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
}

type replacement = Lru | Fifo | Random of int

type t = {
  replacement : replacement;
  rng : Cbsp_util.Rng.t;
  n_sets : int;
  assoc : int;
  line : int;
  set_shift : int;   (* log2 line *)
  set_mask : int;    (* n_sets - 1 *)
  tags : int array;       (* n_sets * assoc; -1 = invalid *)
  dirty : Bytes.t;        (* one byte per slot: '\001' = dirty *)
  last_use : int array;   (* LRU stamps (fill stamps under FIFO) *)
  mutable clock : int;
  mutable s_accesses : int;
  mutable s_hits : int;
  mutable s_evictions : int;
  mutable s_writebacks : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create ?(replacement = Lru) ~capacity_bytes ~associativity ~line_bytes () =
  if capacity_bytes <= 0 || associativity <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if capacity_bytes mod (associativity * line_bytes) <> 0 then
    invalid_arg "Cache.create: capacity not divisible by way size";
  let n_sets = capacity_bytes / (associativity * line_bytes) in
  if not (is_pow2 n_sets) then invalid_arg "Cache.create: set count not a power of two";
  let slots = n_sets * associativity in
  let seed = match replacement with Random seed -> seed | Lru | Fifo -> 0 in
  { replacement; rng = Cbsp_util.Rng.create ~seed;
    n_sets; assoc = associativity; line = line_bytes;
    set_shift = log2 line_bytes; set_mask = n_sets - 1;
    tags = Array.make slots (-1); dirty = Bytes.make slots '\000';
    last_use = Array.make slots 0; clock = 0; s_accesses = 0; s_hits = 0;
    s_evictions = 0; s_writebacks = 0 }

(* The hot path of every collection pass: one call per simulated data
   access, so it allocates nothing and scans the set once.  On a miss
   the same scan has found the victim.  Under LRU and FIFO that is the
   oldest stamp (first such way on ties): invalid ways carry stamp 0
   and every valid stamp is >= 1, so an invalid way is always preferred
   and the lowest-index one wins.  Random also prefers the lowest-index
   invalid way (the oldest stamp when it is 0) and otherwise draws from
   the cache's own deterministic stream. *)
let access t ~addr ~is_write =
  t.s_accesses <- t.s_accesses + 1;
  let clock = t.clock + 1 in
  t.clock <- clock;
  let tag = addr lsr t.set_shift in
  let assoc = t.assoc in
  let base = (tag land t.set_mask) * assoc in
  let tags = t.tags and last_use = t.last_use in
  let hit = ref (-1) and oldest = ref base and oldest_stamp = ref max_int in
  let slot = ref base and stop = base + assoc in
  while !slot < stop do
    let s = !slot in
    if Array.unsafe_get tags s = tag then begin
      hit := s;
      slot := stop
    end
    else begin
      let stamp = Array.unsafe_get last_use s in
      if stamp < !oldest_stamp then begin
        oldest := s;
        oldest_stamp := stamp
      end;
      slot := s + 1
    end
  done;
  let hit = !hit in
  if hit >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    (match t.replacement with
     | Lru -> Array.unsafe_set last_use hit clock
     | Fifo | Random _ -> ());
    if is_write then Bytes.unsafe_set t.dirty hit '\001';
    true
  end
  else begin
    let victim =
      match t.replacement with
      | Random _ when !oldest_stamp <> 0 ->
        base + Cbsp_util.Rng.int t.rng ~bound:assoc
      | Lru | Fifo | Random _ -> !oldest
    in
    if Array.unsafe_get tags victim <> -1 then begin
      t.s_evictions <- t.s_evictions + 1;
      if Bytes.unsafe_get t.dirty victim <> '\000' then
        t.s_writebacks <- t.s_writebacks + 1
    end;
    Array.unsafe_set tags victim tag;
    Bytes.unsafe_set t.dirty victim (if is_write then '\001' else '\000');
    Array.unsafe_set last_use victim clock;
    false
  end

let probe t ~addr =
  let tag = addr lsr t.set_shift in
  let base = (tag land t.set_mask) * t.assoc in
  let rec scan i = i < t.assoc && (t.tags.(base + i) = tag || scan (i + 1)) in
  scan 0

let stats t =
  { accesses = t.s_accesses; hits = t.s_hits; misses = t.s_accesses - t.s_hits;
    evictions = t.s_evictions; writebacks = t.s_writebacks }

let reset_stats t =
  t.s_accesses <- 0;
  t.s_hits <- 0;
  t.s_evictions <- 0;
  t.s_writebacks <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.clock <- 0;
  reset_stats t

let sets t = t.n_sets
let associativity t = t.assoc
let line_bytes t = t.line
let replacement t = t.replacement
