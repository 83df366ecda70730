type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
}

type t = {
  n_sets : int;
  assoc : int;
  line : int;
  set_shift : int;   (* log2 line *)
  set_mask : int;    (* n_sets - 1 *)
  ways : int array;
      (* n_sets * assoc in recency order per set, one word per way: the
         line's tag shifted left once, its dirty bit in bit 0; [invalid]
         for an empty way *)
  mutable s_accesses : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_writebacks : int;
}

(* No way word of a valid line is -2: that needs a tag of [max_int],
   which a non-negative address reaches only with one-byte lines at
   address [max_int].  A way matches a lookup's [key], its tag's word
   with the dirty bit set, iff [w lor 1 = key]. *)
let invalid = -2

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create ~capacity_bytes ~associativity ~line_bytes =
  if capacity_bytes <= 0 || associativity <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if capacity_bytes mod (associativity * line_bytes) <> 0 then
    invalid_arg "Cache.create: capacity not divisible by way size";
  let n_sets = capacity_bytes / (associativity * line_bytes) in
  if not (is_pow2 n_sets) then invalid_arg "Cache.create: set count not a power of two";
  { n_sets; assoc = associativity; line = line_bytes;
    set_shift = log2 line_bytes; set_mask = n_sets - 1;
    ways = Array.make (n_sets * associativity) invalid;
    s_accesses = 0; s_misses = 0; s_evictions = 0; s_writebacks = 0 }

(* Everything but a hit at way 0 (the set's first slot, [mru]), in one
   move-to-front pass: each way takes the word above it until the word
   lifted out is the line sought (a hit at way k rotates ways 0..k) or
   the last way's (a miss: it falls out, an eviction if valid).  A hit
   keeps its dirty bit unless it writes; a miss enters clean unless it
   writes. *)
let promote t ~mru ~key ~is_write =
  let ways = t.ways in
  let last = mru + t.assoc - 1 in
  let way = ref mru in
  let out = ref (Array.unsafe_get ways mru) in
  while !out lor 1 <> key && !way < last do
    let s = !way + 1 in
    let next = Array.unsafe_get ways s in
    Array.unsafe_set ways s !out;
    out := next;
    way := s
  done;
  let hit = !out lor 1 = key in
  if not hit then begin
    t.s_misses <- t.s_misses + 1;
    if !out <> invalid then begin
      t.s_evictions <- t.s_evictions + 1;
      t.s_writebacks <- t.s_writebacks + (!out land 1)
    end
  end;
  Array.unsafe_set ways mru
    (if is_write then key else if hit then !out else key - 1);
  hit

(* Inlined into every caller in this module, so a hit at way 0 (most
   accesses) costs no call at all. *)
let[@inline] access t ~addr ~is_write =
  t.s_accesses <- t.s_accesses + 1;
  let tag = addr lsr t.set_shift in
  let key = (tag lsl 1) lor 1 in
  let mru = (tag land t.set_mask) * t.assoc in
  let w = Array.unsafe_get t.ways mru in
  if w lor 1 = key then begin
    if is_write then Array.unsafe_set t.ways mru key;
    true
  end
  else promote t ~mru ~key ~is_write

let probe t ~addr =
  let tag = addr lsr t.set_shift in
  let key = (tag lsl 1) lor 1 in
  let base = (tag land t.set_mask) * t.assoc in
  let rec scan i = i < t.assoc && (t.ways.(base + i) lor 1 = key || scan (i + 1)) in
  scan 0

let stats t =
  { accesses = t.s_accesses; hits = t.s_accesses - t.s_misses;
    misses = t.s_misses; evictions = t.s_evictions; writebacks = t.s_writebacks }

let accesses t = t.s_accesses
let misses t = t.s_misses

let reset_stats t =
  t.s_accesses <- 0;
  t.s_misses <- 0;
  t.s_evictions <- 0;
  t.s_writebacks <- 0

let flush t =
  Array.fill t.ways 0 (Array.length t.ways) invalid;
  reset_stats t

let sets t = t.n_sets
let associativity t = t.assoc
let line_bytes t = t.line

type path = {
  levels : t array;
  latencies : int array;
  dram_latency : int;
  mutable dram : int;
  mutable stall : int;
}

let path levels ~dram_latency =
  { levels = Array.of_list (List.map fst levels);
    latencies = Array.of_list (List.map snd levels);
    dram_latency; dram = 0; stall = 0 }

(* The latency of the first level from [i] on that hits, DRAM's if none
   does; each level passed on the way has allocated the line. *)
let rec from_level p i ~addr ~is_write =
  if i = Array.length p.levels then begin
    p.dram <- p.dram + 1;
    p.dram_latency
  end
  else if access (Array.unsafe_get p.levels i) ~addr ~is_write then
    Array.unsafe_get p.latencies i
  else from_level p (i + 1) ~addr ~is_write

let walk p ~addr ~is_write =
  let latency = from_level p 0 ~addr ~is_write in
  p.stall <- p.stall + latency;
  latency

let on_access p =
  match p.levels with
  | [||] -> fun addr is_write -> ignore (walk p ~addr ~is_write : int)
  | levels ->
    let l1 = levels.(0) and l1_latency = p.latencies.(0) in
    fun addr is_write ->
      p.stall <- p.stall
                 + (if access l1 ~addr ~is_write then l1_latency
                    else from_level p 1 ~addr ~is_write)

(* A repeat on the line the previous access left at L1's way 0 is a
   way-0 hit: it counts, dirties the line if it writes and costs the L1
   latency, so n of them are three updates. *)
let on_run p =
  if Array.length p.levels = 0 then invalid_arg "Cache.on_run: no levels";
  let l1 = p.levels.(0) and l1_latency = p.latencies.(0) in
  fun addr n any_write ->
    l1.s_accesses <- l1.s_accesses + n;
    if any_write then begin
      let tag = addr lsr l1.set_shift in
      let mru = (tag land l1.set_mask) * l1.assoc in
      Array.unsafe_set l1.ways mru (Array.unsafe_get l1.ways mru lor 1)
    end;
    p.stall <- p.stall + (n * l1_latency)

let flush_path p =
  Array.iter flush p.levels;
  p.dram <- 0;
  p.stall <- 0
