(* Test-only reference for the cache model: the set-associative cache,
   the hierarchy walk and the float-accumulating CPU observer exactly as
   first written (a tuple per lookup, LRU by per-way timestamps with an
   invalid-first victim scan, one boxed float per cycle update).  The
   production modules keep each set in recency order instead; they must
   match this model event for event, and test_cache and test_cpu check
   that on random streams. *)

module Cache = Cbsp_cache.Cache
module Hierarchy = Cbsp_cache.Hierarchy
module Executor = Cbsp_exec.Executor

type cache = {
  assoc : int;
  set_shift : int;
  set_mask : int;
  tags : int array;       (* n_sets * assoc; -1 = invalid *)
  dirty : bool array;
  last_use : int array;   (* LRU stamps *)
  mutable clock : int;
  mutable s_accesses : int;
  mutable s_hits : int;
  mutable s_evictions : int;
  mutable s_writebacks : int;
}

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create_cache ~capacity_bytes ~associativity ~line_bytes =
  let n_sets = capacity_bytes / (associativity * line_bytes) in
  let slots = n_sets * associativity in
  { assoc = associativity; set_shift = log2 line_bytes; set_mask = n_sets - 1;
    tags = Array.make slots (-1); dirty = Array.make slots false;
    last_use = Array.make slots 0; clock = 0; s_accesses = 0; s_hits = 0;
    s_evictions = 0; s_writebacks = 0 }

let locate t ~addr =
  let block = addr lsr t.set_shift in
  let set = block land t.set_mask in
  (block, set * t.assoc)

let find_way t ~base ~tag =
  let rec scan i =
    if i >= t.assoc then -1
    else if t.tags.(base + i) = tag then i
    else scan (i + 1)
  in
  scan 0

let victim_way t ~base =
  let invalid = ref (-1) in
  for i = t.assoc - 1 downto 0 do
    if t.tags.(base + i) = -1 then invalid := i
  done;
  if !invalid >= 0 then !invalid
  else begin
    let best = ref 0 and best_stamp = ref max_int in
    for i = 0 to t.assoc - 1 do
      if t.last_use.(base + i) < !best_stamp then begin
        best := i;
        best_stamp := t.last_use.(base + i)
      end
    done;
    !best
  end

let cache_access t ~addr ~is_write =
  t.s_accesses <- t.s_accesses + 1;
  t.clock <- t.clock + 1;
  let tag, base = locate t ~addr in
  let way = find_way t ~base ~tag in
  if way >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    t.last_use.(base + way) <- t.clock;
    if is_write then t.dirty.(base + way) <- true;
    true
  end
  else begin
    let slot = base + victim_way t ~base in
    if t.tags.(slot) <> -1 then begin
      t.s_evictions <- t.s_evictions + 1;
      if t.dirty.(slot) then t.s_writebacks <- t.s_writebacks + 1
    end;
    t.tags.(slot) <- tag;
    t.dirty.(slot) <- is_write;
    t.last_use.(slot) <- t.clock;
    false
  end

let cache_stats t =
  { Cache.accesses = t.s_accesses; hits = t.s_hits;
    misses = t.s_accesses - t.s_hits; evictions = t.s_evictions;
    writebacks = t.s_writebacks }

let cache_flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.clock <- 0;
  t.s_accesses <- 0;
  t.s_hits <- 0;
  t.s_evictions <- 0;
  t.s_writebacks <- 0

type hierarchy = {
  levels : (cache * int) array;  (* cache, hit latency *)
  dram_latency : int;
  mutable dram : int;
}

let create_hierarchy (cfg : Hierarchy.config) =
  { levels =
      Array.of_list
        (List.map
           (fun (l : Hierarchy.level_config) ->
             ( create_cache ~capacity_bytes:l.lv_capacity
                 ~associativity:l.lv_assoc ~line_bytes:l.lv_line,
               l.lv_latency ))
           cfg.levels);
    dram_latency = cfg.dram_latency; dram = 0 }

let hierarchy_access t ~addr ~is_write =
  let n = Array.length t.levels in
  let rec go i =
    if i >= n then begin
      t.dram <- t.dram + 1;
      t.dram_latency
    end
    else begin
      let cache, latency = t.levels.(i) in
      if cache_access cache ~addr ~is_write then latency else go (i + 1)
    end
  in
  go 0

let hierarchy_stats t =
  Array.to_list (Array.map (fun (c, _) -> cache_stats c) t.levels)

let hierarchy_flush t =
  Array.iter (fun (c, _) -> cache_flush c) t.levels;
  t.dram <- 0

type cpu = {
  hier : hierarchy;
  mutable cycles : float;
  mutable insts : int;
}

let create_cpu config =
  { hier = create_hierarchy config; cycles = 0.0; insts = 0 }

let cpu_observer t =
  { Executor.null_observer with
    Executor.on_block =
      (fun _ insts ->
        t.insts <- t.insts + insts;
        t.cycles <- t.cycles +. float_of_int insts);
    on_access =
      (fun addr is_write ->
        let stall = hierarchy_access t.hier ~addr ~is_write in
        t.cycles <- t.cycles +. float_of_int stall) }

let cpu_extra_counters t =
  let stats = hierarchy_stats t.hier in
  let misses = List.map (fun s -> float_of_int s.Cache.misses) stats in
  let accesses =
    match stats with s :: _ -> float_of_int s.Cache.accesses | [] -> 0.0
  in
  Array.of_list (misses @ [ float_of_int t.hier.dram; accesses ])

let cpu_reset t =
  hierarchy_flush t.hier;
  t.cycles <- 0.0;
  t.insts <- 0

(* Random event streams for the differential properties: a block of
   [insts] instructions followed by one access, with an occasional
   flush.  The accesses are biased toward what a recency-ordered set
   handles on separate paths:

   - runs on the line of the previous access (hits at way 0);
   - a per-stream pool of 1-20 lines 64 KB apart, which share one set
     at every level of the paper's hierarchy and of every test geometry:
     reuse among them hits at every way position, a pool wider than the
     associativity evicts, and the writes among them make the evicted
     lines dirty (write-backs);
   - a hot 4 KB region (hits), and a wide region up to [span] (capacity
     misses).

   After a flush, and at the start, every set fills through its invalid
   ways before the first eviction. *)
type event = Access of { addr : int; is_write : bool; insts : int } | Flush

type op = Same of int | Line of int | Flush_op

let stream ~span =
  let open QCheck.Gen in
  let ops pool =
    frequency
      [ (30, map (fun off -> Same off) (int_range 0 63));
        ( 30,
          map2
            (fun k off -> Line ((k * 65_536) + off))
            (int_range 0 (pool - 1))
            (int_range 0 63) );
        (10, map (fun a -> Line a) (int_range 0 4095));
        (10, map (fun a -> Line a) (int_range 0 span));
        (1, return Flush_op) ]
  in
  let events =
    int_range 1 20 >>= fun pool ->
    list_size (int_range 1 1_500) (triple (ops pool) bool (int_range 0 50))
    >|= fun ops ->
    let prev = ref 0 in
    List.map
      (fun (op, is_write, insts) ->
        match op with
        | Flush_op -> Flush
        | Same off ->
          let addr = (!prev land lnot 63) + off in
          prev := addr;
          Access { addr; is_write; insts }
        | Line addr ->
          prev := addr;
          Access { addr; is_write; insts })
      ops
  in
  QCheck.make
    ~print:(fun evs -> Printf.sprintf "<%d events>" (List.length evs))
    events
