type level_config = {
  lv_name : string;
  lv_capacity : int;
  lv_assoc : int;
  lv_line : int;
  lv_latency : int;
  lv_replacement : Cache.replacement;
}

type config = { levels : level_config list; dram_latency : int }

let paper_table1 =
  { levels =
      [ { lv_name = "FLC(L1D)"; lv_capacity = 32 * 1024; lv_assoc = 2;
          lv_line = 64; lv_latency = 3; lv_replacement = Cache.Lru };
        { lv_name = "MLC(L2D)"; lv_capacity = 512 * 1024; lv_assoc = 8;
          lv_line = 64; lv_latency = 14; lv_replacement = Cache.Lru };
        { lv_name = "LLC(L3D)"; lv_capacity = 1024 * 1024; lv_assoc = 16;
          lv_line = 64; lv_latency = 35; lv_replacement = Cache.Lru } ];
    dram_latency = 250 }

let scaled_config ~factor =
  if factor <= 0 then invalid_arg "Hierarchy.scaled_config: bad factor";
  { paper_table1 with
    levels =
      List.map
        (fun l -> { l with lv_capacity = l.lv_capacity / factor })
        paper_table1.levels }

type t = {
  cfg : config;
  caches : Cache.t array;
  latencies : int array;   (* hit latency of [caches.(i)] *)
  names : string array;
  mutable dram : int;
}

let create cfg =
  let cache l =
    Cache.create ~replacement:l.lv_replacement ~capacity_bytes:l.lv_capacity
      ~associativity:l.lv_assoc ~line_bytes:l.lv_line ()
  in
  let levels = Array.of_list cfg.levels in
  { cfg; caches = Array.map cache levels;
    latencies = Array.map (fun l -> l.lv_latency) levels;
    names = Array.map (fun l -> l.lv_name) levels; dram = 0 }

let access t ~addr ~is_write =
  let caches = t.caches in
  let n = Array.length caches in
  let level = ref 0 in
  while
    !level < n
    && not (Cache.access (Array.unsafe_get caches !level) ~addr ~is_write)
  do
    incr level
  done;
  if !level < n then Array.unsafe_get t.latencies !level
  else begin
    t.dram <- t.dram + 1;
    t.cfg.dram_latency
  end

type level_stats = { ls_name : string; ls_stats : Cache.stats }

let stats t =
  Array.to_list
    (Array.mapi
       (fun i cache -> { ls_name = t.names.(i); ls_stats = Cache.stats cache })
       t.caches)

let dram_accesses t = t.dram

let flush t =
  Array.iter Cache.flush t.caches;
  t.dram <- 0

let config t = t.cfg
