type level_config = {
  lv_name : string;
  lv_capacity : int;
  lv_assoc : int;
  lv_line : int;
  lv_latency : int;
}

type config = { levels : level_config list; dram_latency : int }

let paper_table1 =
  { levels =
      [ { lv_name = "FLC(L1D)"; lv_capacity = 32 * 1024; lv_assoc = 2;
          lv_line = 64; lv_latency = 3 };
        { lv_name = "MLC(L2D)"; lv_capacity = 512 * 1024; lv_assoc = 8;
          lv_line = 64; lv_latency = 14 };
        { lv_name = "LLC(L3D)"; lv_capacity = 1024 * 1024; lv_assoc = 16;
          lv_line = 64; lv_latency = 35 } ];
    dram_latency = 250 }

let scaled_config ~factor =
  if factor <= 0 then invalid_arg "Hierarchy.scaled_config: bad factor";
  { paper_table1 with
    levels =
      List.map
        (fun l -> { l with lv_capacity = l.lv_capacity / factor })
        paper_table1.levels }

type t = { names : string list; path : Cache.path }

let create cfg =
  let level l =
    ( Cache.create ~capacity_bytes:l.lv_capacity ~associativity:l.lv_assoc
        ~line_bytes:l.lv_line,
      l.lv_latency )
  in
  { names = List.map (fun l -> l.lv_name) cfg.levels;
    path = Cache.path (List.map level cfg.levels) ~dram_latency:cfg.dram_latency }

let access t = Cache.walk t.path

type level_stats = { ls_name : string; ls_stats : Cache.stats }

let stats t =
  List.mapi
    (fun i name -> { ls_name = name; ls_stats = Cache.stats t.path.Cache.levels.(i) })
    t.names

let dram_accesses t = t.path.Cache.dram

let flush t = Cache.flush_path t.path

let path t = t.path
