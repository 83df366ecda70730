module Cache = Cbsp_cache.Cache
module Hierarchy = Cbsp_cache.Hierarchy
module Cache_ref = Cbsp_oracle.Cache_ref

let small () = Cache.create ~capacity_bytes:1024 ~associativity:2 ~line_bytes:64
(* 1024 / (2*64) = 8 sets *)

let test_geometry () =
  let c = small () in
  Tutil.check_int "sets" 8 (Cache.sets c);
  Tutil.check_int "assoc" 2 (Cache.associativity c);
  Tutil.check_int "line" 64 (Cache.line_bytes c)

let test_create_validation () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Cache.create: line size not a power of two") (fun () ->
      ignore (Cache.create ~capacity_bytes:1024 ~associativity:2 ~line_bytes:48));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cache.create: non-positive parameter") (fun () ->
      ignore (Cache.create ~capacity_bytes:0 ~associativity:2 ~line_bytes:64))

let test_miss_then_hit () =
  let c = small () in
  Tutil.check_bool "cold miss" false (Cache.access c ~addr:0 ~is_write:false);
  Tutil.check_bool "warm hit" true (Cache.access c ~addr:0 ~is_write:false);
  Tutil.check_bool "same line hit" true (Cache.access c ~addr:63 ~is_write:false);
  Tutil.check_bool "next line misses" false (Cache.access c ~addr:64 ~is_write:false)

let test_lru_eviction () =
  let c = small () in
  (* three lines mapping to set 0: addresses 0, 8*64, 16*64 *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access c ~addr:a ~is_write:false);
  ignore (Cache.access c ~addr:b ~is_write:false);
  (* touch a so b is LRU *)
  ignore (Cache.access c ~addr:a ~is_write:false);
  ignore (Cache.access c ~addr:d ~is_write:false);
  (* d evicted b *)
  Tutil.check_bool "a survives" true (Cache.probe c ~addr:a);
  Tutil.check_bool "b evicted" false (Cache.probe c ~addr:b);
  Tutil.check_bool "d resident" true (Cache.probe c ~addr:d)

let test_writeback_counting () =
  let c = small () in
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access c ~addr:a ~is_write:true);
  ignore (Cache.access c ~addr:b ~is_write:false);
  ignore (Cache.access c ~addr:d ~is_write:false);
  (* a (dirty, LRU) was evicted by d *)
  let s = Cache.stats c in
  Tutil.check_int "one eviction" 1 s.Cache.evictions;
  Tutil.check_int "one writeback" 1 s.Cache.writebacks;
  (* clean eviction does not write back *)
  ignore (Cache.access c ~addr:(24 * 64) ~is_write:false);
  let s = Cache.stats c in
  Tutil.check_int "two evictions" 2 s.Cache.evictions;
  Tutil.check_int "still one writeback" 1 s.Cache.writebacks

let test_write_hit_dirties () =
  let c = small () in
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access c ~addr:a ~is_write:false);
  ignore (Cache.access c ~addr:a ~is_write:true);
  (* dirty via write hit *)
  ignore (Cache.access c ~addr:b ~is_write:false);
  ignore (Cache.access c ~addr:d ~is_write:false);
  Tutil.check_int "write-hit line written back" 1 (Cache.stats c).Cache.writebacks

let test_stats_consistency () =
  let c = small () in
  for i = 0 to 999 do
    ignore (Cache.access c ~addr:(i * 13 * 8) ~is_write:(i mod 3 = 0))
  done;
  let s = Cache.stats c in
  Tutil.check_int "hits + misses = accesses" s.Cache.accesses
    (s.Cache.hits + s.Cache.misses);
  Tutil.check_bool "evictions <= misses" true (s.Cache.evictions <= s.Cache.misses);
  Tutil.check_bool "writebacks <= evictions" true
    (s.Cache.writebacks <= s.Cache.evictions)

let test_probe_no_side_effect () =
  let c = small () in
  ignore (Cache.probe c ~addr:0);
  Tutil.check_int "probe not counted" 0 (Cache.stats c).Cache.accesses;
  Tutil.check_bool "probe does not allocate" false (Cache.probe c ~addr:0)

let test_flush_and_reset () =
  let c = small () in
  ignore (Cache.access c ~addr:0 ~is_write:true);
  Cache.reset_stats c;
  Tutil.check_int "stats cleared" 0 (Cache.stats c).Cache.accesses;
  Tutil.check_bool "contents kept" true (Cache.probe c ~addr:0);
  Cache.flush c;
  Tutil.check_bool "flush invalidates" false (Cache.probe c ~addr:0)

let test_full_capacity_resident () =
  (* touching exactly capacity worth of lines leaves them all resident *)
  let c = small () in
  for line = 0 to 15 do
    ignore (Cache.access c ~addr:(line * 64) ~is_write:false)
  done;
  for line = 0 to 15 do
    Tutil.check_bool "line resident" true (Cache.probe c ~addr:(line * 64))
  done;
  Tutil.check_int "no evictions at capacity" 0 (Cache.stats c).Cache.evictions

(* --- hierarchy ------------------------------------------------------- *)

let test_paper_table1 () =
  let cfg = Hierarchy.paper_table1 in
  Alcotest.(check (list string)) "level names"
    [ "FLC(L1D)"; "MLC(L2D)"; "LLC(L3D)" ]
    (List.map (fun l -> l.Hierarchy.lv_name) cfg.Hierarchy.levels);
  Alcotest.(check (list int)) "latencies" [ 3; 14; 35 ]
    (List.map (fun l -> l.Hierarchy.lv_latency) cfg.Hierarchy.levels);
  Alcotest.(check (list int)) "capacities"
    [ 32 * 1024; 512 * 1024; 1024 * 1024 ]
    (List.map (fun l -> l.Hierarchy.lv_capacity) cfg.Hierarchy.levels);
  Tutil.check_int "dram" 250 cfg.Hierarchy.dram_latency

let test_hierarchy_latencies () =
  let h = Hierarchy.create (Hierarchy.scaled_config ~factor:16) in
  (* first touch goes to DRAM, second hits L1 *)
  Tutil.check_int "cold access costs DRAM" 250 (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "then L1 hit" 3 (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "one dram access" 1 (Hierarchy.dram_accesses h)

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create (Hierarchy.scaled_config ~factor:16) in
  (* L1 is 2KB = 32 lines at factor 16; stream 64 lines to push the first
     out of L1 but keep them in L2 (32KB) *)
  for line = 0 to 63 do
    ignore (Hierarchy.access h ~addr:(line * 64) ~is_write:false)
  done;
  Tutil.check_int "evicted from L1, hits L2" 14
    (Hierarchy.access h ~addr:0 ~is_write:false)

let test_hierarchy_flush () =
  let h = Hierarchy.create (Hierarchy.scaled_config ~factor:16) in
  ignore (Hierarchy.access h ~addr:0 ~is_write:false);
  Hierarchy.flush h;
  Tutil.check_int "dram counter reset" 0 (Hierarchy.dram_accesses h);
  Tutil.check_int "cold again" 250 (Hierarchy.access h ~addr:0 ~is_write:false)

let one_level ~capacity ~assoc ~line =
  { Hierarchy.levels =
      [ { Hierarchy.lv_name = "L1"; lv_capacity = capacity; lv_assoc = assoc;
          lv_line = line; lv_latency = 2 } ];
    dram_latency = 100 }

let test_hierarchy_direct_mapped () =
  (* 512B 1-way with 64B lines = 8 sets: addresses one capacity apart
     conflict in the same set, and with a single way the second fill
     must evict the first even though 7 other sets sit empty. *)
  let h = Hierarchy.create (one_level ~capacity:512 ~assoc:1 ~line:64) in
  Tutil.check_int "cold" 100 (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "hit" 2 (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "conflicting line misses" 100
    (Hierarchy.access h ~addr:512 ~is_write:false);
  Tutil.check_int "original evicted" 100
    (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "distinct set unaffected" 100
    (Hierarchy.access h ~addr:64 ~is_write:false);
  Tutil.check_int "distinct set then hits" 2
    (Hierarchy.access h ~addr:64 ~is_write:false)

let test_hierarchy_one_line_cache () =
  (* capacity = one line: a single set with a single way.  Same-line
     accesses hit; ANY other line evicts the sole resident line. *)
  let h = Hierarchy.create (one_level ~capacity:64 ~assoc:1 ~line:64) in
  Tutil.check_int "cold" 100 (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "same line hits" 2
    (Hierarchy.access h ~addr:63 ~is_write:false);
  Tutil.check_int "next line misses" 100
    (Hierarchy.access h ~addr:64 ~is_write:false);
  Tutil.check_int "and evicted the only line" 100
    (Hierarchy.access h ~addr:0 ~is_write:false);
  Tutil.check_int "one line's worth of state survives" 2
    (Hierarchy.access h ~addr:32 ~is_write:false)

let prop_stats_invariant =
  QCheck.Test.make ~name:"hits+misses=accesses under random traffic" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 500) (int_range 0 100_000))
    (fun addrs ->
      let c = small () in
      List.iter (fun a -> ignore (Cache.access c ~addr:a ~is_write:(a mod 2 = 0))) addrs;
      let s = Cache.stats c in
      s.Cache.accesses = List.length addrs
      && s.Cache.hits + s.Cache.misses = s.Cache.accesses)

let prop_second_access_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun addr ->
      let c = small () in
      ignore (Cache.access c ~addr ~is_write:false);
      Cache.access c ~addr ~is_write:false)

(* Differential oracle: the production cache model against the
   reference in [Cache_ref], on the same random stream.  Every hit/miss
   (every latency, for a hierarchy) and the final counters must agree. *)
let single_configs =
  (* (capacity, associativity) at 64 B lines: 16, 16, 4, 1 and 4 sets *)
  [ (1024, 1); (2048, 2); (2048, 8); (1024, 16); (4096, 16) ]

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache matches the reference model" ~count:100
    (Cache_ref.stream ~span:65_535)
    (fun events ->
      List.for_all
        (fun (capacity_bytes, associativity) ->
          let c = Cache.create ~capacity_bytes ~associativity ~line_bytes:64
          and r =
            Cache_ref.create_cache ~capacity_bytes ~associativity ~line_bytes:64
          in
          List.for_all
            (function
              | Cache_ref.Access { addr; is_write; _ } ->
                Cache.access c ~addr ~is_write
                = Cache_ref.cache_access r ~addr ~is_write
              | Cache_ref.Flush ->
                Cache.flush c;
                Cache_ref.cache_flush r;
                true)
            events
          && Cache.stats c = Cache_ref.cache_stats r)
        single_configs)

let hierarchy_configs =
  Hierarchy.paper_table1
  :: List.map (fun factor -> Hierarchy.scaled_config ~factor) [ 4; 16; 64 ]

let prop_hierarchy_matches_reference =
  QCheck.Test.make ~name:"hierarchy matches the reference model" ~count:100
    (Cache_ref.stream ~span:4_194_303)
    (fun events ->
      List.for_all
        (fun config ->
          let h = Hierarchy.create config
          and r = Cache_ref.create_hierarchy config in
          List.for_all
            (function
              | Cache_ref.Access { addr; is_write; _ } ->
                Hierarchy.access h ~addr ~is_write
                = Cache_ref.hierarchy_access r ~addr ~is_write
              | Cache_ref.Flush ->
                Hierarchy.flush h;
                Cache_ref.hierarchy_flush r;
                true)
            events
          && Hierarchy.dram_accesses h = r.Cache_ref.dram
          && List.map (fun ls -> ls.Hierarchy.ls_stats) (Hierarchy.stats h)
             = Cache_ref.hierarchy_stats r)
        hierarchy_configs)

let () =
  Alcotest.run "cache"
    [ ( "single level",
        [ Tutil.quick "geometry" test_geometry;
          Tutil.quick "create validation" test_create_validation;
          Tutil.quick "miss then hit" test_miss_then_hit;
          Tutil.quick "LRU eviction" test_lru_eviction;
          Tutil.quick "writeback counting" test_writeback_counting;
          Tutil.quick "write hit dirties" test_write_hit_dirties;
          Tutil.quick "stats consistency" test_stats_consistency;
          Tutil.quick "probe side-effect free" test_probe_no_side_effect;
          Tutil.quick "flush and reset" test_flush_and_reset;
          Tutil.quick "full capacity" test_full_capacity_resident ] );
      ( "hierarchy",
        [ Tutil.quick "paper table 1" test_paper_table1;
          Tutil.quick "latencies" test_hierarchy_latencies;
          Tutil.quick "L2 hit" test_hierarchy_l2_hit;
          Tutil.quick "flush" test_hierarchy_flush;
          Tutil.quick "direct-mapped" test_hierarchy_direct_mapped;
          Tutil.quick "one-line cache" test_hierarchy_one_line_cache ] );
      ( "properties",
        [ Tutil.qcheck_case prop_stats_invariant;
          Tutil.qcheck_case prop_second_access_hits;
          Tutil.qcheck_case prop_cache_matches_reference;
          Tutil.qcheck_case prop_hierarchy_matches_reference ] ) ]
