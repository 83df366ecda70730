module Cpu = Cbsp_cache.Cpu
module Hierarchy = Cbsp_cache.Hierarchy
module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Lower = Cbsp_compiler.Lower
module Executor = Cbsp_exec.Executor
module Cache_ref = Cbsp_oracle.Cache_ref

let test_base_cpi_is_one () =
  (* a program with no memory accesses runs at exactly CPI 1.0 *)
  let program = Tutil.single_loop_program ~trips:100 ~insts:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let cpu = Cpu.create () in
  let totals = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_int "cpu saw all insts" totals.Executor.insts (Cpu.insts cpu);
  Tutil.check_close ~eps:1e-9 "cpi exactly 1" 1.0 (Cpu.cpi cpu)

(* Note: at O0 the same program has spill traffic, so CPI > 1. *)
let test_spills_raise_cpi () =
  let program = Tutil.single_loop_program ~trips:100 ~insts:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_bool "O0 cpi > 1 (spill stalls)" true (Cpu.cpi cpu > 1.0);
  Tutil.check_bool "spills are L1-friendly: cpi < 3" true (Cpu.cpi cpu < 3.0)

let test_memory_bound_cpi_higher () =
  let program = Tutil.two_phase_program () in
  let config = Config.v Isa.X86_64 Config.O2 in
  let binary = Lower.compile program config in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_bool "random traffic pushes cpi well above 1" true (Cpu.cpi cpu > 1.3)

let test_cpi_before_run () =
  (* cpi is total: nan (not an exception) before any instruction, so it
     can flow into Stats.relative_error / Stats.percentile unguarded. *)
  let cpu = Cpu.create () in
  Tutil.check_bool "nan before any instruction" true
    (Float.is_nan (Cpu.cpi cpu));
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input (Cpu.observer cpu)
  in
  Tutil.check_bool "finite after a run" true (Float.is_finite (Cpu.cpi cpu));
  Cpu.reset cpu;
  Tutil.check_bool "nan again after reset" true (Float.is_nan (Cpu.cpi cpu))

(* Totality over arbitrary observer event streams: cpi never raises, is
   nan exactly while no instruction has retired, and is >= 1 otherwise
   (base cycle per instruction plus non-negative stalls). *)
let prop_cpi_total =
  QCheck.Test.make ~name:"cpi total over arbitrary event streams" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (pair (int_range 0 50) (int_range 0 1_000_000)))
    (fun events ->
      let cpu = Cpu.create () in
      let obs = Cpu.observer cpu in
      List.iter
        (fun (insts, addr) ->
          obs.Executor.on_block 0 insts;
          obs.Executor.on_access addr (addr mod 2 = 0))
        events;
      let cpi = Cpu.cpi cpu in
      if Cpu.insts cpu = 0 then Float.is_nan cpi
      else Float.is_finite cpi && cpi >= 1.0)

let test_extra_counters_monotone () =
  (* every extra counter is a monotone snapshot during a run *)
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let last = ref (Cpu.extra_counters cpu) in
  let watcher =
    { Executor.null_observer with
      Executor.on_block =
        (fun _ _ ->
          let now = Cpu.extra_counters cpu in
          Array.iteri
            (fun i v ->
              if v < !last.(i) then
                Alcotest.failf "counter %d went backwards" i)
            now;
          last := now) }
  in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input
      (Executor.compose [ watcher; Cpu.observer cpu ])
  in
  Tutil.check_bool "saw traffic" true
    (Array.exists (fun v -> v > 0.0) (Cpu.extra_counters cpu))

let test_reset () =
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Cpu.reset cpu;
  Tutil.check_int "insts cleared" 0 (Cpu.insts cpu);
  Tutil.check_float "cycles cleared" 0.0 (Cpu.cycles cpu)

let test_custom_config () =
  (* with an absurdly small hierarchy, the same program costs more *)
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let run config =
    let cpu = Cpu.create ?config () in
    let (_ : Executor.totals) =
      Executor.run binary Tutil.test_input (Cpu.observer cpu)
    in
    Cpu.cpi cpu
  in
  let default = run None in
  let tiny = run (Some (Hierarchy.scaled_config ~factor:64)) in
  Tutil.check_bool "smaller caches, higher cpi" true (tiny > default)

let test_cycles_monotone () =
  let program = Tutil.single_loop_program ~trips:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let last = ref 0.0 in
  let watcher =
    { Executor.null_observer with
      Executor.on_block =
        (fun _ _ ->
          let now = Cpu.cycles cpu in
          if now < !last then Alcotest.fail "cycles went backwards";
          last := now) }
  in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input (Executor.compose [ watcher; Cpu.observer cpu ])
  in
  Tutil.check_bool "progressed" true (Cpu.cycles cpu > 0.0)

(* Differential oracle: integer cycle accumulation against the
   reference's running float sum.  Cycles must agree bit for bit after
   every event, and the extra counters at the end.  The stream's
   same-line runs drive the observer's inline L1 way-0 path. *)
let bits = Int64.bits_of_float

let prop_cpu_matches_reference =
  QCheck.Test.make ~name:"cpu matches the float-summing reference" ~count:100
    (Cache_ref.stream ~span:4_194_303)
    (fun events ->
      List.for_all
        (fun config ->
          let cpu = Cpu.create ~config () and r = Cache_ref.create_cpu config in
          let obs = Cpu.observer cpu and robs = Cache_ref.cpu_observer r in
          List.for_all
            (fun ev ->
              (match ev with
               | Cache_ref.Access { addr; is_write; insts } ->
                 obs.Executor.on_block 0 insts;
                 robs.Executor.on_block 0 insts;
                 obs.Executor.on_access addr is_write;
                 robs.Executor.on_access addr is_write
               | Cache_ref.Flush ->
                 Cpu.reset cpu;
                 Cache_ref.cpu_reset r);
              bits (Cpu.cycles cpu) = bits r.Cache_ref.cycles
              && Cpu.insts cpu = r.Cache_ref.insts)
            events
          && Array.map bits (Cpu.extra_counters cpu)
             = Array.map bits (Cache_ref.cpu_extra_counters r))
        [ Hierarchy.paper_table1; Hierarchy.scaled_config ~factor:4 ])

(* Run path: a random program executed once element by element and once
   as same-line runs ([Executor.run ?runs]) must leave every cache level,
   the DRAM count, the stall sum, the cycles and the extra counters
   identical.  Arrays of 1-64 B elements and 1-96 elements make the
   sequential sites wrap at their length; strides 1-8 put the step on
   both sides of the line; blocks of up to 300 source instructions at O0
   spill past the 32 slots of a frame, at call depth 0 and 1; a random
   site moves other lines through the sets.  The geometries cover L1
   lines of 32, 64 and 128 B, with small L1s that evict (and write back)
   often, so grouping is shown to follow the hierarchy's L1 line. *)
module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Cache = Cbsp_cache.Cache

let level name capacity assoc line latency =
  { Hierarchy.lv_name = name; lv_capacity = capacity; lv_assoc = assoc;
    lv_line = line; lv_latency = latency }

let run_configs =
  [ Hierarchy.paper_table1;
    Hierarchy.scaled_config ~factor:64;
    { Hierarchy.levels =
        [ level "L1-32B" 512 2 32 3; level "L2-64B" 8_192 4 64 14 ];
      dram_latency = 250 };
    { Hierarchy.levels =
        [ level "L1-128B" 2_048 2 128 3; level "L2-128B" 16_384 4 128 14 ];
      dram_latency = 250 } ]

let gen_run_program =
  let open QCheck.Gen in
  let site n_arrays =
    quad (int_range 0 (n_arrays - 1))
      (frequency [ (5, int_range 1 8); (1, return 0) ])  (* 0: random site *)
      (int_range 1 40) (int_range 0 10)
  in
  int_range 1 4 >>= fun n_arrays ->
  let arrays = list_repeat n_arrays (pair (int_range 1 64) (int_range 1 96)) in
  let work = pair (int_range 1 300) (list_size (int_range 1 3) (site n_arrays)) in
  quad arrays (list_size (int_range 1 4) work) (int_range 1 30)
    (pair bool (oneofl Cbsp_compiler.Isa.[ X86_32; X86_64 ]))

let build_run_program (arrays, works, trips, (o0, isa)) =
  let b = B.create ~name:"runs" in
  let ids =
    List.mapi
      (fun i (elem_bytes, length) ->
        B.data_array b ~name:(Printf.sprintf "a%d" i) ~elem_bytes ~length)
      arrays
    |> Array.of_list
  in
  let work (insts, sites) =
    B.work b ~insts
      ~accesses:
        (List.map
           (fun (a, stride, count, tenths) ->
             let arr = ids.(a) and write_ratio = float_of_int tenths /. 10.0 in
             if stride = 0 then B.rand ~write_ratio ~arr ~count ()
             else B.seq ~stride ~write_ratio ~arr ~count ())
           sites)
      ()
  in
  B.proc b ~name:"f" [ work (List.hd works) ];
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed trips) (B.call b "f" :: List.map work works) ];
  let program = B.finish b ~main:"main" in
  Lower.compile program (Config.v isa (if o0 then Config.O0 else Config.O2))

let prop_runs_match_elementwise =
  QCheck.Test.make ~name:"runs match the per-element stream" ~count:100
    (QCheck.make gen_run_program)
    (fun desc ->
      let binary = build_run_program desc in
      List.for_all
        (fun config ->
          (* the cache-level entry point, over a bare hierarchy *)
          let hier runs =
            let h = Hierarchy.create config in
            let p = Hierarchy.path h in
            let access = Cache.on_access p in
            let obs = { Executor.null_observer with Executor.on_access = access } in
            let runs =
              if runs then
                Some
                  { Executor.line_bytes =
                      Cache.line_bytes p.Cache.levels.(0);
                    access; on_run = Cache.on_run p }
              else None
            in
            let totals = Executor.run ?runs binary Tutil.test_input obs in
            (totals, Hierarchy.stats h, Hierarchy.dram_accesses h, p.Cache.stall)
          in
          (* the route Pipeline.run_pass takes *)
          let cpu runs =
            let cpu = Cpu.create ~config () in
            let runs = if runs then Cpu.runs cpu else None in
            let totals =
              Executor.run ?runs binary Tutil.test_input (Cpu.observer cpu)
            in
            ( totals, bits (Cpu.cycles cpu), Cpu.insts cpu,
              Array.map bits (Cpu.extra_counters cpu) )
          in
          hier false = hier true && cpu false = cpu true)
        run_configs)

(* Borrowing.  A pass borrows its domain's idle CPU, reset, instead of
   a fresh one; it must read exactly as a fresh CPU of its config.  A
   snapshot holds every level's stats, the DRAM count, the stall sum,
   the cycles' bits, the instruction count and the extra counters. *)
let snapshot cpu =
  let h = Cpu.hierarchy cpu in
  ( List.map (fun ls -> ls.Hierarchy.ls_stats) (Hierarchy.stats h),
    Hierarchy.dram_accesses h,
    (Hierarchy.path h).Cache.stall,
    bits (Cpu.cycles cpu),
    Cpu.insts cpu,
    Array.map bits (Cpu.extra_counters cpu) )

let play cpu events =
  let obs = Cpu.observer cpu in
  List.iter
    (function
      | Cache_ref.Access { addr; is_write; insts } ->
        obs.Executor.on_block 0 insts;
        obs.Executor.on_access addr is_write
      | Cache_ref.Flush -> Cpu.reset cpu)
    events

let fresh_snapshot config events =
  let cpu = Cpu.create ~config () in
  play cpu events;
  snapshot cpu

let borrow_configs =
  [ Hierarchy.paper_table1;
    Hierarchy.scaled_config ~factor:4;
    { Hierarchy.levels = [ level "L1" 4_096 4 64 3 ]; dram_latency = 250 } ]

(* Stream A leaves the hierarchy warm, with dirty lines in the sets the
   streams' pools share; stream B on the borrowed CPU must then read as
   on a fresh one. *)
let prop_borrow_matches_fresh =
  QCheck.Test.make ~name:"borrowed cpu = fresh cpu" ~count:100
    (QCheck.pair (Cache_ref.stream ~span:4_194_303)
       (Cache_ref.stream ~span:4_194_303))
    (fun (a, b) ->
      List.for_all
        (fun config ->
          Cpu.borrow ~config (fun cpu -> play cpu a);
          Cpu.borrow ~config (fun cpu ->
              play cpu b;
              snapshot cpu)
          = fresh_snapshot config b)
        borrow_configs)

let test_borrow_reuses () =
  let first = Cpu.borrow Fun.id in
  Tutil.check_bool "the next borrow reuses the idle cpu" true
    (Cpu.borrow Fun.id == first);
  let other = Cpu.borrow ~config:(Hierarchy.scaled_config ~factor:4) Fun.id in
  Tutil.check_bool "another config gets its own" true (other != first);
  Tutil.check_bool "and replaces the idle one" true (Cpu.borrow Fun.id != first)

(* The idle CPU is taken out while in use: a nested borrow on the same
   domain gets another, and using it leaves the outer one untouched. *)
let test_nested_borrow () =
  let stream =
    List.init 2_000 (fun i ->
        Cache_ref.Access
          { addr = i * 4_160; is_write = i mod 3 = 0; insts = 1 + (i mod 7) })
  in
  Cpu.borrow ignore;
  Cpu.borrow (fun outer ->
      play outer stream;
      let before = snapshot outer in
      Cpu.borrow (fun inner ->
          Tutil.check_bool "a distinct cpu" true (inner != outer);
          play inner stream;
          Tutil.check_bool "the inner one starts fresh" true
            (snapshot inner = before));
      Tutil.check_bool "the outer one is untouched" true
        (snapshot outer = before))

(* Two domains borrowing at the same time: each holds its own domain's
   CPU (both are inside [borrow] before either plays its stream) and
   each ends as a fresh CPU on its stream. *)
let test_two_domains () =
  let stream seed =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |])
      (QCheck.gen (Cache_ref.stream ~span:4_194_303))
  in
  let inside = Atomic.make 0 in
  let work seed () =
    let warm = stream seed and events = stream (seed + 1) in
    Cpu.borrow (fun cpu -> play cpu warm);
    Cpu.borrow (fun cpu ->
        Atomic.incr inside;
        while Atomic.get inside < 2 do
          Domain.cpu_relax ()
        done;
        play cpu events;
        snapshot cpu = fresh_snapshot Hierarchy.paper_table1 events)
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 3) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Tutil.check_bool "domain 1 matches a fresh cpu" true ok1;
  Tutil.check_bool "domain 2 matches a fresh cpu" true ok2

let () =
  Alcotest.run "cpu"
    [ ( "cpi model",
        [ Tutil.quick "base cpi 1.0" test_base_cpi_is_one;
          Tutil.quick "spills raise cpi" test_spills_raise_cpi;
          Tutil.quick "memory-bound cpi" test_memory_bound_cpi_higher;
          Tutil.quick "cpi before run" test_cpi_before_run;
          Tutil.quick "reset" test_reset;
          Tutil.quick "custom config" test_custom_config;
          Tutil.quick "cycles monotone" test_cycles_monotone;
          Tutil.quick "extra counters monotone" test_extra_counters_monotone;
          Tutil.qcheck_case prop_cpi_total;
          Tutil.qcheck_case prop_cpu_matches_reference;
          Tutil.qcheck_case prop_runs_match_elementwise ] );
      ( "borrow",
        [ Tutil.quick "reuses the idle cpu" test_borrow_reuses;
          Tutil.quick "nested borrow" test_nested_borrow;
          Tutil.quick "two domains" test_two_domains;
          Tutil.qcheck_case prop_borrow_matches_fresh ] ) ]
