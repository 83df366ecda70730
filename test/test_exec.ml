module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Costmodel = Cbsp_compiler.Costmodel
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor
module Executor_ref = Cbsp_oracle.Executor_ref

let input = Tutil.test_input

let run binary obs = Executor.run binary input obs

(* Analytic instruction count for a single fixed loop at O0/32:
   header + trips * (work + backedge). *)
let test_analytic_insts () =
  let trips = 10 and insts = 50 in
  let program = Tutil.single_loop_program ~trips ~insts () in
  let config = Config.v Isa.X86_32 Config.O0 in
  let binary = Lower.compile program config in
  let totals = run binary Executor.null_observer in
  let expected =
    Costmodel.loop_header_insts config
    + (trips * (Costmodel.work_insts config insts + Costmodel.backedge_insts config))
  in
  Tutil.check_int "analytic instruction count" expected totals.Executor.insts

let test_determinism () =
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let t1 = run binary Executor.null_observer in
  let t2 = run binary Executor.null_observer in
  Tutil.check_bool "totals identical across runs" true (t1 = t2)

let test_zero_trip_loop () =
  let b = B.create ~name:"z" in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 0) [ B.work b ~insts:10 () ];
      B.work b ~insts:5 () ]
  |> ignore;
  let program = B.finish b ~main:"main" in
  let config = Config.v Isa.X86_32 Config.O2 in
  let binary = Lower.compile program config in
  let entries = ref 0 and backs = ref 0 in
  let obs =
    { Executor.null_observer with
      Executor.on_marker =
        (fun key ->
          match key with
          | Marker.Loop_entry _ -> incr entries
          | Marker.Loop_back _ -> incr backs
          | Marker.Proc_entry _ -> ()) }
  in
  let totals = run binary obs in
  Tutil.check_int "loop entered" 1 !entries;
  Tutil.check_int "no back edges" 0 !backs;
  let expected =
    Costmodel.loop_header_insts config + Costmodel.work_insts config 5
  in
  Tutil.check_int "header + tail only" expected totals.Executor.insts

let marker_counts binary =
  let obs, read = Cbsp_profile.Structprof.observer () in
  let (_ : Executor.totals) = run binary obs in
  read ()

let test_loop_marker_counts () =
  let trips = 10 in
  let program = Tutil.single_loop_program ~trips () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let profile = marker_counts binary in
  let line = List.hd (Ast.loop_lines program) in
  Tutil.check_int "one entry" 1
    (Cbsp_profile.Structprof.count profile (Marker.Loop_entry line));
  Tutil.check_int "one back per iteration" trips
    (Cbsp_profile.Structprof.count profile (Marker.Loop_back line));
  Tutil.check_int "main entered once" 1
    (Cbsp_profile.Structprof.count profile (Marker.Proc_entry "main"))

(* Unrolling: back-edge marker fires ceil(trips/U) times per entry. *)
let test_unrolled_backedge_count () =
  let b = B.create ~name:"u" in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 10) ~unrollable:true [ B.work b ~insts:20 () ] ];
  let program = B.finish b ~main:"main" in
  let config = Config.v Isa.X86_32 Config.O2 in
  let u = Costmodel.unroll_factor config in
  let binary = Lower.compile program config in
  let profile = marker_counts binary in
  let line = List.hd (Ast.loop_lines program) in
  Tutil.check_int "machine back edges = ceil(trips/U)"
    ((10 + u - 1) / u)
    (Cbsp_profile.Structprof.count profile (Marker.Loop_back line))

(* The semantic-equivalence invariant: the sequence of data-memory
   addresses is identical across optimization levels of the same ISA, and
   differs across ISAs only through the layout of pointer arrays. *)
let collect_data_addrs binary =
  let layout = binary.Binary.layout in
  let stack_floor = Cbsp_compiler.Layout.stack_addr layout ~depth:0 ~slot:0 in
  let addrs = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_access =
        (fun addr _ -> if addr < stack_floor then addrs := addr :: !addrs) }
  in
  let (_ : Executor.totals) = run binary obs in
  List.rev !addrs

let test_data_stream_invariant_across_opt () =
  let program = Tutil.two_phase_program () in
  let o0 = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let o2 = Lower.compile program (Config.v Isa.X86_32 Config.O2) in
  Tutil.check_bool "same data addresses O0 vs O2" true
    (collect_data_addrs o0 = collect_data_addrs o2)

let test_data_stream_invariant_across_isa () =
  (* with only 8-byte data arrays, even the ISA change is invisible *)
  let program = Tutil.two_phase_program () in
  let b32 = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let b64 = Lower.compile program (Config.v Isa.X86_64 Config.O0) in
  Tutil.check_bool "same data addresses 32 vs 64 (data arrays only)" true
    (collect_data_addrs b32 = collect_data_addrs b64)

(* Marker-stream equivalence: the subsequence of mappable marker events is
   identical across all four binaries, split or not. *)
let marker_stream binary ~mappable =
  let events = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_marker =
        (fun key -> if mappable key then events := key :: !events) }
  in
  let (_ : Executor.totals) = run binary obs in
  List.rev !events

let check_marker_streams program ~loop_splitting =
  let binaries = Tutil.compile_all ~loop_splitting program in
  let profiles =
    List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
  in
  let mappable = Cbsp.Matching.find ~binaries ~profiles () in
  let streams =
    List.map (fun b -> marker_stream b ~mappable:(Cbsp.Matching.is_mappable mappable))
      binaries
  in
  match streams with
  | first :: rest ->
    Tutil.check_bool "nonempty stream" true (first <> []);
    List.iteri
      (fun i s ->
        Tutil.check_bool
          (Printf.sprintf "binary %d matches primary stream" (i + 1))
          true (s = first))
      rest
  | [] -> Alcotest.fail "no binaries"

let test_marker_stream_equivalence () =
  check_marker_streams (Tutil.two_phase_program ()) ~loop_splitting:false;
  check_marker_streams (Tutil.splittable_program ()) ~loop_splitting:true

(* Split loops must preserve source-level totals: same data accesses (as a
   multiset — order is permuted by distribution) and same trip sums. *)
let test_split_preserves_access_multiset () =
  let program = Tutil.splittable_program () in
  let plain = Lower.compile program (Config.v Isa.X86_32 Config.O2) in
  let split =
    Lower.compile program (Config.v ~loop_splitting:true Isa.X86_32 Config.O2)
  in
  let sorted b = List.sort compare (collect_data_addrs b) in
  Tutil.check_bool "same address multiset" true (sorted plain = sorted split)

let test_select_counts () =
  let b = B.create ~name:"s" in
  let arms = 3 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 100)
        [ B.select b
            (Array.init arms (fun i -> [ B.work b ~insts:(10 + i) () ])) ] ];
  let program = B.finish b ~main:"main" in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let blocks = ref 0 in
  let obs =
    { Executor.null_observer with
      Executor.on_block = (fun _ _ -> incr blocks) }
  in
  let totals = run binary obs in
  Tutil.check_int "observer saw all blocks" totals.Executor.blocks !blocks;
  (* 100 dispatches + 100 arm bodies + 100 backedges + 1 header *)
  Tutil.check_int "block events" (100 + 100 + 100 + 1) totals.Executor.blocks

type event =
  | EBlock of int * int
  | EAccess of int * bool
  | EMarker of Marker.key

(* An observer that logs every event it receives, tagged, into [log]. *)
let logger log tag =
  let note e = log := (tag, e) :: !log in
  { Executor.on_block = (fun id insts -> note (EBlock (id, insts)));
    on_access = (fun addr w -> note (EAccess (addr, w)));
    on_marker = (fun k -> note (EMarker k)) }

let event_stream run_fn binary =
  let log = ref [] in
  let totals = run_fn binary input (logger log 0) in
  (totals, List.rev_map snd !log)

(* [compose] fans each event out in list order; a callback that is
   physically null_observer's is skipped, and the other observers still
   see that event.  [route e] lists the tags that
   must receive event [e], in order. *)
let test_compose_order () =
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let totals, events = event_stream Executor.run binary in
  Tutil.check_bool "the run has accesses" true (totals.Executor.accesses > 0);
  let check name observers route =
    let log = ref [] in
    let composed = Executor.compose (List.map (fun mk -> mk log) observers) in
    let t = run binary composed in
    Tutil.check_bool (name ^ ": same totals") true (t = totals);
    let got = List.rev !log in
    let expected =
      List.concat_map (fun e -> List.map (fun tag -> (tag, e)) (route e)) events
    in
    Tutil.check_bool (name ^ ": every event, in order") true (got = expected);
    got
  in
  let null = Executor.null_observer in
  let full tag log = logger log tag in
  let no_access tag log =
    { (logger log tag) with Executor.on_access = null.on_access }
  in
  let no_marker tag log =
    { (logger log tag) with Executor.on_marker = null.on_marker }
  in
  (* The collection-pass shape: a builder that ignores accesses, then a
     CPU that ignores markers. *)
  let got =
    check "builder + cpu" [ no_access 1; no_marker 2 ] (function
      | EBlock _ -> [ 1; 2 ]
      | EAccess _ -> [ 2 ]
      | EMarker _ -> [ 1 ])
  in
  let is_access = function _, EAccess _ -> true | _ -> false in
  Tutil.check_int "cpu half saw every access" totals.Executor.accesses
    (List.length (List.filter is_access got));
  List.iter
    (fun (name, observers, route) ->
      ignore (check name observers route : (int * event) list))
    [ ("two observers", [ full 1; full 2 ], fun _ -> [ 1; 2 ]);
      ("three observers", [ full 1; full 2; full 3 ], fun _ -> [ 1; 2; 3 ]);
      ( "three with null halves",
        [ no_access 1; full 2; no_marker 3 ],
        function
        | EBlock _ -> [ 1; 2; 3 ]
        | EAccess _ -> [ 2; 3 ]
        | EMarker _ -> [ 1; 2 ] );
      ( "cpu + builder",
        [ no_marker 1; no_access 2 ],
        function
        | EBlock _ -> [ 1; 2 ]
        | EAccess _ -> [ 1 ]
        | EMarker _ -> [ 2 ] ) ]

(* ------------------------------------------------------------------ *)
(* Flat interpreter vs tree-walking reference.                         *)

let check_flat_matches_tree program ~loop_splitting =
  List.iteri
    (fun i binary ->
      let t_flat, e_flat = event_stream Executor.run binary in
      let t_tree, e_tree = event_stream Executor_ref.run_tree binary in
      let tag msg = Printf.sprintf "binary %d: %s" i msg in
      Tutil.check_bool (tag "stream nonempty") true (e_flat <> []);
      Tutil.check_bool (tag "event streams identical") true (e_flat = e_tree);
      Tutil.check_bool (tag "totals identical") true (t_flat = t_tree))
    (Tutil.compile_all ~loop_splitting program)

let test_flat_matches_tree () =
  check_flat_matches_tree (Tutil.two_phase_program ()) ~loop_splitting:false;
  check_flat_matches_tree (Tutil.splittable_program ()) ~loop_splitting:true

(* An observer without [on_access] (null_observer included) skips all
   address computation; its totals, and the blocks and markers it
   receives, must agree with a fully observed run. *)
let test_fast_path_totals () =
  List.iter
    (fun binary ->
      let observed, events = event_stream Executor.run binary in
      let fast = Executor.run binary input Executor.null_observer in
      Tutil.check_bool "fast-path totals equal observed-run totals" true
        (fast = observed);
      let log = ref [] in
      let no_access =
        { (logger log 0) with
          Executor.on_access = Executor.null_observer.on_access }
      in
      let t = Executor.run binary input no_access in
      Tutil.check_bool "no-access totals equal observed-run totals" true
        (t = observed);
      Tutil.check_bool "no-access run sees every block and marker" true
        (List.rev_map snd !log
        = List.filter (function EAccess _ -> false | _ -> true) events))
    (Tutil.compile_all (Tutil.two_phase_program ()))

(* Regression: a Hot window wider than its array must still yield
   addresses inside the array's span (the index wraps mod length in both
   interpreters), even when interleaved Seq accesses on the same array
   push the shared cursor toward the end. *)
let test_hot_window_exceeds_length () =
  let len = 32 in
  let b = B.create ~name:"hotwrap" in
  let arr = B.data_array b ~name:"buf" ~elem_bytes:8 ~length:len in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 200)
        [ B.work b ~insts:10
            ~accesses:
              [ B.seq ~arr ~stride:7 ~count:3 ();
                B.hot ~arr ~window:(4 * len) ~count:3 () ]
            () ] ];
  let program = B.finish b ~main:"main" in
  List.iter
    (fun binary ->
      let layout = binary.Binary.layout in
      let base = Cbsp_compiler.Layout.array_base layout ~array_id:0 in
      let span = len * Cbsp_compiler.Layout.array_elem_bytes layout ~array_id:0 in
      let stack_floor = Cbsp_compiler.Layout.stack_addr layout ~depth:0 ~slot:0 in
      let seen = ref 0 in
      let obs =
        { Executor.null_observer with
          Executor.on_access =
            (fun addr _ ->
              if addr < stack_floor then begin
                incr seen;
                if addr < base || addr >= base + span then
                  Alcotest.failf "address %#x outside array span" addr
              end) }
      in
      List.iter
        (fun run_fn -> ignore (run_fn binary input obs))
        [ Executor.run; Executor_ref.run_tree ];
      Tutil.check_bool "hot/seq accesses observed" true (!seen > 0))
    (Tutil.compile_all program)

let test_counting_observer () =
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let obs, read = Executor_ref.counting_observer () in
  let totals = run binary obs in
  Tutil.check_int "counting observer matches totals" totals.Executor.insts (read ())

(* ------------------------------------------------------------------ *)
(* Run path: [Executor.run ?runs] hands the CPU same-line repeats as one
   call each, and nothing else may notice. *)

module Cpu = Cbsp_cache.Cpu
module Registry = Cbsp_workloads.Registry

let bits = Int64.bits_of_float

let cpu_counters ~runs binary observers =
  let cpu = Cpu.create () in
  let runs = if runs then Cpu.runs cpu else None in
  let totals =
    Executor.run ?runs binary input (Executor.compose (observers @ [ Cpu.observer cpu ]))
  in
  (totals, bits (Cpu.cycles cpu), Cpu.insts cpu, Array.map bits (Cpu.extra_counters cpu))

(* Every registry workload's four binaries end with the same totals,
   cycles (bit for bit), instructions and extra counters either way. *)
let test_runs_registry () =
  List.iter
    (fun (e : Registry.entry) ->
      let program = e.build () in
      List.iter
        (fun config ->
          let binary = Lower.compile program config in
          if cpu_counters ~runs:false binary [] <> cpu_counters ~runs:true binary []
          then Alcotest.failf "%s/%s: the run path changed a counter" e.name
              (Config.label config))
        (Config.paper_four ~loop_splitting:e.loop_splitting ()))
    Registry.all

let seq_program () =
  let b = B.create ~name:"seqs" in
  let a = B.data_array b ~name:"a" ~elem_bytes:8 ~length:1_000 in
  let c = B.data_array b ~name:"c" ~elem_bytes:12 ~length:37 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 50)
        [ B.work b ~insts:120
            ~accesses:
              [ B.seq ~arr:a ~count:20 (); B.seq ~stride:3 ~arr:c ~count:9 ();
                B.rand ~arr:a ~count:2 () ]
            () ] ];
  B.finish b ~main:"main"

(* A recording observer composed beside the CPU still receives the
   reference interpreter's per-element stream, and the CPU's counters
   are those of a run without runs. *)
let test_runs_guard () =
  let binary = Lower.compile (seq_program ()) (Config.v Isa.X86_32 Config.O0) in
  let _, expected = event_stream Executor_ref.run_tree binary in
  let log = ref [] in
  let with_logger = cpu_counters ~runs:true binary [ logger log 0 ] in
  Tutil.check_bool "per-element stream" true (List.rev_map snd !log = expected);
  Tutil.check_bool "cpu counters" true
    (with_logger = cpu_counters ~runs:false binary [])

(* Where runs apply, same-line repeats fold: every access is either a
   looked-up first access or counted in exactly one run, and the calls
   are fewer than the accesses. *)
let test_runs_fold () =
  let binary = Lower.compile (seq_program ()) (Config.v Isa.X86_32 Config.O0) in
  let firsts = ref 0 and repeats = ref 0 and runs_n = ref 0 in
  let access _ _ = incr firsts in
  let runs =
    { Executor.line_bytes = 64; access;
      on_run = (fun _ n _ -> incr runs_n; repeats := !repeats + n) }
  in
  let totals =
    Executor.run ~runs binary input
      { Executor.null_observer with Executor.on_access = access }
  in
  Tutil.check_int "every access accounted" totals.Executor.accesses
    (!firsts + !repeats);
  Tutil.check_bool "runs formed" true (!runs_n > 0);
  Tutil.check_bool "fewer calls than accesses" true
    (!firsts + !runs_n < totals.Executor.accesses / 2)

let () =
  Alcotest.run "exec"
    [ ( "counting",
        [ Tutil.quick "analytic insts" test_analytic_insts;
          Tutil.quick "determinism" test_determinism;
          Tutil.quick "zero-trip loop" test_zero_trip_loop;
          Tutil.quick "loop marker counts" test_loop_marker_counts;
          Tutil.quick "unrolled back edges" test_unrolled_backedge_count;
          Tutil.quick "select counts" test_select_counts ] );
      ( "equivalence",
        [ Tutil.quick "data stream across opt" test_data_stream_invariant_across_opt;
          Tutil.quick "data stream across isa" test_data_stream_invariant_across_isa;
          Tutil.quick "marker stream equality" test_marker_stream_equivalence;
          Tutil.quick "split preserves accesses" test_split_preserves_access_multiset ] );
      ( "flat interpreter",
        [ Tutil.quick "flat matches tree" test_flat_matches_tree;
          Tutil.quick "fast-path totals" test_fast_path_totals;
          Tutil.quick "hot window wraps" test_hot_window_exceeds_length ] );
      ( "observers",
        [ Tutil.quick "compose order" test_compose_order;
          Tutil.quick "counting observer" test_counting_observer ] );
      ( "run path",
        [ Tutil.quick "registry counters" test_runs_registry;
          Tutil.quick "recording observer keeps elements" test_runs_guard;
          Tutil.quick "repeats fold" test_runs_fold ] ) ]
