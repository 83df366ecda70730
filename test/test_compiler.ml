module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Isa = Cbsp_compiler.Isa
module Config = Cbsp_compiler.Config
module Costmodel = Cbsp_compiler.Costmodel
module Layout = Cbsp_compiler.Layout
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Executor_ref = Cbsp_oracle.Executor_ref

let cfg isa opt = Config.v isa opt

let test_labels () =
  Alcotest.(check (list string)) "paper labels"
    [ "32u"; "32o"; "64u"; "64o" ]
    (List.map Config.label (Config.paper_four ()))

let test_isa () =
  Tutil.check_int "32-bit pointers" 4 (Isa.pointer_bytes Isa.X86_32);
  Tutil.check_int "64-bit pointers" 8 (Isa.pointer_bytes Isa.X86_64)

let test_cost_ordering () =
  let w c = Costmodel.work_insts c 100 in
  let o0_32 = w (cfg Isa.X86_32 Config.O0) in
  let o0_64 = w (cfg Isa.X86_64 Config.O0) in
  let o2_32 = w (cfg Isa.X86_32 Config.O2) in
  let o2_64 = w (cfg Isa.X86_64 Config.O2) in
  Tutil.check_bool "O0 32 heaviest" true (o0_32 > o0_64);
  Tutil.check_bool "O0 > O2" true (o0_64 > o2_32);
  Tutil.check_bool "64-bit O2 lightest" true (o2_32 > o2_64);
  Tutil.check_bool "unopt roughly 2-3x" true
    (float_of_int o0_32 /. float_of_int o2_32 > 2.0
     && float_of_int o0_32 /. float_of_int o2_32 < 3.0)

let test_cost_floors () =
  List.iter
    (fun config ->
      Tutil.check_bool "work_insts >= 1" true (Costmodel.work_insts config 1 >= 1);
      Tutil.check_bool "spills >= 0" true (Costmodel.spill_accesses config 1 >= 0))
    (Config.paper_four ())

let test_spills_heavier_unoptimized () =
  let s c = Costmodel.spill_accesses c 100 in
  Tutil.check_bool "O0 spills >> O2 spills" true
    (s (cfg Isa.X86_32 Config.O0) > 5 * s (cfg Isa.X86_32 Config.O2))

let test_unroll_factor () =
  Tutil.check_int "no unroll at O0" 1 (Costmodel.unroll_factor (cfg Isa.X86_32 Config.O0));
  Tutil.check_bool "unroll at O2" true
    (Costmodel.unroll_factor (cfg Isa.X86_32 Config.O2) > 1)

(* --- lowering ------------------------------------------------------- *)

let find_loops (binary : Binary.t) = Array.to_list binary.Binary.loops

let test_inline_erases_symbol () =
  let program = Tutil.two_phase_program () in
  let o0 = Lower.compile program (cfg Isa.X86_32 Config.O0) in
  let o2 = Lower.compile program (cfg Isa.X86_32 Config.O2) in
  Tutil.check_bool "compute present at O0" true (List.mem "compute" o0.Binary.symbols);
  Tutil.check_bool "compute gone at O2" false (List.mem "compute" o2.Binary.symbols);
  Alcotest.(check (list string)) "recorded as inlined" [ "compute" ] o2.Binary.inlined;
  Tutil.check_bool "memory not inlined" true (List.mem "memory" o2.Binary.symbols)

let test_inline_keeps_loop_lines () =
  let program = Tutil.two_phase_program () in
  let o0 = Lower.compile program (cfg Isa.X86_32 Config.O0) in
  let o2 = Lower.compile program (cfg Isa.X86_32 Config.O2) in
  let lines b =
    find_loops b |> List.map (fun l -> l.Binary.li_line) |> List.sort compare
  in
  Alcotest.(check (list int)) "same loop lines despite inlining" (lines o0) (lines o2)

let test_unroll_applied () =
  let program = Tutil.two_phase_program () in
  let o2 = Lower.compile program (cfg Isa.X86_32 Config.O2) in
  let unrolled =
    find_loops o2 |> List.filter (fun l -> l.Binary.li_unroll > 1)
  in
  (* only "compute"'s loop is unrollable *)
  Tutil.check_int "one unrolled loop" 1 (List.length unrolled);
  let o0 = Lower.compile program (cfg Isa.X86_32 Config.O0) in
  Tutil.check_bool "no unrolling at O0" true
    (List.for_all (fun l -> l.Binary.li_unroll = 1) (find_loops o0))

let test_split_requires_flag () =
  let program = Tutil.splittable_program () in
  let no_split = Lower.compile program (cfg Isa.X86_32 Config.O2) in
  Tutil.check_bool "no mangled loops without flag" true
    (List.for_all (fun l -> l.Binary.li_line > 0) (find_loops no_split))

let test_split_mangles () =
  let program = Tutil.splittable_program () in
  let config = Config.v ~loop_splitting:true Isa.X86_32 Config.O2 in
  let split = Lower.compile program config in
  let mangled = find_loops split |> List.filter (fun l -> l.Binary.li_line < 0) in
  (* the split loop becomes 2 fragments; each contains one inlined callee
     whose loop is also mangled: 4 mangled loops total *)
  Tutil.check_int "four mangled loops" 4 (List.length mangled);
  let fragments =
    find_loops split |> List.filter (fun l -> l.Binary.li_split_arity = 2)
  in
  Tutil.check_int "two fragments with arity 2" 2 (List.length fragments);
  (* mangled lines are unique *)
  let lines = List.map (fun l -> l.Binary.li_line) mangled in
  Tutil.check_int "mangled lines distinct" 4
    (List.length (List.sort_uniq compare lines));
  (* fragments keep the original source line for trip evaluation *)
  let src = Ast.loop_lines program in
  List.iter
    (fun l ->
      Tutil.check_bool "fragment remembers source line" true
        (List.mem l.Binary.li_src_line src))
    fragments

let test_split_not_at_o0 () =
  let program = Tutil.splittable_program () in
  let config = Config.v ~loop_splitting:true Isa.X86_32 Config.O0 in
  let binary = Lower.compile program config in
  Tutil.check_bool "O0 never splits" true
    (List.for_all (fun l -> l.Binary.li_line > 0) (find_loops binary))

let test_static_marker_keys () =
  let program = Tutil.two_phase_program () in
  let o0 = Lower.compile program (cfg Isa.X86_32 Config.O0) in
  let keys = Binary.static_marker_keys o0 in
  Tutil.check_bool "has main entry" true
    (List.mem (Marker.Proc_entry "main") keys);
  Tutil.check_bool "has loop keys" true
    (List.exists (function Marker.Loop_entry _ -> true | _ -> false) keys)

let test_deterministic_compile () =
  let program = Tutil.two_phase_program () in
  let config = cfg Isa.X86_64 Config.O2 in
  let b1 = Lower.compile program config in
  let b2 = Lower.compile program config in
  Tutil.check_int "same block count" b1.Binary.n_blocks b2.Binary.n_blocks;
  Tutil.check_bool "same loop table" true (b1.Binary.loops = b2.Binary.loops)

(* --- layout --------------------------------------------------------- *)

let layout_program () =
  let b = B.create ~name:"lay" in
  let d = B.data_array b ~name:"d" ~elem_bytes:8 ~length:100 in
  let p = B.pointer_array b ~name:"p" ~length:100 in
  B.proc b ~name:"main" [ B.work b ~insts:1 () ];
  (B.finish b ~main:"main", d, p)

let test_layout_pointer_width () =
  let program, d, p = layout_program () in
  let l32 = Layout.build program Isa.X86_32 in
  let l64 = Layout.build program Isa.X86_64 in
  let span layout arr =
    Executor_ref.elem_addr layout ~array_id:arr ~index:99
    - Executor_ref.elem_addr layout ~array_id:arr ~index:0
  in
  Tutil.check_int "data array same span" (span l32 d) (span l64 d);
  Tutil.check_int "pointer array doubles" (2 * span l32 p) (span l64 p)

let test_layout_no_overlap () =
  let program, d, p = layout_program () in
  let layout = Layout.build program Isa.X86_64 in
  let d_last = Executor_ref.elem_addr layout ~array_id:d ~index:99 in
  let p_first = Executor_ref.elem_addr layout ~array_id:p ~index:0 in
  Tutil.check_bool "arrays disjoint" true (d_last < p_first);
  let s = Layout.stack_addr layout ~depth:0 ~slot:0 in
  Tutil.check_bool "stack above arrays" true
    (s > Executor_ref.elem_addr layout ~array_id:p ~index:99)

let test_layout_index_wraps () =
  let program, d, _ = layout_program () in
  let layout = Layout.build program Isa.X86_32 in
  Tutil.check_int "index wraps modulo length"
    (Executor_ref.elem_addr layout ~array_id:d ~index:0)
    (Executor_ref.elem_addr layout ~array_id:d ~index:100)

let test_stack_slots_wrap () =
  let program, _, _ = layout_program () in
  let layout = Layout.build program Isa.X86_32 in
  Tutil.check_int "slots wrap in frame"
    (Layout.stack_addr layout ~depth:1 ~slot:0)
    (Layout.stack_addr layout ~depth:1 ~slot:Cbsp_compiler.Costmodel.frame_bytes);
  Tutil.check_bool "frames distinct" true
    (Layout.stack_addr layout ~depth:0 ~slot:0
     <> Layout.stack_addr layout ~depth:1 ~slot:0)

let prop_work_insts_monotone =
  QCheck.Test.make ~name:"work_insts monotone in source insts" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 1 10_000))
    (fun (a, b) ->
      let config = cfg Isa.X86_32 Config.O0 in
      let lo = min a b and hi = max a b in
      Costmodel.work_insts config lo <= Costmodel.work_insts config hi)

(* Random marker keys, including procedure names that themselves contain
   ':' and the negative lines of compiler-mangled loop markers.  Short
   names and lines make equal-but-distinct pairs common. *)
let marker_key_gen ~max_name ~max_line =
  let open QCheck in
  let name_gen =
    Gen.map
      (fun chars -> String.concat "" (List.map (String.make 1) chars))
      (Gen.list_size (Gen.int_range 1 max_name)
         (Gen.oneofl [ 'a'; 'z'; 'A'; '0'; '9'; '_'; '.'; ':'; '$'; ' ' ]))
  in
  let line_gen = Gen.int_range (-max_line) max_line in
  Gen.oneof
    [ Gen.map (fun s -> Marker.Proc_entry s) name_gen;
      Gen.map (fun l -> Marker.Loop_entry l) line_gen;
      Gen.map (fun l -> Marker.Loop_back l) line_gen ]

(* Marker keys must survive a trip through their textual form (only the
   first colon separates the kind tag). *)
let prop_marker_roundtrip =
  let open QCheck in
  let print k = Marker.to_string k in
  Test.make ~name:"marker to_string/of_string round-trip" ~count:500
    (make ~print (marker_key_gen ~max_name:12 ~max_line:1000)) (fun key ->
      match Marker.of_string (Marker.to_string key) with
      | Some key' -> Marker.equal key key'
      | None -> false)

(* The monomorphic compare keeps [Stdlib.compare]'s order (so every
   Marker.Map iterates and serializes as before), [equal] agrees with
   it, and [hash] is consistent with [equal]. *)
let prop_marker_order_and_hash =
  let open QCheck in
  let key_gen =
    Gen.oneof
      [ marker_key_gen ~max_name:2 ~max_line:2;
        marker_key_gen ~max_name:12 ~max_line:1000 ]
  in
  let print (a, b) = Marker.to_string a ^ " vs " ^ Marker.to_string b in
  Test.make ~name:"marker compare/equal/hash agree with Stdlib" ~count:2000
    (make ~print (Gen.pair key_gen key_gen)) (fun (a, b) ->
      let c = Marker.compare a b in
      Int.compare c 0 = Int.compare (Stdlib.compare a b) 0
      && Marker.equal a b = (c = 0)
      && ((not (Marker.equal a b)) || Marker.hash a = Marker.hash b))

let () =
  Alcotest.run "compiler"
    [ ( "cost model",
        [ Tutil.quick "labels" test_labels;
          Tutil.quick "isa widths" test_isa;
          Tutil.quick "cost ordering" test_cost_ordering;
          Tutil.quick "cost floors" test_cost_floors;
          Tutil.quick "spill rates" test_spills_heavier_unoptimized;
          Tutil.quick "unroll factor" test_unroll_factor;
          Tutil.qcheck_case prop_work_insts_monotone ] );
      ( "lowering",
        [ Tutil.quick "inline erases symbol" test_inline_erases_symbol;
          Tutil.quick "inline keeps loop lines" test_inline_keeps_loop_lines;
          Tutil.quick "unroll applied" test_unroll_applied;
          Tutil.quick "split requires flag" test_split_requires_flag;
          Tutil.quick "split mangles" test_split_mangles;
          Tutil.quick "split not at O0" test_split_not_at_o0;
          Tutil.quick "static marker keys" test_static_marker_keys;
          Tutil.quick "deterministic" test_deterministic_compile;
          Tutil.qcheck_case prop_marker_roundtrip;
          Tutil.qcheck_case prop_marker_order_and_hash ] );
      ( "layout",
        [ Tutil.quick "pointer width" test_layout_pointer_width;
          Tutil.quick "no overlap" test_layout_no_overlap;
          Tutil.quick "index wraps" test_layout_index_wraps;
          Tutil.quick "stack slots" test_stack_slots_wrap ] ) ]
