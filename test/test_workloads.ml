module Registry = Cbsp_workloads.Registry
module Ast = Cbsp_source.Ast
module Validate = Cbsp_source.Validate
module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor

let paper_names =
  [ "ammp"; "applu"; "apsi"; "art"; "bzip2"; "crafty"; "eon"; "equake";
    "fma3d"; "gcc"; "gzip"; "lucas"; "mcf"; "mesa"; "perlbmk"; "sixtrack";
    "swim"; "twolf"; "vortex"; "vpr"; "wupwise" ]

let test_suite_complete () =
  Alcotest.(check (list string)) "paper's 21 programs in paper order"
    paper_names Registry.names

let test_only_applu_splits () =
  List.iter
    (fun (e : Registry.entry) ->
      Tutil.check_bool
        (e.Registry.name ^ " loop_splitting flag")
        (e.Registry.name = "applu") e.Registry.loop_splitting)
    Registry.all

let test_all_validate () =
  List.iter
    (fun (e : Registry.entry) ->
      (* finish already validates; re-check explicitly for clarity. *)
      let program = e.Registry.build () in
      Validate.check program;
      Tutil.check_bool (e.Registry.name ^ " named correctly") true
        (program.Ast.prog_name = e.Registry.name))
    Registry.all

let test_all_have_init () =
  List.iter
    (fun (e : Registry.entry) ->
      let program = e.Registry.build () in
      let (_ : Ast.proc) = Ast.find_proc program "init_data" in
      (* init must be the very first thing main runs. *)
      let main = Ast.find_proc program program.Ast.main in
      match main.Ast.proc_body with
      | Ast.Call { callee = "init_data"; _ } :: _ -> ()
      | _ -> Alcotest.failf "%s: main does not start with init_data" e.Registry.name)
    Registry.all

let test_all_compile_four_ways () =
  List.iter
    (fun (e : Registry.entry) ->
      let program = e.Registry.build () in
      let binaries =
        Tutil.compile_all ~loop_splitting:e.Registry.loop_splitting program
      in
      Tutil.check_int (e.Registry.name ^ " four binaries") 4 (List.length binaries);
      List.iter
        (fun (b : Binary.t) ->
          Tutil.check_bool (e.Registry.name ^ " has blocks") true
            (b.Binary.n_blocks > 0);
          Tutil.check_bool (e.Registry.name ^ " has loops") true
            (Array.length b.Binary.loops > 0);
          Tutil.check_bool (e.Registry.name ^ " main survives") true
            (List.mem program.Ast.main b.Binary.symbols))
        binaries)
    Registry.all

let test_build_deterministic () =
  List.iter
    (fun (e : Registry.entry) ->
      let p1 = e.Registry.build () and p2 = e.Registry.build () in
      Tutil.check_bool (e.Registry.name ^ " builds identically") true (p1 = p2))
    Registry.all

(* Structural smoke of dynamic behaviour on the small test input: every
   binary executes a nontrivial number of instructions, and the
   unoptimized binary executes strictly more than the optimized one on the
   same ISA. *)
let test_execution_sanity () =
  let input = Tutil.test_input in
  List.iter
    (fun (e : Registry.entry) ->
      let program = e.Registry.build () in
      let binaries =
        Tutil.compile_all ~loop_splitting:e.Registry.loop_splitting program
      in
      let insts =
        List.map
          (fun b -> (Executor.run b input Executor.null_observer).Executor.insts)
          binaries
      in
      match insts with
      | [ i32u; i32o; i64u; i64o ] ->
        Tutil.check_bool (e.Registry.name ^ " nontrivial") true (i32o > 10_000);
        Tutil.check_bool (e.Registry.name ^ " 32u > 32o") true (i32u > i32o);
        Tutil.check_bool (e.Registry.name ^ " 64u > 64o") true (i64u > i64o);
        Tutil.check_bool (e.Registry.name ^ " 32u >= 64u") true (i32u >= i64u)
      | _ -> Alcotest.fail "expected four binaries")
    Registry.all

let test_find () =
  let e = Registry.find "gcc" in
  Alcotest.(check string) "find gcc" "gcc" e.Registry.name;
  Tutil.check_bool "find unknown raises" true
    (match Registry.find "nope" with
     | (_ : Registry.entry) -> false
     | exception Not_found -> true)

let () =
  Alcotest.run "workloads"
    [ ( "registry",
        [ Tutil.quick "suite complete" test_suite_complete;
          Tutil.quick "only applu splits" test_only_applu_splits;
          Tutil.quick "find" test_find ] );
      ( "programs",
        [ Tutil.quick "all validate" test_all_validate;
          Tutil.quick "all have init phase" test_all_have_init;
          Tutil.quick "all compile four ways" test_all_compile_four_ways;
          Tutil.quick "builds deterministic" test_build_deterministic;
          Alcotest.test_case "execution sanity" `Slow test_execution_sanity ] ) ]
