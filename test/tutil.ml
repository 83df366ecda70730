(* Shared helpers for the test suite: tiny programs with analytically
   known behaviour, and common alcotest/qcheck shorthands. *)

module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Input = Cbsp_source.Input
module Config = Cbsp_compiler.Config
module Lower = Cbsp_compiler.Lower

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let quick name f = Alcotest.test_case name `Quick f

(* Property tests run under a fixed generator seed so the suite is
   reproducible run-to-run (the default seeds from the clock, which made
   rare generator-found counterexamples look like flaky tests). *)
let qcheck_case cell =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2007 |]) cell

let test_input = Input.make ~name:"t" ~seed:11 ~scale:1 ()

(* One procedure, one fixed loop of [trips] iterations, one work statement
   of [insts] source instructions with no memory accesses. *)
let single_loop_program ?(name = "tiny") ?(trips = 10) ?(insts = 50) () =
  let b = B.create ~name in
  let arr = B.data_array b ~name:"buf" ~elem_bytes:8 ~length:1024 in
  ignore arr;
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed trips) [ B.work b ~insts () ] ];
  B.finish b ~main:"main"

(* Two clearly distinct phases (cheap compute vs heavy random memory) with
   a procedure call between them, plus an inline-able helper — enough
   structure to exercise every lowering path except splitting. *)
let two_phase_program () =
  let b = B.create ~name:"twophase" in
  let small = B.data_array b ~name:"small" ~elem_bytes:8 ~length:512 in
  let big = B.data_array b ~name:"big" ~elem_bytes:8 ~length:300_000 in
  B.proc b ~name:"compute" ~inline_hint:true
    [ B.loop b ~trips:(Ast.Jitter { mean = 40; spread = 4 }) ~unrollable:true
        [ B.work b ~insts:60 ~accesses:[ B.hot ~arr:small ~count:2 () ] () ] ];
  B.proc b ~name:"memory"
    [ B.loop b ~trips:(Ast.Jitter { mean = 30; spread = 3 })
        [ B.work b ~insts:40 ~accesses:[ B.rand ~arr:big ~count:6 () ] () ] ];
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 200)
        [ B.call b "compute"; B.call b "memory" ] ];
  B.finish b ~main:"main"

(* A program whose main loop is splittable and whose callees are inlined at
   O2 — the applu shape, in miniature. *)
let splittable_program () =
  let b = B.create ~name:"splitty" in
  let a = B.data_array b ~name:"a" ~elem_bytes:8 ~length:4096 in
  B.proc b ~name:"one" ~inline_hint:true
    [ B.loop b ~trips:(Ast.Fixed 20)
        [ B.work b ~insts:30 ~accesses:[ B.seq ~arr:a ~count:2 () ] () ] ];
  B.proc b ~name:"two" ~inline_hint:true
    [ B.loop b ~trips:(Ast.Fixed 25)
        [ B.work b ~insts:35 ~accesses:[ B.seq ~arr:a ~count:3 () ] () ] ];
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 50) ~splittable:true
        [ B.call b "one"; B.call b "two" ] ];
  B.finish b ~main:"main"

let paper_configs ?(loop_splitting = false) () =
  Config.paper_four ~loop_splitting ()

let compile_all ?loop_splitting program =
  List.map (Lower.compile program) (paper_configs ?loop_splitting ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let temp_dirs = ref 0

(* A fresh directory under the system temp dir, removed (recursively)
   when [f] returns or raises. *)
let with_temp_dir tag f =
  incr temp_dirs;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cbsp-test-%d-%d-%s" (Unix.getpid ()) !temp_dirs tag)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
