(* Tests for the offline-tooling I/O: SimPoint-format BBV files, written
   streaming by the same per-interval writer the dump-bbv verb uses. *)

module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor
module Interval = Cbsp_profile.Interval
module Bbv_file = Cbsp_profile.Bbv_file
module Io = Cbsp_util.Io
module Interval_ref = Cbsp_oracle.Interval_ref

let input = Tutil.test_input
let target = 20_000

(* Run [write] against a fresh temp file and return what it wrote. *)
let written write =
  let path = Filename.temp_file "cbsp_io" ".bb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.with_out_file path write;
      Io.read_file path)

let materialized binary =
  let obs, read =
    Interval_ref.fli_observer ~n_blocks:binary.Binary.n_blocks ~target ()
  in
  let (_ : Executor.totals) = Executor.run binary input obs in
  read ()

let streamed binary oc =
  let obs, finish =
    Interval.fli_stream ~n_blocks:binary.Binary.n_blocks ~target
      ~emit:(Bbv_file.write oc) ()
  in
  let (_ : Executor.totals) = Executor.run binary input obs in
  let (_ : int) = finish () in
  ()

(* Parse one "T:id:count :id:count ..." line into its pairs. *)
let pairs_of_line line =
  Tutil.check_bool "line starts with T" true
    (String.length line > 0 && line.[0] = 'T');
  String.sub line 1 (String.length line - 1)
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> List.map (fun word ->
         match String.split_on_char ':' word with
         | [ ""; id; count ] -> (int_of_string id, int_of_string count)
         | _ -> Alcotest.failf "bad pair %S" word)

(* The streamed file equals, byte for byte, the same writer applied to
   the materializing builder's copied intervals; every line's counts sum
   to its interval's instructions, with ids in 1..n_blocks. *)
let check_bb binary =
  let intervals = materialized binary in
  let text = written (streamed binary) in
  Alcotest.(check string) "streamed = materialized"
    (written (fun oc -> Array.iter (Bbv_file.write oc) intervals))
    text;
  let lines = String.split_on_char '\n' text in
  (* the text ends in '\n', so the split leaves one empty tail *)
  Tutil.check_int "one line per interval" (Array.length intervals + 1)
    (List.length lines);
  List.iteri
    (fun i line ->
      if i < Array.length intervals then begin
        let pairs = pairs_of_line line in
        List.iter
          (fun (id, _) ->
            Tutil.check_bool "id in 1..n_blocks" true
              (id >= 1 && id <= binary.Binary.n_blocks))
          pairs;
        Tutil.check_int
          (Printf.sprintf "interval %d counts sum to insts" i)
          intervals.(i).Interval.insts
          (List.fold_left (fun acc (_, c) -> acc + c) 0 pairs)
      end)
    lines

let test_bbv_roundtrip () =
  check_bb
    (Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_32 Config.O0))

let test_bbv_file_roundtrip () =
  check_bb
    (Lower.compile
       (Tutil.single_loop_program ~trips:100 ())
       (Config.v Isa.X86_32 Config.O2))

let test_bbv_format_shape () =
  let text =
    written (fun oc ->
        Bbv_file.write oc
          { Interval.insts = 5; cycles = 0.0; extras = [||];
            bbv = [| 3.0; 0.0; 2.0 |] })
  in
  Alcotest.(check string) "sparse, 1-based ids" "T:1:3 :3:2 \n" text

let () =
  Alcotest.run "io"
    [ ( "bbv files",
        [ Tutil.quick "roundtrip" test_bbv_roundtrip;
          Tutil.quick "file roundtrip" test_bbv_file_roundtrip;
          Tutil.quick "format shape" test_bbv_format_shape ] ) ]
