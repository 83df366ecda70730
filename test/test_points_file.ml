module Pipeline = Cbsp.Pipeline
module Points_file = Cbsp.Points_file
module Marker = Cbsp_compiler.Marker
module Interval = Cbsp_profile.Interval

let input = Tutil.test_input
let configs = Tutil.paper_configs ()

let vli_of program =
  Pipeline.run_vli program ~configs ~input ~target:20_000

let test_roundtrip () =
  let vli = vli_of (Tutil.two_phase_program ()) in
  let text =
    Points_file.to_string ~program:"twophase" ~input vli.Pipeline.vli_points
  in
  let header, points = Points_file.of_string text in
  Alcotest.(check string) "program" "twophase" header.Points_file.h_program;
  Alcotest.(check string) "input name" input.Cbsp_source.Input.name
    header.Points_file.h_input_name;
  Tutil.check_int "scale" input.Cbsp_source.Input.scale header.Points_file.h_scale;
  Tutil.check_int "seed" input.Cbsp_source.Input.seed header.Points_file.h_seed;
  Tutil.check_bool "points identical" true (points = vli.Pipeline.vli_points)

let test_file_roundtrip () =
  let vli = vli_of (Tutil.two_phase_program ()) in
  let path = Filename.temp_file "cbsp_points" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Points_file.save ~path ~program:"twophase" ~input vli.Pipeline.vli_points;
      let _, points = Points_file.load ~path in
      Tutil.check_bool "file roundtrip" true (points = vli.Pipeline.vli_points))

let test_replay_matches_vli () =
  let program = Tutil.two_phase_program () in
  let vli = vli_of program in
  let text =
    Points_file.to_string ~program:"twophase" ~input vli.Pipeline.vli_points
  in
  let _, points = Points_file.of_string text in
  (* replaying the loaded points on each binary must reproduce the VLI
     pipeline's per-binary results exactly *)
  List.iter2
    (fun config (expected : Pipeline.binary_result) ->
      let binary = Cbsp_compiler.Lower.compile program config in
      let replayed = Pipeline.replay binary ~input points in
      Tutil.check_close ~eps:1e-9 "same estimate" expected.Pipeline.br_est_cpi
        replayed.Pipeline.br_est_cpi;
      Tutil.check_close ~eps:1e-9 "same truth"
        expected.Pipeline.br_truth.Pipeline.t_cpi
        replayed.Pipeline.br_truth.Pipeline.t_cpi)
    configs vli.Pipeline.vli_binaries

let expect_parse_error text =
  match Points_file.of_string text with
  | (_ : Points_file.header * Pipeline.points) ->
    Alcotest.fail "expected Parse_error"
  | exception Points_file.Parse_error _ -> ()

let valid_text =
  String.concat "\n"
    [ "# cbsp-points 1"; "program p"; "input ref 1 2"; "target 100";
      "boundary proc:f 3"; "label 0 1"; "point 0 0"; "point 1 1"; "" ]

let test_parse_minimal () =
  let header, points = Points_file.of_string valid_text in
  Alcotest.(check string) "program" "p" header.Points_file.h_program;
  Tutil.check_int "boundaries" 1 (Array.length points.Pipeline.pt_boundaries);
  Tutil.check_int "reps" 2 (Array.length points.Pipeline.pt_reps);
  Tutil.check_bool "marker parsed" true
    (points.Pipeline.pt_boundaries.(0).Interval.bd_key = Marker.Proc_entry "f")

let swap text ~from ~into =
  let flen = String.length from in
  let buf = Buffer.create (String.length text) in
  let i = ref 0 in
  let n = String.length text in
  while !i < n do
    if !i + flen <= n && String.sub text !i flen = from then begin
      Buffer.add_string buf into;
      i := !i + flen
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_parse_errors () =
  expect_parse_error (swap valid_text ~from:"target 100" ~into:"");
  expect_parse_error (swap valid_text ~from:"program p" ~into:"");
  expect_parse_error (swap valid_text ~from:"label 0 1" ~into:"label 0");
  expect_parse_error (swap valid_text ~from:"label 0 1" ~into:"label 0 9");
  expect_parse_error (swap valid_text ~from:"point 1 1" ~into:"point 3 1");
  expect_parse_error (swap valid_text ~from:"boundary proc:f 3" ~into:"boundary junk 3");
  expect_parse_error (swap valid_text ~from:"boundary proc:f 3" ~into:"boundary proc:f 0");
  expect_parse_error (swap valid_text ~from:"boundary proc:f 3" ~into:"boundary loop-back:-3 4");
  expect_parse_error (swap valid_text ~from:"point 0 0" ~into:"gibberish here now")

let test_rep_label_consistency_checked () =
  (* rep interval 1 is labelled phase 1, so claiming it for phase 0 fails *)
  expect_parse_error
    (swap valid_text ~from:"point 0 0\npoint 1 1" ~into:"point 0 1\npoint 1 0")

let test_marker_string_roundtrip () =
  List.iter
    (fun key ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Marker.to_string key))
        (Option.map Marker.to_string (Marker.of_string (Marker.to_string key))))
    [ Marker.Proc_entry "main"; Marker.Proc_entry "with:colon";
      Marker.Loop_entry 42; Marker.Loop_back 17; Marker.Loop_entry (-3) ];
  Tutil.check_bool "garbage rejected" true (Marker.of_string "nonsense" = None);
  Tutil.check_bool "bad line rejected" true (Marker.of_string "loop-back:xyz" = None);
  Tutil.check_bool "empty proc rejected" true (Marker.of_string "proc:" = None)

(* The decoder's total contract: any input either parses or raises
   [Parse_error] — never another exception. *)
let parses_or_rejects text =
  match Points_file.of_string text with
  | (_ : Points_file.header * Pipeline.points) -> true
  | exception Points_file.Parse_error _ -> true

(* Random bytes rarely get past the header, so half the strings are drawn
   from the format's own alphabet to reach the later parse stages. *)
let prop_random_strings =
  let alphabet = "# cbsp-points1\nprogaminutlbdeyf:0123456789.-" in
  let gen =
    QCheck.Gen.(
      oneof
        [ string_size (int_range 0 200);
          string_size
            ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
            (int_range 0 200) ])
  in
  QCheck.Test.make ~name:"of_string total on random strings" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    parses_or_rejects

let gcc_points_text =
  lazy
    (let entry = Cbsp_workloads.Registry.find "gcc" in
     let input = Cbsp_source.Input.make ~name:"scale2" ~seed:42 ~scale:2 () in
     let vli =
       Pipeline.run_vli (entry.Cbsp_workloads.Registry.build ())
         ~configs:
           (Cbsp_compiler.Config.paper_four
              ~loop_splitting:entry.Cbsp_workloads.Registry.loop_splitting ())
         ~input ~target:20_000
     in
     Points_file.to_string ~program:"gcc" ~input vli.Pipeline.vli_points)

let prop_mutated_gcc_file =
  let gen =
    QCheck.Gen.(list_size (int_range 1 3) (pair (int_bound max_int) char))
  in
  QCheck.Test.make ~name:"of_string total on 1-3 byte mutations of gcc" ~count:2000
    (QCheck.make gen) (fun edits ->
      let bytes = Bytes.of_string (Lazy.force gcc_points_text) in
      List.iter
        (fun (pos, c) -> Bytes.set bytes (pos mod Bytes.length bytes) c)
        edits;
      parses_or_rejects (Bytes.to_string bytes))

let () =
  Alcotest.run "points_file"
    [ ( "serialization",
        [ Tutil.quick "roundtrip" test_roundtrip;
          Tutil.quick "file roundtrip" test_file_roundtrip;
          Tutil.quick "replay matches vli" test_replay_matches_vli;
          Tutil.quick "parse minimal" test_parse_minimal;
          Tutil.quick "parse errors" test_parse_errors;
          Tutil.quick "rep/label consistency" test_rep_label_consistency_checked;
          Tutil.quick "marker roundtrip" test_marker_string_roundtrip ] );
      ( "robustness",
        [ Tutil.qcheck_case prop_random_strings;
          Tutil.qcheck_case prop_mutated_gcc_file ] ) ]
