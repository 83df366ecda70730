module Marker = Cbsp_compiler.Marker
module Interval = Cbsp_profile.Interval
module Input = Cbsp_source.Input

type header = {
  h_program : string;
  h_input_name : string;
  h_scale : int;
  h_seed : int;
}

exception Parse_error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

let magic = "# cbsp-points 1"

let to_string ~program ~(input : Input.t) (points : Pipeline.points) =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s\n" magic;
  addf "program %s\n" program;
  addf "input %s %d %d\n" input.Input.name input.Input.scale input.Input.seed;
  addf "target %d\n" points.Pipeline.pt_target;
  Array.iter
    (fun (b : Interval.boundary) ->
      addf "boundary %s %d\n" (Marker.to_string b.Interval.bd_key) b.Interval.bd_count)
    points.Pipeline.pt_boundaries;
  Buffer.add_string buf "label";
  Array.iter (fun phase -> addf " %d" phase) points.Pipeline.pt_phase_of;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun phase rep -> addf "point %d %d\n" phase rep)
    points.Pipeline.pt_reps;
  Buffer.contents buf

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let of_string text =
  let lines = String.split_on_char '\n' text in
  let header_program = ref None in
  let header_input = ref None in
  let target = ref None in
  let boundaries = ref [] in
  let labels = ref None in
  let points = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line = String.trim line in
      if line = "" || (String.length line > 0 && line.[0] = '#') then ()
      else
        match split_words line with
        | [ "program"; name ] -> header_program := Some name
        | [ "input"; name; scale; seed ] -> begin
          match (int_of_string_opt scale, int_of_string_opt seed) with
          | Some scale, Some seed -> header_input := Some (name, scale, seed)
          | _ -> fail lineno "bad input line"
        end
        | [ "target"; t ] -> begin
          match int_of_string_opt t with
          | Some t when t > 0 -> target := Some t
          | _ -> fail lineno "bad target"
        end
        | [ "boundary"; key; count ] -> begin
          match (Marker.of_string key, int_of_string_opt count) with
          | Some key, _ when Marker.is_mangled key ->
            fail lineno "compiler-mangled marker %s: no other binary can name it"
              (Marker.to_string key)
          | Some key, Some count when count > 0 ->
            boundaries := { Interval.bd_key = key; bd_count = count } :: !boundaries
          | _ -> fail lineno "bad boundary %S" line
        end
        | "label" :: rest ->
          let parse w =
            match int_of_string_opt w with
            | Some v when v >= 0 -> v
            | _ -> fail lineno "bad phase label %S" w
          in
          labels := Some (List.map parse rest)
        | [ "point"; phase; rep ] -> begin
          match (int_of_string_opt phase, int_of_string_opt rep) with
          | Some phase, Some rep when phase >= 0 && rep >= 0 ->
            points := (phase, rep) :: !points
          | _ -> fail lineno "bad point"
        end
        | _ -> fail lineno "unrecognized line %S" line)
    lines;
  let h_program =
    match !header_program with Some p -> p | None -> fail 0 "missing program"
  in
  let h_input_name, h_scale, h_seed =
    match !header_input with Some i -> i | None -> fail 0 "missing input"
  in
  let pt_target = match !target with Some t -> t | None -> fail 0 "missing target" in
  let pt_phase_of =
    match !labels with
    | Some ls -> Array.of_list ls
    | None -> fail 0 "missing labels"
  in
  let point_list = List.sort compare (List.rev !points) in
  if point_list = [] then fail 0 "no simulation points";
  List.iteri
    (fun i (phase, _) -> if phase <> i then fail 0 "phase ids not dense from 0")
    point_list;
  let pt_reps = Array.of_list (List.map snd point_list) in
  let pt_boundaries = Array.of_list (List.rev !boundaries) in
  (* Cross-field validation: labels cover boundaries+1 intervals; reps and
     labels refer to valid indices/phases. *)
  if Array.length pt_phase_of <> Array.length pt_boundaries + 1 then
    fail 0 "label count (%d) must be boundary count + 1 (%d)"
      (Array.length pt_phase_of)
      (Array.length pt_boundaries + 1);
  let k = Array.length pt_reps in
  Array.iter
    (fun phase -> if phase >= k then fail 0 "label refers to unknown phase %d" phase)
    pt_phase_of;
  Array.iteri
    (fun phase rep ->
      if rep >= Array.length pt_phase_of then
        fail 0 "representative %d out of range" rep;
      if pt_phase_of.(rep) <> phase then
        fail 0 "representative %d not labelled with its phase %d" rep phase)
    pt_reps;
  ( { h_program; h_input_name; h_scale; h_seed },
    { Pipeline.pt_target; pt_boundaries; pt_phase_of; pt_reps } )

let save ~path ~program ~input points =
  Cbsp_util.Io.with_out_file path (fun oc ->
      output_string oc (to_string ~program ~input points))

let load ~path = of_string (Cbsp_util.Io.read_file path)
