module Marker = Cbsp_compiler.Marker
module Io = Cbsp_util.Io
module Metrics = Cbsp_obs.Metrics

exception Parse_error of string

let m_events = Metrics.counter "trace.replay.events"
let m_parse_errors = Metrics.counter "trace.replay.parse_errors"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Metrics.incr m_parse_errors;
      raise (Parse_error s))
    fmt

let recording_observer oc =
  { Executor.on_block = (fun id insts -> Printf.fprintf oc "B %d %d\n" id insts);
    on_access =
      (fun addr is_write ->
        Printf.fprintf oc "A %d %c\n" addr (if is_write then 'w' else 'r'));
    on_marker =
      (fun key -> Printf.fprintf oc "M %s\n" (Marker.to_string key)) }

let record ~path binary input =
  Io.with_out_file path (fun oc ->
      Executor.run binary input (recording_observer oc))

let replay_channel ic (obs : Executor.observer) =
  let insts = ref 0 and blocks = ref 0 and accesses = ref 0 and markers = ref 0 in
  let lineno = ref 0 in
  let events = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line <> "" then begin
         (match String.split_on_char ' ' line with
          | [ "B"; id; n ] -> begin
            match (int_of_string_opt id, int_of_string_opt n) with
            | Some id, Some n ->
              insts := !insts + n;
              incr blocks;
              obs.Executor.on_block id n
            | _ -> fail "line %d: bad block event" !lineno
          end
          | [ "A"; addr; rw ] -> begin
            match (int_of_string_opt addr, rw) with
            | Some addr, ("r" | "w") ->
              incr accesses;
              obs.Executor.on_access addr (rw = "w")
            | _ -> fail "line %d: bad access event" !lineno
          end
          | [ "M"; key ] -> begin
            match Marker.of_string key with
            | Some key ->
              incr markers;
              obs.Executor.on_marker key
            | None -> fail "line %d: bad marker %S" !lineno key
          end
          | _ -> fail "line %d: unrecognized event %S" !lineno line);
         incr events
       end
     done
   with End_of_file -> ());
  Metrics.incr ~by:!events m_events;
  { Executor.insts = !insts; blocks = !blocks; accesses = !accesses;
    markers = !markers }

let replay ~path obs = Io.with_in_file path (fun ic -> replay_channel ic obs)
