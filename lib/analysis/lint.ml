module Ast = Cbsp_source.Ast
module Validate = Cbsp_source.Validate
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module Metrics = Cbsp_obs.Metrics

type severity = Error | Warning | Info

type finding = {
  f_severity : severity;
  f_workload : string;
  f_rule : string;
  f_line : int option;
  f_message : string;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let finding severity workload rule line fmt =
  Printf.ksprintf
    (fun message ->
      Metrics.incr
        (Metrics.counter "lint.findings"
           ~labels:[ ("severity", severity_name severity) ]);
      { f_severity = severity; f_workload = workload; f_rule = rule;
        f_line = line; f_message = message })
    fmt

(* --- program lints ----------------------------------------------------- *)

let array_used_syntactically program array_id =
  let used = ref false in
  Ast.iter_stmts
    (function
      | Ast.Work w ->
        if List.exists (fun a -> a.Ast.acc_array = array_id) w.Ast.accesses then
          used := true
      | Ast.Call _ | Ast.Loop _ | Ast.Select _ -> ())
    program;
  !used

let pp_trips ppf = function
  | Ast.Fixed n -> Fmt.pf ppf "fixed %d" n
  | Ast.Scaled { base; per_scale } -> Fmt.pf ppf "%d + %d*scale" base per_scale
  | Ast.Jitter { mean; spread } -> Fmt.pf ppf "%d +/- %d jitter" mean spread

let check_program ~workload ~scale (program : Ast.program) =
  match Validate.check program with
  | exception Validate.Invalid msg ->
    [ finding Error workload "validate" None "program fails validation: %s" msg ]
  | () ->
    let summary = Absint.analyze_program program in
    let findings = ref [] in
    let add f = findings := f :: !findings in
    List.iter
      (fun (l : Absint.loop_site) ->
        let _, trips_hi = Sym.eval (Sym.of_trips l.Absint.lp_trips) ~scale in
        if trips_hi = 0 then
          add
            (finding Warning workload "zero-trip-loop" (Some l.Absint.lp_line)
               "loop never iterates at scale %d (trips = %s)" scale
               (Fmt.str "%a" pp_trips l.Absint.lp_trips)))
      summary.Absint.ps_loops;
    List.iter
      (fun (s : Absint.select_site) ->
        let _, execs_hi = Sym.eval s.Absint.st_execs ~scale in
        if execs_hi < s.Absint.st_arms then
          add
            (finding Warning workload "select-arms" (Some s.Absint.st_line)
               "select executes at most %d times for its %d arms at scale %d: at least %d arm%s statically unreachable"
               execs_hi s.Absint.st_arms scale
               (s.Absint.st_arms - execs_hi)
               (if s.Absint.st_arms - execs_hi = 1 then "" else "s")))
      summary.Absint.ps_selects;
    Array.iteri
      (fun i (arr : Ast.array_decl) ->
        if not (array_used_syntactically program i) then
          add
            (finding Warning workload "unused-array" None
               "array %S declared but never accessed" arr.Ast.arr_name)
        else begin
          let _, acc_hi = Sym.eval summary.Absint.ps_accesses.(i) ~scale in
          if acc_hi = 0 then
            add
              (finding Info workload "dead-array" None
                 "array %S is accessed only by code that never executes at scale %d"
                 arr.Ast.arr_name scale)
        end)
      program.Ast.arrays;
    List.rev !findings

(* --- binary lints ------------------------------------------------------ *)

(* The executor counts instructions in OCaml ints; estimate the smallest
   scale at which a binary's total could exceed 2^62 and flag it when
   that is within plausibly-requested range. *)
let overflow_limit = 4.6e18

let overflow_scale_cap = 1_000_000

let min_overflow_scale (summary : Absint.binary_summary) =
  let hi = (summary.Absint.bs_insts : Sym.t).Sym.hi in
  let over s = Poly.eval_float hi ~scale:(float_of_int s) > overflow_limit in
  if not (over overflow_scale_cap) then None
  else begin
    let lo = ref 1 and hi_s = ref overflow_scale_cap in
    (* invariant: not (over !lo) unless !lo = 1; over !hi_s *)
    if over !lo then Some 1
    else begin
      while !hi_s - !lo > 1 do
        let mid = !lo + ((!hi_s - !lo) / 2) in
        if over mid then hi_s := mid else lo := mid
      done;
      Some !hi_s
    end
  end

let check_binaries ~workload ~scale ?report binaries =
  let report =
    match report with Some r -> r | None -> Prover.prove ~binaries ~scale
  in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let worst =
    List.fold_left
      (fun acc (_, summary) ->
        match (min_overflow_scale summary, acc) with
        | None, acc -> acc
        | Some s, None -> Some s
        | Some s, Some s' -> Some (min s s'))
      None report.Prover.pr_summaries
  in
  (match worst with
  | Some s ->
    add
      (finding Warning workload "inst-overflow" None
         "estimated instruction count exceeds 2^62 from scale ~%d: the executor's counters could overflow"
         s)
  | None -> ());
  Marker.Map.iter
    (fun key verdict ->
      match (key, verdict) with
      | ( Marker.Loop_back line,
          Prover.Proved_unmappable
            ((Prover.Unroll_divergence | Prover.Line_split _) as reason) ) ->
        add
          (finding Info workload "backedge-survival" (Some line)
             "back-edge marker at line %d cannot survive across the standard binaries (%s)"
             line
             (Fmt.str "%a" Prover.pp_reason reason))
      | _ -> ())
    report.Prover.pr_verdicts;
  List.rev !findings

(* --- points-file lints ------------------------------------------------- *)

let check_points ~workload ~markers =
  List.filter_map
    (fun key ->
      if Marker.is_mangled key then
        Some
          (finding Error workload "mangled-marker" None
             "compiler-mangled marker %s leaked into the points file: no other binary can name it"
             (Marker.to_string key))
      else None)
    markers

(* --- reporting --------------------------------------------------------- *)

let errors findings =
  List.length (List.filter (fun f -> f.f_severity = Error) findings)

let pp_finding ppf f =
  Fmt.pf ppf "%s:%s %s [%s] %s" f.f_workload
    (match f.f_line with Some l -> string_of_int l | None -> "-")
    (severity_name f.f_severity) f.f_rule f.f_message

type analysis_totals = {
  at_candidates : int;
  at_proved_mappable : int;
  at_proved_unmappable : int;
  at_needs_dynamic : int;
}

type semantic_stat = {
  ss_workload : string;
  ss_lost : int;
  ss_identified : int;
  ss_cuttable : int;
  ss_demoted : int;
}

let semantic_stat ~workload report =
  let rc = Fingerprint.recover report in
  { ss_workload = workload; ss_lost = Fingerprint.n_lost rc;
    ss_identified = Fingerprint.n_identified rc;
    ss_cuttable = Fingerprint.n_cuttable rc;
    ss_demoted = Marker.Set.cardinal rc.Fingerprint.rc_demoted }

let recovered_fraction s =
  if s.ss_lost = 0 then 1.0
  else float_of_int s.ss_identified /. float_of_int s.ss_lost

let pp_semantic_stat ppf s =
  Fmt.pf ppf
    "%s: %d split-lost marker%s, %d identified (%.0f%%), %d order-safe, %d demoted"
    s.ss_workload s.ss_lost
    (if s.ss_lost = 1 then "" else "s")
    s.ss_identified
    (100.0 *. recovered_fraction s)
    s.ss_cuttable s.ss_demoted

let totals_of_reports reports =
  List.fold_left
    (fun acc (r : Prover.report) ->
      let p, u, d = Prover.tally r in
      { at_candidates = acc.at_candidates + r.Prover.pr_candidates;
        at_proved_mappable = acc.at_proved_mappable + p;
        at_proved_unmappable = acc.at_proved_unmappable + u;
        at_needs_dynamic = acc.at_needs_dynamic + d })
    { at_candidates = 0; at_proved_mappable = 0; at_proved_unmappable = 0;
      at_needs_dynamic = 0 }
    reports

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ~scale ~workloads ~totals ?semantic findings =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n  \"schema\": \"cbsp-lint/1\",\n";
  addf "  \"scale\": %d,\n" scale;
  addf "  \"workloads\": [%s],\n"
    (String.concat ", "
       (List.map (fun w -> Printf.sprintf "\"%s\"" (json_escape w)) workloads));
  addf "  \"findings\": [";
  List.iteri
    (fun i f ->
      addf "%s\n    { \"workload\": \"%s\", \"severity\": \"%s\", \"rule\": \"%s\", \"line\": %s, \"message\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape f.f_workload)
        (severity_name f.f_severity)
        (json_escape f.f_rule)
        (match f.f_line with Some l -> string_of_int l | None -> "null")
        (json_escape f.f_message))
    findings;
  addf "%s],\n" (if findings = [] then "" else "\n  ");
  addf
    "  \"analysis\": { \"candidates\": %d, \"proved_mappable\": %d, \"proved_unmappable\": %d, \"needs_dynamic\": %d },\n"
    totals.at_candidates totals.at_proved_mappable totals.at_proved_unmappable
    totals.at_needs_dynamic;
  (match semantic with
  | None -> ()
  | Some stats ->
    addf "  \"semantic\": [";
    List.iteri
      (fun i s ->
        addf
          "%s\n    { \"workload\": \"%s\", \"lost\": %d, \"identified\": %d, \"order_safe\": %d, \"demoted\": %d, \"recovered_fraction\": %.4f }"
          (if i = 0 then "" else ",")
          (json_escape s.ss_workload) s.ss_lost s.ss_identified s.ss_cuttable
          s.ss_demoted (recovered_fraction s))
      stats;
    addf "%s],\n" (if stats = [] then "" else "\n  "));
  let count sev = List.length (List.filter (fun f -> f.f_severity = sev) findings) in
  addf "  \"summary\": { \"error\": %d, \"warning\": %d, \"info\": %d }\n"
    (count Error) (count Warning) (count Info);
  addf "}\n";
  Buffer.contents buf
