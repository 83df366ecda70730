module Ast = Cbsp_source.Ast
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module Config = Cbsp_compiler.Config
module Metrics = Cbsp_obs.Metrics
module Tracer = Cbsp_obs.Tracer

type reason =
  | Symbol_erased of string
  | Line_split of string
  | Unroll_divergence
  | Count_divergence

type verdict =
  | Proved_mappable of int
  | Proved_unmappable of reason
  | Needs_dynamic

type report = {
  pr_scale : int;
  pr_verdicts : verdict Marker.Map.t;
  pr_proved : int Marker.Map.t;
  pr_candidates : int;
  pr_summaries : (Binary.t * Sym.t Marker.Map.t) list;
}

let m_runs = Metrics.counter "analysis.runs"
let m_candidates = Metrics.counter "analysis.candidates"
let m_proved = Metrics.counter "analysis.proved_mappable"
let m_unmappable = Metrics.counter "analysis.proved_unmappable"
let m_undecided = Metrics.counter "analysis.needs_dynamic"

(* Source lines whose loop the binary's optimizer split: the original
   line survives only as [li_src_line] of mangled fragments. *)
let split_lines (binary : Binary.t) =
  Array.to_list binary.Binary.loops
  |> List.filter_map (fun (li : Binary.loop_info) ->
         if li.Binary.li_line < 0 then Some li.Binary.li_src_line else None)

let unrolls_line (binary : Binary.t) line =
  Array.exists
    (fun (li : Binary.loop_info) ->
      li.Binary.li_src_line = line && li.Binary.li_unroll > 1)
    binary.Binary.loops

let reason_for ~binaries key =
  match (key : Marker.key) with
  | Marker.Proc_entry name -> begin
    match
      List.find_opt (fun b -> List.mem name b.Binary.inlined) binaries
    with
    | Some b -> Symbol_erased (Config.label b.Binary.config)
    | None -> Count_divergence
  end
  | Marker.Loop_entry line | Marker.Loop_back line -> begin
    match
      List.find_opt (fun b -> List.mem line (split_lines b)) binaries
    with
    | Some b -> Line_split (Config.label b.Binary.config)
    | None ->
      let unrolled = List.exists (fun b -> unrolls_line b line) binaries in
      (match key with
      | Marker.Loop_back _ when unrolled -> Unroll_divergence
      | _ -> Count_divergence)
  end

let tally report =
  Marker.Map.fold
    (fun _ v (p, u, d) ->
      match v with
      | Proved_mappable _ -> (p + 1, u, d)
      | Proved_unmappable _ -> (p, u + 1, d)
      | Needs_dynamic -> (p, u, d + 1))
    report.pr_verdicts (0, 0, 0)

let prove ~binaries ~scale =
  if binaries = [] then invalid_arg "Prover.prove: no binaries";
  Tracer.with_span ~name:"prove" ~cat:"analysis"
    ~attrs:
      [ ("program",
         (List.hd binaries).Binary.program.Ast.prog_name);
        ("scale", string_of_int scale) ]
  @@ fun () ->
  let summaries = List.map (fun b -> (b, Absint.analyze_binary b)) binaries in
  let keys =
    List.fold_left
      (fun keys (_, s) ->
        Marker.Map.fold
          (fun key _ keys ->
            if Marker.is_mangled key then keys else Marker.Set.add key keys)
          s keys)
      Marker.Set.empty summaries
  in
  let verdicts = ref Marker.Map.empty in
  let proved = ref Marker.Map.empty in
  let candidates = ref 0 in
  Marker.Set.iter
    (fun key ->
      let bounds =
        List.map
          (fun (_, s) ->
            match Marker.Map.find_opt key s with
            | Some v -> Sym.eval v ~scale
            | None -> (0, 0))
          summaries
      in
      (* Not a candidate if no binary can emit the marker at this scale. *)
      if List.exists (fun (_, hi) -> hi > 0) bounds then begin
        incr candidates;
        let verdict =
          if List.for_all (fun (lo, hi) -> lo = hi) bounds then begin
            let v = fst (List.hd bounds) in
            if List.for_all (fun (lo, _) -> lo = v) bounds then
              (* All equal; v >= 1 because some upper bound is. *)
              Proved_mappable v
            else Proved_unmappable (reason_for ~binaries key)
          end
          else begin
            let disjoint =
              List.exists
                (fun (lo1, _) ->
                  List.exists (fun (_, hi2) -> hi2 < lo1) bounds)
                bounds
            in
            if disjoint then Proved_unmappable (reason_for ~binaries key)
            else Needs_dynamic
          end
        in
        verdicts := Marker.Map.add key verdict !verdicts;
        match verdict with
        | Proved_mappable v -> proved := Marker.Map.add key v !proved
        | Proved_unmappable _ | Needs_dynamic -> ()
      end)
    keys;
  let report =
    { pr_scale = scale; pr_verdicts = !verdicts; pr_proved = !proved;
      pr_candidates = !candidates; pr_summaries = summaries }
  in
  let n_proved, n_unmappable, n_undecided = tally report in
  Metrics.incr m_runs;
  Metrics.incr ~by:!candidates m_candidates;
  Metrics.incr ~by:n_proved m_proved;
  Metrics.incr ~by:n_unmappable m_unmappable;
  Metrics.incr ~by:n_undecided m_undecided;
  report

let residue report =
  Marker.Map.fold
    (fun key verdict acc ->
      match verdict with
      | Needs_dynamic -> Marker.Set.add key acc
      | Proved_mappable _ | Proved_unmappable _ -> acc)
    report.pr_verdicts Marker.Set.empty

let pp_reason ppf = function
  | Symbol_erased label -> Fmt.pf ppf "symbol erased by inlining in %s" label
  | Line_split label -> Fmt.pf ppf "source line split in %s" label
  | Unroll_divergence -> Fmt.string ppf "back-edge count diverges under unrolling"
  | Count_divergence -> Fmt.string ppf "execution counts diverge"

let pp_verdict ppf = function
  | Proved_mappable n -> Fmt.pf ppf "proved mappable (count %d)" n
  | Proved_unmappable r -> Fmt.pf ppf "proved unmappable: %a" pp_reason r
  | Needs_dynamic -> Fmt.string ppf "needs dynamic profiling"
