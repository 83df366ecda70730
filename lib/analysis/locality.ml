module Ast = Cbsp_source.Ast
module Binary = Cbsp_compiler.Binary
module Layout = Cbsp_compiler.Layout
module Costmodel = Cbsp_compiler.Costmodel
module Hierarchy = Cbsp_cache.Hierarchy
module Metrics = Cbsp_obs.Metrics
module SMap = Absint.SMap

type klass =
  | Compute
  | Streaming
  | Random
  | Pointer_chase
  | Stack_local
  | Mixed

let klass_name = function
  | Compute -> "compute"
  | Streaming -> "streaming"
  | Random -> "random"
  | Pointer_chase -> "pointer-chase"
  | Stack_local -> "stack-local"
  | Mixed -> "mixed"

type region = {
  rg_proc : string;
  rg_line : int option;
  rg_klass : klass;
  rg_insts : int * int;
  rg_accesses : int * int;
  rg_footprint : int;
  rg_hit_level : string;
  rg_cpi_lo : float;
  rg_cpi_hi : float;
}

type report = {
  lc_workload : string;
  lc_scale : int;
  lc_config : Hierarchy.config;
  lc_regions : region list;
  lc_insts : int * int;
  lc_accesses : int * int;
  lc_cold_granules : int;
  lc_touched_bytes : int;
  lc_fit_level : string option;
  lc_cpi_lo : float;
  lc_cpi_hi : float;
}

let m_runs = Metrics.counter "locality.runs"
let m_regions = Metrics.counter "locality.regions"
let m_dram = Metrics.counter "locality.dram_bound"
let m_chase = Metrics.counter "locality.chase"

(* --- symbolic access accounting over the lowered IR -------------------- *)

(* One accumulator per region: symbolic instruction count, access counts
   by stride/dependence class, and per-array access counts.  [c_seq1] and
   [c_seqx] split Seq traffic by stride so the cold-sweep proof below can
   tell "provably walks 0,1,2,..." from "moves the shared cursor some
   other way". *)
type acc = {
  mutable c_insts : Sym.t;
  mutable c_seq : Sym.t;
  mutable c_rand : Sym.t;
  mutable c_chase : Sym.t;
  mutable c_spill : Sym.t;
  c_arrays : Sym.t array;
  c_seq1 : Sym.t array;
  c_seqx : Sym.t array;
}

let fresh_acc n =
  { c_insts = Sym.zero; c_seq = Sym.zero; c_rand = Sym.zero;
    c_chase = Sym.zero; c_spill = Sym.zero;
    c_arrays = Array.make n Sym.zero; c_seq1 = Array.make n Sym.zero;
    c_seqx = Array.make n Sym.zero }

let add_block acc m (b : Binary.mblock) =
  acc.c_insts <- Sym.add acc.c_insts (Sym.cmul b.Binary.mb_insts m);
  List.iter
    (fun (a : Ast.access) ->
      let c = Sym.cmul a.Ast.acc_count m in
      let i = a.Ast.acc_array in
      acc.c_arrays.(i) <- Sym.add acc.c_arrays.(i) c;
      match a.Ast.acc_pattern with
      | Ast.Seq { stride } ->
        acc.c_seq <- Sym.add acc.c_seq c;
        if stride = 1 then acc.c_seq1.(i) <- Sym.add acc.c_seq1.(i) c
        else acc.c_seqx.(i) <- Sym.add acc.c_seqx.(i) c
      | Ast.Rand | Ast.Hot _ -> acc.c_rand <- Sym.add acc.c_rand c
      | Ast.Chase -> acc.c_chase <- Sym.add acc.c_chase c)
    b.Binary.mb_accesses;
  if b.Binary.mb_spills > 0 then
    acc.c_spill <- Sym.add acc.c_spill (Sym.cmul b.Binary.mb_spills m)

(* Mirrors Absint.bwalk's multiplier discipline exactly (of_trips widens
   Jitter, in_select widens arms, ceil_div bounds unrolled back-edges),
   so these counts inherit the prover's machine-checked soundness. *)
let rec walk acc m (stmt : Binary.mstmt) =
  match stmt with
  | Binary.MBlock b -> add_block acc m b
  | Binary.MCall { mc_overhead; _ } -> add_block acc m mc_overhead
  | Binary.MSelect { ms_dispatch; ms_arms; _ } ->
    add_block acc m ms_dispatch;
    let m' = Sym.in_select ~arms:(Array.length ms_arms) m in
    Array.iter (List.iter (walk acc m')) ms_arms
  | Binary.MLoop l ->
    add_block acc m l.Binary.ml_header;
    let trips = Sym.of_trips l.Binary.ml_trips in
    let m_body = Sym.mul m trips in
    List.iter (walk acc m_body) l.Binary.ml_body;
    let backs = Sym.mul m (Sym.ceil_div trips l.Binary.ml_unroll) in
    acc.c_insts <-
      Sym.add acc.c_insts (Sym.cmul l.Binary.ml_backedge_insts backs)

(* Regions of one procedure: each top-level loop is a region (nested
   loops stay inside it), everything else pools into the straight-line
   remainder.  [e] is the procedure's symbolic execution count. *)
let proc_regions ~n_arrays ~e body =
  let remainder = fresh_acc n_arrays in
  let regions =
    List.filter_map
      (function
        | Binary.MLoop l as stmt ->
          let acc = fresh_acc n_arrays in
          walk acc e stmt;
          Some (Some l.Binary.ml_src_line, acc)
        | stmt ->
          walk remainder e stmt;
          None)
      body
  in
  regions @ [ (None, remainder) ]

(* --- geometry ---------------------------------------------------------- *)

(* Distinct line granules of size [g] a full 0..len-1 element sweep
   touches.  Accesses are single addresses at element starts: elements
   wider than a granule each land in their own granule; narrower ones
   step through every granule of the span. *)
let sweep_granules ~base ~len ~eb ~g =
  if len <= 0 then 0
  else if eb >= g then len
  else ((base + ((len - 1) * eb)) / g) - (base / g) + 1

(* Line-granules that could hold ANY element-start address of the array:
   the same span, viewed at an arbitrary line size. *)
let span_lines ~base ~len ~eb ~line =
  if len <= 0 then 0
  else ((base + ((len - 1) * eb)) / line) - (base / line) + 1

(* Longest chain of non-inlined calls from a procedure: bounds the spill
   stack's frame depth.  The call graph is acyclic for validated
   programs; the memo's 0 placeholder keeps even a malformed input
   terminating. *)
let max_call_depth (binary : Binary.t) =
  let memo = Hashtbl.create 8 in
  let rec depth_of name =
    match Hashtbl.find_opt memo name with
    | Some d -> d
    | None ->
      Hashtbl.replace memo name 0;
      let rec stmt_depth = function
        | Binary.MBlock _ -> 0
        | Binary.MCall { mc_target; _ } -> 1 + depth_of mc_target
        | Binary.MSelect { ms_arms; _ } ->
          Array.fold_left
            (fun a arm -> List.fold_left (fun a s -> max a (stmt_depth s)) a arm)
            0 ms_arms
        | Binary.MLoop l ->
          List.fold_left (fun a s -> max a (stmt_depth s)) 0 l.Binary.ml_body
      in
      let d =
        match Binary.find_proc_body binary name with
        | body -> List.fold_left (fun a s -> max a (stmt_depth s)) 0 body
        | exception Not_found -> 0
      in
      Hashtbl.replace memo name d;
      d
  in
  depth_of binary.Binary.program.Ast.main

(* --- classification ---------------------------------------------------- *)

let classify ~seq ~rand ~chase ~spill =
  let total = seq + rand + chase + spill in
  if total = 0 then Compute
  else begin
    let k, v =
      List.fold_left
        (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
        (Compute, -1)
        [ (Streaming, seq); (Random, rand); (Pointer_chase, chase);
          (Stack_local, spill) ]
    in
    if 2 * v >= total then k else Mixed
  end

let hit_level_name (config : Hierarchy.config) footprint =
  let rec find = function
    | [] -> "DRAM"
    | (lv : Hierarchy.level_config) :: rest ->
      if lv.Hierarchy.lv_capacity >= footprint then lv.Hierarchy.lv_name
      else find rest
  in
  find config.Hierarchy.levels

(* --- the analysis ------------------------------------------------------ *)

let analyze ?(config = Hierarchy.paper_table1) (binary : Binary.t) ~scale =
  if scale < 0 then invalid_arg "Locality.analyze: negative scale";
  let layout = binary.Binary.layout in
  let n_arrays = Layout.n_arrays layout in
  let summary = Absint.analyze_binary binary in
  let levels = config.Hierarchy.levels in
  let dram = config.Hierarchy.dram_latency in
  let lat_min =
    List.fold_left
      (fun a (lv : Hierarchy.level_config) -> min a lv.Hierarchy.lv_latency)
      dram levels
  in
  let cost_max =
    List.fold_left
      (fun a (lv : Hierarchy.level_config) -> max a lv.Hierarchy.lv_latency)
      dram levels
  in
  (* Granule for first-touch arguments: the largest line in the
     hierarchy.  Lines are power-of-two sized and aligned, so any
     smaller level line containing an address sits inside the granule
     containing it — an untouched granule therefore misses everywhere. *)
  let granule =
    List.fold_left
      (fun a (lv : Hierarchy.level_config) -> max a lv.Hierarchy.lv_line)
      1 levels
  in
  (* Per-proc regions, scaled by the prover-grade execution counts. *)
  let regions_raw =
    List.concat_map
      (fun name ->
        let e =
          match SMap.find_opt name summary.Absint.bs_proc_execs with
          | Some e -> e
          | None -> Sym.zero
        in
        List.map
          (fun (line, acc) -> (name, line, acc))
          (proc_regions ~n_arrays ~e (Binary.find_proc_body binary name)))
      binary.Binary.symbols
  in
  (* Program-level per-array totals and the sweep-proof ledgers. *)
  let arr_total = Array.make n_arrays Sym.zero in
  let arr_seq1 = Array.make n_arrays Sym.zero in
  let arr_seqx = Array.make n_arrays Sym.zero in
  let spill_total = ref Sym.zero in
  List.iter
    (fun (_, _, acc) ->
      for i = 0 to n_arrays - 1 do
        arr_total.(i) <- Sym.add arr_total.(i) acc.c_arrays.(i);
        arr_seq1.(i) <- Sym.add arr_seq1.(i) acc.c_seq1.(i);
        arr_seqx.(i) <- Sym.add arr_seqx.(i) acc.c_seqx.(i)
      done;
      spill_total := Sym.add !spill_total acc.c_spill)
    regions_raw;
  let access_sym =
    Array.fold_left (fun s a -> Sym.add s a) !spill_total arr_total
  in
  let a_lo, a_hi = Sym.eval access_sym ~scale in
  let i_lo, i_hi = Sym.eval summary.Absint.bs_insts ~scale in
  let spill_lo, spill_hi = Sym.eval !spill_total ~scale in
  ignore spill_lo;
  (* Spill stack geometry. *)
  let stack_base = Layout.stack_addr layout ~depth:0 ~slot:0 in
  let stack_span =
    (max_call_depth binary + 1) * Costmodel.frame_bytes
  in
  (* Cold-miss floor: arrays provably swept with unit stride touch every
     granule of their span, and each first granule touch costs exactly
     the DRAM latency against cold caches. *)
  let cold_granules = ref 0 in
  for i = 0 to n_arrays - 1 do
    let len = Layout.array_length layout ~array_id:i in
    let eb = Layout.array_elem_bytes layout ~array_id:i in
    let base = Layout.array_base layout ~array_id:i in
    let _, seqx_hi = Sym.eval arr_seqx.(i) ~scale in
    let seq1_lo, _ = Sym.eval arr_seq1.(i) ~scale in
    if seqx_hi = 0 && seq1_lo >= len && len > 0 then
      cold_granules := !cold_granules + sweep_granules ~base ~len ~eb ~g:granule
  done;
  let cold_granules = !cold_granules in
  (* Everything the run can possibly touch: arrays with a non-zero access
     upper bound, plus the spill stack.  [touched] feeds both the
     conflict-free fit proof and the reported touched-bytes bound. *)
  let touched =
    let arrays =
      List.filter_map
        (fun i ->
          let _, hi = Sym.eval arr_total.(i) ~scale in
          if hi = 0 then None
          else
            Some
              ( Layout.array_base layout ~array_id:i,
                Layout.array_length layout ~array_id:i,
                Layout.array_elem_bytes layout ~array_id:i ))
        (List.init n_arrays Fun.id)
    in
    if spill_hi > 0 then
      (* The stack region as a pseudo-array of 1-byte elements. *)
      arrays @ [ (stack_base, stack_span, 1) ]
    else arrays
  in
  let touched_bytes =
    List.fold_left (fun a (_, len, eb) -> a + (len * eb)) 0 touched
  in
  (* Conflict-free fit level: consecutive lines round-robin over a
     level's sets, so a span of L lines occupies at most ceil (L / sets)
     ways of any one set.  If all touched spans fit together, the level
     never evicts and every line misses it at most once.  The argument
     needs every faster level's line to be no larger than this level's
     (first granule touches must actually reach it) — true for the
     uniform-line Table 1 and checked, not assumed. *)
  let fit =
    let rec scan seen_lines lat_cap = function
      | [] -> None
      | (lv : Hierarchy.level_config) :: rest ->
        let line = lv.Hierarchy.lv_line in
        let lat_cap = max lat_cap lv.Hierarchy.lv_latency in
        let sets = lv.Hierarchy.lv_capacity / (lv.Hierarchy.lv_assoc * line) in
        let lines_ok = List.for_all (fun l -> l <= line) seen_lines in
        if lines_ok && sets >= 1 then begin
          let demand =
            List.fold_left
              (fun a (base, len, eb) ->
                let l = span_lines ~base ~len ~eb ~line in
                a + ((l + sets - 1) / sets))
              0 touched
          in
          if demand <= lv.Hierarchy.lv_assoc then
            let d_hi =
              List.fold_left
                (fun a (base, len, eb) -> a + span_lines ~base ~len ~eb ~line)
                0 touched
            in
            Some (lv.Hierarchy.lv_name, lat_cap, d_hi)
          else scan (line :: seen_lines) lat_cap rest
        end
        else scan (line :: seen_lines) lat_cap rest
    in
    scan [] 0 levels
  in
  let stall_lo =
    (float_of_int lat_min *. float_of_int a_lo)
    +. (float_of_int (dram - lat_min) *. float_of_int cold_granules)
  in
  let stall_hi =
    match fit with
    | Some (_, lat_cap, d_hi) ->
      (float_of_int cost_max *. float_of_int (min a_hi d_hi))
      +. (float_of_int lat_cap *. float_of_int (max 0 (a_hi - d_hi)))
    | None -> float_of_int cost_max *. float_of_int a_hi
  in
  let cpi_lo =
    if i_hi = 0 then 1.0 else 1.0 +. (stall_lo /. float_of_int i_hi)
  in
  let cpi_hi =
    if a_hi = 0 then 1.0
    else if i_lo = 0 then infinity
    else 1.0 +. (stall_hi /. float_of_int i_lo)
  in
  (* Per-region reporting: coarse but sound per-access cost bounds, plus
     the footprint-predicted dominant hit level. *)
  let regions =
    List.filter_map
      (fun (proc, line, acc) ->
        let ri_lo, ri_hi = Sym.eval acc.c_insts ~scale in
        let racc_sym =
          Array.fold_left (fun s a -> Sym.add s a) acc.c_spill acc.c_arrays
        in
        let ra_lo, ra_hi = Sym.eval racc_sym ~scale in
        if ri_hi = 0 && ra_hi = 0 then None
        else begin
          let _, seq_hi = Sym.eval acc.c_seq ~scale in
          let _, rand_hi = Sym.eval acc.c_rand ~scale in
          let _, chase_hi = Sym.eval acc.c_chase ~scale in
          let _, rspill_hi = Sym.eval acc.c_spill ~scale in
          let klass =
            classify ~seq:seq_hi ~rand:rand_hi ~chase:chase_hi ~spill:rspill_hi
          in
          let footprint =
            let arrays =
              List.fold_left
                (fun a i ->
                  let _, hi = Sym.eval acc.c_arrays.(i) ~scale in
                  if hi = 0 then a
                  else
                    let len = Layout.array_length layout ~array_id:i in
                    let eb = Layout.array_elem_bytes layout ~array_id:i in
                    a + min (len * eb) (hi * granule))
                0
                (List.init n_arrays Fun.id)
            in
            if rspill_hi > 0 then
              arrays + min stack_span (rspill_hi * granule)
            else arrays
          in
          let rg_cpi_lo =
            if ri_hi = 0 then 1.0
            else
              1.0
              +. (float_of_int lat_min *. float_of_int ra_lo
                  /. float_of_int ri_hi)
          in
          let rg_cpi_hi =
            if ra_hi = 0 then 1.0
            else if ri_lo = 0 then infinity
            else
              1.0
              +. (float_of_int cost_max *. float_of_int ra_hi
                  /. float_of_int ri_lo)
          in
          Some
            { rg_proc = proc; rg_line = line; rg_klass = klass;
              rg_insts = (ri_lo, ri_hi); rg_accesses = (ra_lo, ra_hi);
              rg_footprint = footprint;
              rg_hit_level = hit_level_name config footprint;
              rg_cpi_lo; rg_cpi_hi }
        end)
      regions_raw
  in
  Metrics.incr m_runs;
  Metrics.incr ~by:(List.length regions) m_regions;
  Metrics.incr
    ~by:
      (List.length (List.filter (fun r -> r.rg_hit_level = "DRAM") regions))
    m_dram;
  Metrics.incr
    ~by:
      (List.length (List.filter (fun r -> r.rg_klass = Pointer_chase) regions))
    m_chase;
  { lc_workload = binary.Binary.program.Ast.prog_name;
    lc_scale = scale;
    lc_config = config;
    lc_regions = regions;
    lc_insts = (i_lo, i_hi);
    lc_accesses = (a_lo, a_hi);
    lc_cold_granules = cold_granules;
    lc_touched_bytes = touched_bytes;
    lc_fit_level = (match fit with Some (name, _, _) -> Some name | None -> None);
    lc_cpi_lo = cpi_lo;
    lc_cpi_hi = cpi_hi }

(* --- pretty printing --------------------------------------------------- *)

let pp_region ppf r =
  let line = match r.rg_line with Some l -> string_of_int l | None -> "-" in
  Fmt.pf ppf "%-12s line %-4s %-13s insts [%d, %d] accesses [%d, %d] \
              footprint %dB -> %s cpi [%.3f, %s]"
    r.rg_proc line (klass_name r.rg_klass) (fst r.rg_insts) (snd r.rg_insts)
    (fst r.rg_accesses) (snd r.rg_accesses) r.rg_footprint r.rg_hit_level
    r.rg_cpi_lo
    (if r.rg_cpi_hi = infinity then "inf" else Fmt.str "%.3f" r.rg_cpi_hi)

let pp_report ppf t =
  Fmt.pf ppf "locality %s @@ scale %d: %d regions, insts [%d, %d], \
              accesses [%d, %d]@."
    t.lc_workload t.lc_scale (List.length t.lc_regions) (fst t.lc_insts)
    (snd t.lc_insts) (fst t.lc_accesses) (snd t.lc_accesses);
  List.iter (fun r -> Fmt.pf ppf "  %a@." pp_region r) t.lc_regions;
  Fmt.pf ppf "  cold granules %d, touched %dB, fit level %s@."
    t.lc_cold_granules t.lc_touched_bytes
    (match t.lc_fit_level with Some l -> l | None -> "none");
  Fmt.pf ppf "  CPI bracket [%.4f, %s]@." t.lc_cpi_lo
    (if t.lc_cpi_hi = infinity then "inf" else Fmt.str "%.4f" t.lc_cpi_hi)
