module Ast = Cbsp_source.Ast
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module SMap = Map.Make (String)

(* --- per-procedure summaries over the lowered IR ----------------------- *)

type bacc = {
  mutable ba_counts : Sym.t Marker.Map.t;
  mutable ba_insts : Sym.t;
  mutable ba_calls : Sym.t SMap.t;
}

let add_count map key v =
  Marker.Map.update key
    (function None -> Some v | Some w -> Some (Sym.add w v))
    map

let add_smap map name v =
  SMap.update name (function None -> Some v | Some w -> Some (Sym.add w v)) map

let rec bwalk acc m (stmt : Binary.mstmt) =
  match stmt with
  | Binary.MBlock b -> acc.ba_insts <- Sym.add acc.ba_insts (Sym.cmul b.Binary.mb_insts m)
  | Binary.MCall { mc_overhead; mc_target } ->
    acc.ba_insts <- Sym.add acc.ba_insts (Sym.cmul mc_overhead.Binary.mb_insts m);
    acc.ba_calls <- add_smap acc.ba_calls mc_target m
  | Binary.MSelect { ms_dispatch; ms_arms; _ } ->
    acc.ba_insts <- Sym.add acc.ba_insts (Sym.cmul ms_dispatch.Binary.mb_insts m);
    let m' = Sym.in_select ~arms:(Array.length ms_arms) m in
    Array.iter (List.iter (bwalk acc m')) ms_arms
  | Binary.MLoop l ->
    acc.ba_counts <- add_count acc.ba_counts (Marker.Loop_entry l.Binary.ml_line) m;
    acc.ba_insts <-
      Sym.add acc.ba_insts (Sym.cmul l.Binary.ml_header.Binary.mb_insts m);
    let trips = Sym.of_trips l.Binary.ml_trips in
    let m_body = Sym.mul m trips in
    List.iter (bwalk acc m_body) l.Binary.ml_body;
    (* One back-edge per machine iteration: ceil (trips / unroll) per
       entry (zero for zero-trip entries, which ceil_div preserves). *)
    let backs = Sym.mul m (Sym.ceil_div trips l.Binary.ml_unroll) in
    acc.ba_counts <- add_count acc.ba_counts (Marker.Loop_back l.Binary.ml_line) backs;
    acc.ba_insts <- Sym.add acc.ba_insts (Sym.cmul l.Binary.ml_backedge_insts backs)

let bsummarize body =
  let acc = { ba_counts = Marker.Map.empty; ba_insts = Sym.zero; ba_calls = SMap.empty } in
  List.iter (bwalk acc Sym.one) body;
  acc

(* --- propagating procedure execution counts over the call DAG ---------- *)

(* Callers before callees.  The call graph is acyclic (validated), so a
   reversed DFS post-order over the per-summary call edges works; roots
   are every procedure, so unreachable procedures still get an (all-zero)
   slot. *)
let topo_order ~names ~calls_of =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      SMap.iter (fun callee _ -> visit callee) (calls_of name);
      order := name :: !order
    end
  in
  List.iter visit names;
  !order

let exec_counts ~main ~names ~calls_of =
  let exec = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace exec name Sym.zero) names;
  Hashtbl.replace exec main Sym.one;
  List.iter
    (fun name ->
      let e = Hashtbl.find exec name in
      if not (Sym.is_zero e) then
        SMap.iter
          (fun callee per_exec ->
            Hashtbl.replace exec callee
              (Sym.add (Hashtbl.find exec callee) (Sym.mul e per_exec)))
          (calls_of name))
    (topo_order ~names ~calls_of);
  exec

(* --- binary analysis --------------------------------------------------- *)

type binary_summary = {
  bs_counts : Sym.t Marker.Map.t;
  bs_insts : Sym.t;
}

let analyze_binary (binary : Binary.t) =
  let main = binary.Binary.program.Ast.main in
  let psums = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace psums name (bsummarize (Binary.find_proc_body binary name)))
    binary.Binary.symbols;
  let calls_of name = (Hashtbl.find psums name).ba_calls in
  let exec = exec_counts ~main ~names:binary.Binary.symbols ~calls_of in
  List.fold_left
    (fun summary name ->
      let e = Hashtbl.find exec name in
      let psum = Hashtbl.find psums name in
      (* The procedure-entry marker fires once per call, plus once for
         main at run start — exactly its execution count. *)
      let counts = add_count summary.bs_counts (Marker.Proc_entry name) e in
      let counts =
        Marker.Map.fold
          (fun key per_exec counts -> add_count counts key (Sym.mul e per_exec))
          psum.ba_counts counts
      in
      { bs_counts = counts;
        bs_insts = Sym.add summary.bs_insts (Sym.mul e psum.ba_insts) })
    { bs_counts = Marker.Map.empty; bs_insts = Sym.zero }
    binary.Binary.symbols

(* --- source-program analysis ------------------------------------------- *)

module IMap = Map.Make (Int)

type loop_site = { lp_line : int; lp_trips : Ast.trips; lp_entries : Sym.t }
type select_site = { st_line : int; st_arms : int; st_execs : Sym.t }

type program_summary = {
  ps_loops : loop_site list;
  ps_selects : select_site list;
  ps_accesses : Sym.t array;
  ps_insts : Sym.t;
  ps_proc_execs : Sym.t SMap.t;
}

type pacc = {
  mutable pa_loops : (Ast.trips * Sym.t) IMap.t;
  mutable pa_selects : (int * Sym.t) IMap.t;
  mutable pa_accesses : Sym.t array;
  mutable pa_insts : Sym.t;
  mutable pa_calls : Sym.t SMap.t;
}

let rec pwalk acc m (stmt : Ast.stmt) =
  match stmt with
  | Ast.Work w ->
    acc.pa_insts <- Sym.add acc.pa_insts (Sym.cmul w.Ast.insts m);
    List.iter
      (fun a ->
        let i = a.Ast.acc_array in
        acc.pa_accesses.(i) <-
          Sym.add acc.pa_accesses.(i) (Sym.cmul a.Ast.acc_count m))
      w.Ast.accesses
  | Ast.Call { callee; _ } -> acc.pa_calls <- add_smap acc.pa_calls callee m
  | Ast.Loop l ->
    acc.pa_loops <-
      IMap.update l.Ast.loop_line
        (fun prev ->
          let prev_entries = match prev with Some (_, e) -> e | None -> Sym.zero in
          Some (l.Ast.trips, Sym.add prev_entries m))
        acc.pa_loops;
    let m_body = Sym.mul m (Sym.of_trips l.Ast.trips) in
    List.iter (pwalk acc m_body) l.Ast.body
  | Ast.Select s ->
    let arms = Array.length s.Ast.arms in
    acc.pa_selects <-
      IMap.update s.Ast.sel_line
        (fun prev ->
          let prev_execs = match prev with Some (_, e) -> e | None -> Sym.zero in
          Some (arms, Sym.add prev_execs m))
        acc.pa_selects;
    let m' = Sym.in_select ~arms m in
    Array.iter (List.iter (pwalk acc m')) s.Ast.arms

let analyze_program (program : Ast.program) =
  let n_arrays = Array.length program.Ast.arrays in
  let psummarize (proc : Ast.proc) =
    let acc =
      { pa_loops = IMap.empty; pa_selects = IMap.empty;
        pa_accesses = Array.make n_arrays Sym.zero; pa_insts = Sym.zero;
        pa_calls = SMap.empty }
    in
    List.iter (pwalk acc Sym.one) proc.Ast.proc_body;
    acc
  in
  let psums = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace psums p.Ast.proc_name (psummarize p))
    program.Ast.procs;
  let names = List.map (fun p -> p.Ast.proc_name) program.Ast.procs in
  let calls_of name = (Hashtbl.find psums name).pa_calls in
  let exec = exec_counts ~main:program.Ast.main ~names ~calls_of in
  let loops = ref IMap.empty in
  let selects = ref IMap.empty in
  let accesses = Array.make n_arrays Sym.zero in
  let insts = ref Sym.zero in
  let proc_execs = ref SMap.empty in
  List.iter
    (fun name ->
      let e = Hashtbl.find exec name in
      let psum = Hashtbl.find psums name in
      IMap.iter
        (fun line (trips, entries) ->
          loops :=
            IMap.update line
              (fun prev ->
                let prev_entries =
                  match prev with Some (_, p) -> p | None -> Sym.zero
                in
                Some (trips, Sym.add prev_entries (Sym.mul e entries)))
              !loops)
        psum.pa_loops;
      IMap.iter
        (fun line (arms, execs) ->
          selects :=
            IMap.update line
              (fun prev ->
                let prev_execs =
                  match prev with Some (_, p) -> p | None -> Sym.zero
                in
                Some (arms, Sym.add prev_execs (Sym.mul e execs)))
              !selects)
        psum.pa_selects;
      Array.iteri
        (fun i v -> accesses.(i) <- Sym.add accesses.(i) (Sym.mul e v))
        psum.pa_accesses;
      insts := Sym.add !insts (Sym.mul e psum.pa_insts);
      proc_execs := SMap.add name e !proc_execs)
    names;
  { ps_loops =
      IMap.fold
        (fun line (trips, entries) acc ->
          { lp_line = line; lp_trips = trips; lp_entries = entries } :: acc)
        !loops []
      |> List.rev;
    ps_selects =
      IMap.fold
        (fun line (arms, execs) acc ->
          { st_line = line; st_arms = arms; st_execs = execs } :: acc)
        !selects []
      |> List.rev;
    ps_accesses = accesses;
    ps_insts = !insts;
    ps_proc_execs = !proc_execs }
