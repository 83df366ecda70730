module Ast = Cbsp_source.Ast
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module SMap = Map.Make (String)

(* --- per-procedure summaries over the lowered IR ----------------------- *)

type bacc = {
  mutable ba_counts : Sym.t Marker.Map.t;
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
  | Binary.MBlock _ -> ()
  | Binary.MCall { mc_target; _ } -> acc.ba_calls <- add_smap acc.ba_calls mc_target m
  | Binary.MSelect { ms_arms; _ } ->
    let m' = Sym.in_select ~arms:(Array.length ms_arms) m in
    Array.iter (List.iter (bwalk acc m')) ms_arms
  | Binary.MLoop l ->
    acc.ba_counts <- add_count acc.ba_counts (Marker.Loop_entry l.Binary.ml_line) m;
    let trips = Sym.of_trips l.Binary.ml_trips in
    let m_body = Sym.mul m trips in
    List.iter (bwalk acc m_body) l.Binary.ml_body;
    (* One back-edge per machine iteration: ceil (trips / unroll) per
       entry (zero for zero-trip entries, which ceil_div preserves). *)
    let backs = Sym.mul m (Sym.ceil_div trips l.Binary.ml_unroll) in
    acc.ba_counts <- add_count acc.ba_counts (Marker.Loop_back l.Binary.ml_line) backs

let bsummarize body =
  let acc = { ba_counts = Marker.Map.empty; ba_calls = SMap.empty } in
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
    (fun counts name ->
      let e = Hashtbl.find exec name in
      (* The procedure-entry marker fires once per call, plus once for
         main at run start — exactly its execution count. *)
      Marker.Map.fold
        (fun key per_exec counts -> add_count counts key (Sym.mul e per_exec))
        (Hashtbl.find psums name).ba_counts
        (add_count counts (Marker.Proc_entry name) e))
    Marker.Map.empty binary.Binary.symbols
