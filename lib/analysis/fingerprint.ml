module Ast = Cbsp_source.Ast
module Marker = Cbsp_compiler.Marker
module Binary = Cbsp_compiler.Binary
module SSet = Set.Make (String)

(* --- fingerprints ------------------------------------------------------ *)

type mix = {
  mx_reads : int;
  mx_writes : int;
  mx_seq : int;
  mx_rand : int;
  mx_chase : int;
  mx_hot : int;
  mx_stride : int;
}

type t = {
  fp_trips : Sym.t;
  fp_entries : Sym.t;
  fp_depth : int;
  fp_sibling : int;
  fp_insts : int;
  fp_loops : int;
  fp_mix : mix;
}

let mix_zero =
  { mx_reads = 0; mx_writes = 0; mx_seq = 0; mx_rand = 0; mx_chase = 0;
    mx_hot = 0; mx_stride = 0 }

type sub_acc = { mutable sa_insts : int; mutable sa_loops : int; mutable sa_mix : mix }

let add_access acc (a : Ast.access) =
  let writes =
    int_of_float (Float.round (a.Ast.acc_write_ratio *. float_of_int a.Ast.acc_count))
  in
  let m = acc.sa_mix in
  let m = { m with mx_reads = m.mx_reads + a.Ast.acc_count - writes;
                   mx_writes = m.mx_writes + writes } in
  acc.sa_mix <-
    (match a.Ast.acc_pattern with
    | Ast.Seq { stride } ->
      { m with mx_seq = m.mx_seq + a.Ast.acc_count;
               mx_stride = m.mx_stride + stride }
    | Ast.Rand -> { m with mx_rand = m.mx_rand + a.Ast.acc_count }
    | Ast.Chase -> { m with mx_chase = m.mx_chase + a.Ast.acc_count }
    | Ast.Hot _ -> { m with mx_hot = m.mx_hot + a.Ast.acc_count })

let add_block acc (b : Binary.mblock) =
  acc.sa_insts <- acc.sa_insts + b.Binary.mb_insts;
  List.iter (add_access acc) b.Binary.mb_accesses

(* Static subtree summary.  Calls are followed into the callee body (the
   call graph is acyclic), so an out-of-line O0 loop and its inlined O2
   copy fold the same work and stay comparable. *)
let rec sub_stmt binary acc (stmt : Binary.mstmt) =
  match stmt with
  | Binary.MBlock b -> add_block acc b
  | Binary.MCall { mc_overhead; mc_target } ->
    add_block acc mc_overhead;
    List.iter (sub_stmt binary acc) (Binary.find_proc_body binary mc_target)
  | Binary.MSelect { ms_dispatch; ms_arms; _ } ->
    add_block acc ms_dispatch;
    Array.iter (List.iter (sub_stmt binary acc)) ms_arms
  | Binary.MLoop l ->
    acc.sa_loops <- acc.sa_loops + 1;
    add_block acc l.Binary.ml_header;
    acc.sa_insts <- acc.sa_insts + l.Binary.ml_backedge_insts;
    List.iter (sub_stmt binary acc) l.Binary.ml_body

let fingerprint_of binary ~counts ~depth ~sibling (l : Binary.mloop) =
  let acc = { sa_insts = 0; sa_loops = 0; sa_mix = mix_zero } in
  add_block acc l.Binary.ml_header;
  acc.sa_insts <- acc.sa_insts + l.Binary.ml_backedge_insts;
  List.iter (sub_stmt binary acc) l.Binary.ml_body;
  let entries =
    match Marker.Map.find_opt (Marker.Loop_entry l.Binary.ml_line) counts with
    | Some v -> v
    | None -> Sym.zero
  in
  { fp_trips = Sym.of_trips l.Binary.ml_trips; fp_entries = entries;
    fp_depth = depth; fp_sibling = sibling; fp_insts = acc.sa_insts;
    fp_loops = acc.sa_loops; fp_mix = acc.sa_mix }

(* --- similarity -------------------------------------------------------- *)

let sim_sym ~scale a b =
  if Poly.equal a.Sym.lo b.Sym.lo && Poly.equal a.Sym.hi b.Sym.hi then 1.0
  else begin
    let mid s =
      let lo, hi = Sym.eval s ~scale in
      0.5 *. (float_of_int lo +. float_of_int hi)
    in
    let ma = mid a and mb = mid b in
    if ma = 0.0 && mb = 0.0 then 0.9
    else
      let d = Float.abs (ma -. mb) /. Float.max (Float.abs ma) (Float.abs mb) in
      Float.max 0.0 (0.9 -. 4.0 *. d)
  end

let mix_vec m =
  [| float_of_int m.mx_reads; float_of_int m.mx_writes; float_of_int m.mx_seq;
     float_of_int m.mx_rand; float_of_int m.mx_chase; float_of_int m.mx_hot;
     float_of_int m.mx_stride |]

(* Cosine: magnitude-free, so a fission fragment's mix (a subset of the
   original body) still points the same way as the whole. *)
let sim_mix a b =
  let va = mix_vec a and vb = mix_vec b in
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i x ->
      dot := !dot +. (x *. vb.(i));
      na := !na +. (x *. x);
      nb := !nb +. (vb.(i) *. vb.(i)))
    va;
  if !na = 0.0 && !nb = 0.0 then 1.0
  else if !na = 0.0 || !nb = 0.0 then 0.0
  else !dot /. (sqrt !na *. sqrt !nb)

let ratio a b = if a = 0 && b = 0 then 1.0 else float_of_int (min a b) /. float_of_int (max a b)

let sim_shape a b =
  (0.5 *. ratio a.fp_insts b.fp_insts)
  +. (0.25 *. ratio (a.fp_loops + 1) (b.fp_loops + 1))
  +. (0.25 /. (1.0 +. float_of_int (abs (a.fp_depth - b.fp_depth))))

let similarity ~scale a b =
  (0.3 *. sim_sym ~scale a.fp_trips b.fp_trips)
  +. (0.3 *. sim_sym ~scale a.fp_entries b.fp_entries)
  +. (0.2 *. sim_mix a.fp_mix b.fp_mix)
  +. (0.2 *. sim_shape a b)

let default_threshold = 0.8

(* --- the per-binary site walk ------------------------------------------ *)

type site = {
  st_line : int;  (* ml_line; negative = mangled *)
  st_proc : string;
  st_fragment : int;  (* index in its fission run; 0 for plain loops *)
  mutable st_prefix : bool;  (* order-safe position *)
  st_order : int;  (* pre-order rank, deterministic tie-break *)
  st_fp : t;
}

type walk = { wk_sites : site list; wk_demoted : Marker.Set.t }

let direct_callees body =
  let acc = ref SSet.empty in
  let rec visit (stmt : Binary.mstmt) =
    match stmt with
    | Binary.MBlock _ -> ()
    | Binary.MCall { mc_target; _ } -> acc := SSet.add mc_target !acc
    | Binary.MSelect { ms_arms; _ } -> Array.iter (List.iter visit) ms_arms
    | Binary.MLoop l -> List.iter visit l.Binary.ml_body
  in
  List.iter visit body;
  !acc

let sites_of ~counts (binary : Binary.t) =
  let order = ref 0 in
  let sites = ref [] in
  let sibling = ref 0 in
  (* Procedures whose entries a non-prefix fragment displaces. *)
  let displaced = ref SSet.empty in
  let rec walk_stmts ~proc ~depth ~prefix stmts =
    match stmts with
    | [] -> ()
    | Binary.MLoop l :: _
      when l.Binary.ml_line < 0 && l.Binary.ml_split_arity > 1 ->
      (* A fission run: [ml_split_arity] consecutive fragments of one
         source loop.  Only fragment 0 keeps the order-safe prefix. *)
      let arity = l.Binary.ml_split_arity in
      let rec fragments k stmts =
        match stmts with
        | Binary.MLoop f :: rest when k < arity ->
          visit_loop ~proc ~depth ~prefix:(prefix && k = 0) ~fragment:k f;
          fragments (k + 1) rest
        | rest -> walk_stmts ~proc ~depth ~prefix rest
      in
      fragments 0 stmts
    | stmt :: rest ->
      (match stmt with
      | Binary.MBlock _ -> ()
      | Binary.MCall { mc_target; _ } ->
        if not prefix then displaced := SSet.add mc_target !displaced
      | Binary.MSelect { ms_arms; _ } ->
        Array.iter (walk_stmts ~proc ~depth ~prefix) ms_arms
      | Binary.MLoop l -> visit_loop ~proc ~depth ~prefix ~fragment:0 l);
      walk_stmts ~proc ~depth ~prefix rest
  and visit_loop ~proc ~depth ~prefix ~fragment (l : Binary.mloop) =
    let fp = fingerprint_of binary ~counts ~depth ~sibling:!sibling l in
    incr sibling;
    sites :=
      { st_line = l.Binary.ml_line; st_proc = proc; st_fragment = fragment;
        st_prefix = prefix; st_order = !order; st_fp = fp }
      :: !sites;
    incr order;
    walk_stmts ~proc ~depth:(depth + 1) ~prefix l.Binary.ml_body
  in
  List.iter
    (fun name ->
      sibling := 0;
      walk_stmts ~proc:name ~depth:0 ~prefix:true
        (Binary.find_proc_body binary name))
    binary.Binary.symbols;
  (* Close displacement over the call graph: a procedure called from a
     displaced one runs inside the displaced phase too. *)
  let callees = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace callees name (direct_callees (Binary.find_proc_body binary name)))
    binary.Binary.symbols;
  let rec close acc name =
    if SSet.mem name acc then acc
    else
      SSet.fold
        (fun callee acc -> close acc callee)
        (try Hashtbl.find callees name with Not_found -> SSet.empty)
        (SSet.add name acc)
  in
  let displaced = SSet.fold (fun name acc -> close acc name) !displaced SSet.empty in
  (* Sites inside displaced procedures lose their prefix position, and
     every exactly-matchable key of a displaced procedure is demoted. *)
  let demoted = ref Marker.Set.empty in
  List.iter
    (fun s ->
      if SSet.mem s.st_proc displaced then begin
        s.st_prefix <- false;
        if s.st_line >= 0 then begin
          demoted := Marker.Set.add (Marker.Loop_entry s.st_line) !demoted;
          demoted := Marker.Set.add (Marker.Loop_back s.st_line) !demoted
        end
      end)
    !sites;
  SSet.iter
    (fun name -> demoted := Marker.Set.add (Marker.Proc_entry name) !demoted)
    displaced;
  { wk_sites = List.rev !sites; wk_demoted = !demoted }

(* --- recovery ---------------------------------------------------------- *)

type pair = {
  pr_key : Marker.key;
  pr_count : int;
  pr_score : float;
  pr_cuttable : bool;
  pr_locals : Marker.key array;
}

type recovery = {
  rc_scale : int;
  rc_threshold : float;
  rc_lost : Marker.Set.t;
  rc_pairs : pair list;
  rc_demoted : Marker.Set.t;
}

let lost_of (report : Prover.report) =
  Marker.Map.fold
    (fun key verdict acc ->
      match (verdict, key) with
      | ( Prover.Proved_unmappable (Prover.Line_split _),
          (Marker.Loop_entry _ | Marker.Loop_back _) ) ->
        Marker.Set.add key acc
      | _ -> acc)
    report.Prover.pr_verdicts Marker.Set.empty

let line_of = function
  | Marker.Loop_entry line | Marker.Loop_back line -> line
  | Marker.Proc_entry _ -> invalid_arg "Fingerprint.line_of"

(* The local key naming the canonical [key] in a binary whose loop line
   is [local_line] (identity when the line survived). *)
let localize key local_line =
  match key with
  | Marker.Loop_entry _ -> Marker.Loop_entry local_line
  | Marker.Loop_back _ -> Marker.Loop_back local_line
  | Marker.Proc_entry _ -> key

let recover ?(threshold = default_threshold) (report : Prover.report) =
  let scale = report.Prover.pr_scale in
  let lost = lost_of report in
  if Marker.Set.is_empty lost then
    { rc_scale = scale; rc_threshold = threshold; rc_lost = lost;
      rc_pairs = []; rc_demoted = Marker.Set.empty }
  else begin
    let bins = Array.of_list report.Prover.pr_summaries in
    let n = Array.length bins in
    let walks =
      Array.map (fun (b, counts) -> sites_of ~counts b) bins
    in
    let demoted =
      Array.fold_left
        (fun acc w -> Marker.Set.union acc w.wk_demoted)
        Marker.Set.empty walks
    in
    let used = Array.make n Marker.Set.empty in
    let lines =
      Marker.Set.fold
        (fun key acc ->
          let line = line_of key in
          if List.mem line acc then acc else line :: acc)
        lost []
      |> List.sort compare
    in
    let decided_count j key =
      match Marker.Map.find_opt key (snd bins.(j)) with
      | None -> None
      | Some v -> Sym.decided_at v ~scale
    in
    let pairs =
      List.concat_map
        (fun line ->
          (* Per binary: the surviving site (identity), or the best
             eligible mangled site above the threshold. *)
          let identity =
            Array.map
              (fun w ->
                List.find_opt (fun s -> s.st_line = line) w.wk_sites)
              walks
          in
          match
            Array.to_list identity |> List.find_map (fun s -> s)
          with
          | None -> []  (* no binary kept the structure: nothing to anchor *)
          | Some anchor ->
            let resolve j =
              match identity.(j) with
              | Some s -> Some (s, 1.0)
              | None ->
                let better score s = function
                  | None -> true
                  | Some (b, bscore) ->
                    score > bscore || (score = bscore && s.st_order < b.st_order)
                in
                let best =
                  List.fold_left
                    (fun best s ->
                      if s.st_line >= 0 || s.st_fragment > 0
                         || Marker.Set.mem (Marker.Loop_entry s.st_line) used.(j)
                      then best
                      else
                        let score = similarity ~scale anchor.st_fp s.st_fp in
                        if better score s best then Some (s, score) else best)
                    None walks.(j).wk_sites
                in
                (match best with
                | Some (_, score) when score >= threshold -> best
                | _ -> None)
            in
            let resolved = Array.init n resolve in
            if Array.exists Option.is_none resolved then []
            else begin
              let resolved = Array.map Option.get resolved in
              Array.iteri
                (fun j (s, _) ->
                  if s.st_line < 0 then
                    used.(j) <-
                      Marker.Set.add (Marker.Loop_entry s.st_line) used.(j))
                resolved;
              let score =
                Array.fold_left
                  (fun acc (_, sc) -> Float.min acc sc)
                  1.0 resolved
              in
              let cuttable =
                Array.for_all (fun (s, _) -> s.st_prefix) resolved
              in
              (* Verify each lost kind of this line: the paired keys'
                 symbolic counts must be decided and equal everywhere. *)
              List.filter_map
                (fun key ->
                  if not (Marker.Set.mem key lost) then None
                  else begin
                    let locals =
                      Array.map
                        (fun (s, _) -> localize key s.st_line)
                        resolved
                    in
                    let counts =
                      Array.to_list
                        (Array.mapi (fun j local -> decided_count j local) locals)
                    in
                    match counts with
                    | Some c :: rest
                      when c >= 1 && List.for_all (( = ) (Some c)) rest ->
                      Some
                        { pr_key = key; pr_count = c; pr_score = score;
                          pr_cuttable = cuttable; pr_locals = locals }
                    | _ -> None
                  end)
                [ Marker.Loop_entry line; Marker.Loop_back line ]
            end)
        lines
    in
    { rc_scale = scale; rc_threshold = threshold; rc_lost = lost;
      rc_pairs = pairs; rc_demoted = demoted }
  end

let n_lost rc = Marker.Set.cardinal rc.rc_lost

let n_identified rc = List.length rc.rc_pairs

let n_cuttable rc =
  List.length (List.filter (fun p -> p.pr_cuttable) rc.rc_pairs)

let cut_counts rc =
  List.fold_left
    (fun acc p ->
      if p.pr_cuttable then Marker.Map.add p.pr_key p.pr_count acc else acc)
    Marker.Map.empty rc.rc_pairs

let translations rc =
  let n =
    match rc.rc_pairs with
    | [] -> 0
    | p :: _ -> Array.length p.pr_locals
  in
  Array.init n (fun j ->
      List.fold_left
        (fun (to_local, to_canon) p ->
          if (not p.pr_cuttable) || Marker.equal p.pr_locals.(j) p.pr_key then
            (to_local, to_canon)
          else
            ( Marker.Map.add p.pr_key p.pr_locals.(j) to_local,
              Marker.Map.add p.pr_locals.(j) p.pr_key to_canon ))
        (Marker.Map.empty, Marker.Map.empty)
        rc.rc_pairs)
