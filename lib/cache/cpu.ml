module Executor = Cbsp_exec.Executor

(* Cycles are an integer sum (one base cycle per instruction plus integer
   stall latencies), kept in an immediate field so no event allocates a
   boxed float; below 2^53 it converts to exactly the float a running
   float sum would hold. *)
type t = {
  hier : Hierarchy.t;
  mutable t_cycles : int;
  mutable t_insts : int;
}

let create ?(config = Hierarchy.paper_table1) () =
  { hier = Hierarchy.create config; t_cycles = 0; t_insts = 0 }

let observer t =
  { Executor.null_observer with
    Executor.on_block =
      (fun _ insts ->
        t.t_insts <- t.t_insts + insts;
        t.t_cycles <- t.t_cycles + insts);
    on_access =
      (fun addr is_write ->
        t.t_cycles <- t.t_cycles + Hierarchy.access t.hier ~addr ~is_write) }

let cycles t = float_of_int t.t_cycles

let insts t = t.t_insts

let cpi t =
  (* Total: nan before any instruction, so callers can feed the result
     straight into Stats.relative_error / Stats.percentile, whose
     contracts are nan-propagating rather than exception-raising. *)
  if t.t_insts = 0 then nan else cycles t /. float_of_int t.t_insts

let hierarchy t = t.hier

let extra_counter_names t =
  List.map
    (fun ls -> ls.Hierarchy.ls_name ^ "_misses")
    (Hierarchy.stats t.hier)
  @ [ "dram_accesses"; "accesses" ]

let extra_counters t =
  let stats = Hierarchy.stats t.hier in
  let misses =
    List.map (fun ls -> float_of_int ls.Hierarchy.ls_stats.Cache.misses) stats
  in
  let accesses =
    match stats with
    | first :: _ -> float_of_int first.Hierarchy.ls_stats.Cache.accesses
    | [] -> 0.0
  in
  Array.of_list
    (misses @ [ float_of_int (Hierarchy.dram_accesses t.hier); accesses ])

let reset t =
  Hierarchy.flush t.hier;
  t.t_cycles <- 0;
  t.t_insts <- 0
