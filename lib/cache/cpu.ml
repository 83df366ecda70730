module Executor = Cbsp_exec.Executor

(* Cycles are an integer sum (one base cycle per instruction plus the
   stall sum the cache path keeps), so no event allocates a boxed
   float; below 2^53 it converts to exactly the float a running float
   sum would hold. *)
type t = {
  config : Hierarchy.config;
  hier : Hierarchy.t;
  path : Cache.path;
  access : int -> bool -> unit;  (* one closure, so [runs] can name it *)
  mutable t_insts : int;
}

let create ?(config = Hierarchy.paper_table1) () =
  let hier = Hierarchy.create config in
  let path = Hierarchy.path hier in
  { config; hier; path; access = Cache.on_access path; t_insts = 0 }

let observer t =
  { Executor.null_observer with
    Executor.on_block = (fun _ insts -> t.t_insts <- t.t_insts + insts);
    on_access = t.access }

let runs t =
  match t.path.Cache.levels with
  | [||] -> None
  | levels ->
    Some
      { Executor.line_bytes = Cache.line_bytes levels.(0); access = t.access;
        on_run = Cache.on_run t.path }

let hierarchy t = t.hier

let cycles t = float_of_int (t.t_insts + t.path.Cache.stall)

let insts t = t.t_insts

let cpi t =
  (* Total: nan before any instruction, so callers can feed the result
     straight into Stats.relative_error / Stats.percentile, whose
     contracts are nan-propagating rather than exception-raising. *)
  if t.t_insts = 0 then nan else cycles t /. float_of_int t.t_insts

let extra_counter_names t =
  List.map
    (fun ls -> ls.Hierarchy.ls_name ^ "_misses")
    (Hierarchy.stats t.hier)
  @ [ "dram_accesses"; "accesses" ]

(* One fresh array per call and nothing else: an interval builder
   samples this at every cut and keeps the previous snapshot. *)
let extra_counters t =
  let levels = t.path.Cache.levels in
  let n = Array.length levels in
  let out = Array.make (n + 2) 0.0 in
  for i = 0 to n - 1 do
    out.(i) <- float_of_int (Cache.misses levels.(i))
  done;
  out.(n) <- float_of_int t.path.Cache.dram;
  if n > 0 then out.(n + 1) <- float_of_int (Cache.accesses levels.(0));
  out

let reset t =
  Hierarchy.flush t.hier;
  t.t_insts <- 0

(* This domain's idle CPU, if it has one.  A borrow takes it out of the
   slot, so a nested borrow finds the slot empty (or holding another
   config's) and builds its own; whichever is given back last stays. *)
let idle : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let borrow ?(config = Hierarchy.paper_table1) f =
  let cpu =
    match Domain.DLS.get idle with
    | Some cpu when cpu.config = config ->
      Domain.DLS.set idle None;
      reset cpu;
      cpu
    | Some _ | None -> create ~config ()
  in
  Fun.protect ~finally:(fun () -> Domain.DLS.set idle (Some cpu)) (fun () -> f cpu)
