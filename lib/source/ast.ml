type array_kind = Data of { elem_bytes : int } | Pointer

type array_decl = {
  arr_id : int;
  arr_name : string;
  arr_kind : array_kind;
  arr_length : int;
}

type pattern = Seq of { stride : int } | Rand | Chase | Hot of { window : int }

type access = {
  acc_array : int;
  acc_pattern : pattern;
  acc_count : int;
  acc_write_ratio : float;
}

type trips =
  | Fixed of int
  | Scaled of { base : int; per_scale : int }
  | Jitter of { mean : int; spread : int }

type stmt =
  | Work of work
  | Call of { call_line : int; callee : string }
  | Loop of loop
  | Select of select

and work = { work_line : int; insts : int; accesses : access list }

and loop = {
  loop_line : int;
  trips : trips;
  body : stmt list;
  unrollable : bool;
  splittable : bool;
}

and select = { sel_line : int; arms : stmt list array }

type proc = {
  proc_name : string;
  proc_line : int;
  proc_body : stmt list;
  inline_hint : bool;
}

type program = {
  prog_name : string;
  arrays : array_decl array;
  procs : proc list;
  main : string;
}

let find_proc program name =
  List.find (fun p -> p.proc_name = name) program.procs

let elem_bytes decl ~pointer_bytes =
  match decl.arr_kind with
  | Data { elem_bytes } -> elem_bytes
  | Pointer -> pointer_bytes

let iter_stmts f program =
  let rec visit stmt =
    f stmt;
    match stmt with
    | Work _ | Call _ -> ()
    | Loop l -> List.iter visit l.body
    | Select s -> Array.iter (List.iter visit) s.arms
  in
  List.iter (fun p -> List.iter visit p.proc_body) program.procs

let loop_lines program =
  let acc = ref [] in
  iter_stmts
    (function Loop l -> acc := l.loop_line :: !acc | Work _ | Call _ | Select _ -> ())
    program;
  List.rev !acc

let pp_trips ppf = function
  | Fixed n -> Fmt.pf ppf "%d" n
  | Scaled { base; per_scale } -> Fmt.pf ppf "%d+%d*scale" base per_scale
  | Jitter { mean; spread } -> Fmt.pf ppf "~%d±%d" mean spread

let pp_pattern ppf = function
  | Seq { stride } -> Fmt.pf ppf "seq/%d" stride
  | Rand -> Fmt.pf ppf "rand"
  | Chase -> Fmt.pf ppf "chase"
  | Hot { window } -> Fmt.pf ppf "hot/%d" window

let rec pp_stmt ~indent ppf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Work w ->
    Fmt.pf ppf "%s[%d] work insts=%d" pad w.work_line w.insts;
    List.iter
      (fun a ->
        Fmt.pf ppf " a%d:%a*%d" a.acc_array pp_pattern a.acc_pattern a.acc_count)
      w.accesses;
    Fmt.pf ppf "@."
  | Call { call_line; callee } -> Fmt.pf ppf "%s[%d] call %s@." pad call_line callee
  | Loop l ->
    Fmt.pf ppf "%s[%d] loop trips=%a%s%s@." pad l.loop_line pp_trips l.trips
      (if l.unrollable then " unrollable" else "")
      (if l.splittable then " splittable" else "");
    List.iter (pp_stmt ~indent:(indent + 2) ppf) l.body
  | Select s ->
    Fmt.pf ppf "%s[%d] select %d arms@." pad s.sel_line (Array.length s.arms);
    Array.iteri
      (fun i arm ->
        Fmt.pf ppf "%s arm %d:@." pad i;
        List.iter (pp_stmt ~indent:(indent + 4) ppf) arm)
      s.arms

let pp_program ppf program =
  Fmt.pf ppf "program %s@." program.prog_name;
  Array.iter
    (fun a ->
      let kind =
        match a.arr_kind with
        | Data { elem_bytes } -> Printf.sprintf "data(%dB)" elem_bytes
        | Pointer -> "pointer"
      in
      Fmt.pf ppf "  array %d %s %s len=%d@." a.arr_id a.arr_name kind a.arr_length)
    program.arrays;
  List.iter
    (fun p ->
      Fmt.pf ppf "  proc %s%s:@." p.proc_name (if p.inline_hint then " (inline)" else "");
      List.iter (pp_stmt ~indent:4 ppf) p.proc_body)
    program.procs;
  Fmt.pf ppf "  main = %s@." program.main
