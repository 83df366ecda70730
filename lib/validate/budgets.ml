module Jsonx = Cbsp_json.Jsonx

type limit = {
  bl_method : string;
  bl_bounds : (string * float) list;
}

type t = {
  b_mode : string;
  b_limits : limit list;
}

type breach = {
  br_method : string;
  br_metric : string;
  br_floor : bool;
  br_limit : float;
  br_actual : float;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Every per-method key: whether its limit is a floor (the row must
   reach it) or a ceiling, and the row's actual value. *)
let metrics =
  let open Leaderboard in
  [ ("mean_cpi_error", (false, fun r -> r.r_cpi.a_mean));
    ("max_cpi_error", (false, fun r -> r.r_cpi.a_max));
    ("mean_speedup_error", (false, fun r -> r.r_speedup.a_mean));
    ("max_speedup_error", (false, fun r -> r.r_speedup.a_max));
    ( "min_coverage",
      ( true,
        fun r ->
          match r.r_calibration with
          | Some c -> c.c_coverage
          | None -> Float.nan ) ) ]

let limit_of_json method_ = function
  | Jsonx.Obj fields ->
    let bound (key, v) =
      (* A mistyped key would otherwise be an unconstrained budget that
         silently passes. *)
      if not (List.mem_assoc key metrics) then
        fail "budgets: unknown key %S for method %S" key method_;
      match Jsonx.to_num v with
      | Some f -> (key, f)
      | None -> fail "budgets: %s is not a number" key
    in
    { bl_method = method_; bl_bounds = List.map bound fields }
  | _ -> fail "budgets: method %S is not an object" method_

let of_json ~mode json =
  (match Jsonx.member "schema" json with
  | Some (Jsonx.Str "cbsp-validate-budgets/1") -> ()
  | _ -> fail "budgets: missing or unknown schema (want cbsp-validate-budgets/1)");
  let modes =
    match Jsonx.member "modes" json with
    | Some (Jsonx.Obj fields) -> fields
    | _ -> fail "budgets: missing modes object"
  in
  let limits =
    match List.assoc_opt mode modes with
    | Some (Jsonx.Obj fields) ->
      List.map (fun (m, obj) -> limit_of_json m obj) fields
    | Some _ -> fail "budgets: mode %S is not an object" mode
    | None -> fail "budgets: no mode %S" mode
  in
  { b_mode = mode; b_limits = limits }

let load ~path ~mode =
  of_json ~mode (Jsonx.of_string (Cbsp_util.Io.read_file path))

let check t board =
  List.concat_map
    (fun l ->
      match Leaderboard.find board ~method_:l.bl_method with
      | exception Not_found ->
        (* A budget for a method the matrix does not score is a config
           error — surface it as a breach rather than silently passing. *)
        [ { br_method = l.bl_method; br_metric = "missing_method";
            br_floor = false; br_limit = Float.nan; br_actual = Float.nan } ]
      | row ->
        List.filter_map
          (fun (metric, limit) ->
            let floor, actual_of = List.assoc metric metrics in
            let actual = actual_of row in
            (* A nan actual means the method produced no finite cells (or
               no calibration) at all — a breach of any budget, not a
               pass. *)
            let within = if floor then actual >= limit else actual <= limit in
            if Float.is_finite actual && within then None
            else
              Some
                { br_method = l.bl_method; br_metric = metric;
                  br_floor = floor; br_limit = limit; br_actual = actual })
          l.bl_bounds)
    t.b_limits
