module Jsonx = Cbsp_json.Jsonx

type limit = {
  bl_method : string;
  bl_mean_cpi : float option;
  bl_max_cpi : float option;
  bl_mean_speedup : float option;
  bl_max_speedup : float option;
}

type t = {
  b_mode : string;
  b_limits : limit list;
}

type breach = {
  br_method : string;
  br_metric : string;
  br_limit : float;
  br_actual : float;
}

let fail fmt = Printf.ksprintf failwith fmt

let opt_num key obj =
  match Jsonx.member key obj with
  | None -> None
  | Some v -> (
    match Jsonx.to_num v with
    | Some f -> Some f
    | None -> fail "budgets: %s is not a number" key)

let limit_of_json method_ obj =
  { bl_method = method_;
    bl_mean_cpi = opt_num "mean_cpi_error" obj;
    bl_max_cpi = opt_num "max_cpi_error" obj;
    bl_mean_speedup = opt_num "mean_speedup_error" obj;
    bl_max_speedup = opt_num "max_speedup_error" obj }

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
            br_limit = Float.nan; br_actual = Float.nan } ]
      | row ->
        let open Leaderboard in
        let judge metric limit actual =
          match limit with
          | None -> None
          | Some limit ->
            (* A nan actual means the method produced no finite cells at
               all — that is a breach of any budget, not a pass. *)
            if Float.is_finite actual && actual <= limit then None
            else
              Some
                { br_method = l.bl_method; br_metric = metric;
                  br_limit = limit; br_actual = actual }
        in
        List.filter_map
          (fun x -> x)
          [ judge "mean_cpi_error" l.bl_mean_cpi row.r_cpi.a_mean;
            judge "max_cpi_error" l.bl_max_cpi row.r_cpi.a_max;
            judge "mean_speedup_error" l.bl_mean_speedup row.r_speedup.a_mean;
            judge "max_speedup_error" l.bl_max_speedup row.r_speedup.a_max ])
    t.b_limits
