type t = { name : string; scale : int; seed : int }

let make ?(name = "custom") ?(seed = 42) ~scale () = { name; scale; seed }

let ref_input = { name = "ref"; scale = 10; seed = 42 }

let eval_trips trips input ~line ~entry_index =
  match (trips : Ast.trips) with
  | Fixed n -> max 0 n
  | Scaled { base; per_scale } -> max 0 (base + (per_scale * input.scale))
  | Jitter { mean; spread } ->
    if spread <= 0 then max 0 mean
    else begin
      let h = Cbsp_util.Rng.hash2 (Cbsp_util.Rng.hash2 input.seed line) entry_index in
      let offset = (h mod ((2 * spread) + 1)) - spread in
      max 0 (mean + offset)
    end

let select_arm input ~line ~exec_index ~arms =
  if arms <= 0 then invalid_arg "Input.select_arm: no arms";
  let h = Cbsp_util.Rng.hash2 (Cbsp_util.Rng.hash2 input.seed (line * 2 + 1)) exec_index in
  h mod arms
