module Stats = Cbsp_util.Stats
module Binary = Cbsp_compiler.Binary
module Ast = Cbsp_source.Ast

let quantile_bins ~bins feature =
  if bins < 1 then invalid_arg "Strata.quantile_bins: bins must be >= 1";
  let thresholds =
    Array.init (bins - 1) (fun k ->
        Stats.percentile feature
          ~p:(100.0 *. float_of_int (k + 1) /. float_of_int bins))
  in
  Array.map
    (fun x ->
      Array.fold_left (fun acc t -> if x > t then acc + 1 else acc) 0 thresholds)
    feature

let access_mix_of (binary : Binary.t) =
  let n = binary.Binary.n_blocks in
  (* Static accesses-per-instruction rate of every block: BBVs count
     instructions per block, so interval accesses = sum_b bbv_b * rate_b. *)
  let rate = Array.make n 0.0 in
  Binary.iter_blocks
    (fun (b : Binary.mblock) ->
      if b.Binary.mb_insts > 0 then begin
        let accesses =
          List.fold_left
            (fun acc (a : Ast.access) -> acc + a.Ast.acc_count)
            b.Binary.mb_spills b.Binary.mb_accesses
        in
        rate.(b.Binary.mb_id) <-
          float_of_int accesses /. float_of_int b.Binary.mb_insts
      end)
    binary;
  fun bbv ->
    if Array.length bbv <> n then
      invalid_arg "Strata.access_mix_of: BBV dimension mismatch";
    let insts = Stats.sum bbv in
    if insts = 0.0 then 0.0
    else begin
      let acc = ref 0.0 in
      for b = 0 to n - 1 do
        acc := !acc +. (bbv.(b) *. rate.(b))
      done;
      !acc /. insts
    end

let allocate ~scores ~sizes ~total =
  let h = Array.length sizes in
  if h = 0 then invalid_arg "Strata.allocate: no strata";
  Array.iter
    (fun s -> if s < 0 then invalid_arg "Strata.allocate: negative size")
    sizes;
  if Array.length scores <> h then
    invalid_arg "Strata.allocate: scores length mismatch";
  let capacity = Array.fold_left ( + ) 0 sizes in
  let nonempty = Array.fold_left (fun a s -> if s > 0 then a + 1 else a) 0 sizes in
  if total < nonempty then
    invalid_arg
      (Printf.sprintf "Strata.allocate: budget %d < %d non-empty strata" total
         nonempty);
  let total = min total capacity in
  let alloc = Array.map (fun s -> min s 1) sizes in
  let rem = ref (total - Array.fold_left ( + ) 0 alloc) in
  (* Second pass: a second sample per stratum (by descending score) while
     the budget lasts, so every stratum's variance is estimable. *)
  let order = Array.init h Fun.id in
  Array.sort
    (fun i j ->
      match compare scores.(j) scores.(i) with 0 -> compare i j | c -> c)
    order;
  Array.iter
    (fun j ->
      if !rem > 0 && sizes.(j) >= 2 && alloc.(j) < 2 then begin
        alloc.(j) <- 2;
        decr rem
      end)
    order;
  (* Remaining budget: highest-averages (D'Hondt) by score, capped by
     stratum size — approximates Neyman allocation under the integer
     constraints and converges to a census as total approaches the
     population. *)
  while !rem > 0 do
    let best = ref (-1) and best_avg = ref neg_infinity in
    for j = 0 to h - 1 do
      if alloc.(j) < sizes.(j) then begin
        let avg = scores.(j) /. float_of_int (alloc.(j) + 1) in
        if avg > !best_avg then begin
          best_avg := avg;
          best := j
        end
      end
    done;
    alloc.(!best) <- alloc.(!best) + 1;
    decr rem
  done;
  alloc
