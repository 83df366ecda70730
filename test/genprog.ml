(* The random workload programs the property tests run over: a plan
   QCheck generates and shrinks, and the program derived from it.  A
   program has 1-3 data or pointer arrays, 0-3 helper procedures and a
   main loop of random work, calls, nested loops (splittable when the
   plan asks for loop splitting) and selects. *)

module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Gen = QCheck.Gen

type plan = {
  seed : int;
  n_arrays : int;
  n_helpers : int;
  splitting : bool;
}

let plan_gen =
  Gen.map
    (fun (seed, n_arrays, n_helpers, splitting) ->
      { seed; n_arrays; n_helpers; splitting })
    (Gen.quad (Gen.int_bound 10_000) (Gen.int_range 1 3) (Gen.int_range 0 3)
       Gen.bool)

(* The program is derived deterministically from the plan via our own RNG
   (QCheck shrinks the plan, not the structure). *)
let build_program plan =
  let rng = Cbsp_util.Rng.create ~seed:plan.seed in
  let b = B.create ~name:(Printf.sprintf "gen%d" plan.seed) in
  let arrays =
    Array.init plan.n_arrays (fun i ->
        if Cbsp_util.Rng.bool rng then
          B.pointer_array b
            ~name:(Printf.sprintf "parr%d" i)
            ~length:(Cbsp_util.Rng.int_in rng ~lo:512 ~hi:20_000)
        else
          B.data_array b
            ~name:(Printf.sprintf "darr%d" i)
            ~elem_bytes:(if Cbsp_util.Rng.bool rng then 4 else 8)
            ~length:(Cbsp_util.Rng.int_in rng ~lo:512 ~hi:20_000))
  in
  let random_access () =
    let arr = arrays.(Cbsp_util.Rng.int rng ~bound:plan.n_arrays) in
    let count = Cbsp_util.Rng.int_in rng ~lo:1 ~hi:4 in
    match Cbsp_util.Rng.int rng ~bound:4 with
    | 0 -> B.seq ~arr ~count ()
    | 1 -> B.rand ~arr ~count ()
    | 2 -> B.chase ~arr ~count ()
    | _ -> B.hot ~arr ~count ()
  in
  let random_work () =
    let accesses =
      List.init (Cbsp_util.Rng.int rng ~bound:3) (fun _ -> random_access ())
    in
    B.work b ~insts:(Cbsp_util.Rng.int_in rng ~lo:5 ~hi:80) ~accesses ()
  in
  let random_trips () =
    match Cbsp_util.Rng.int rng ~bound:3 with
    | 0 -> Ast.Fixed (Cbsp_util.Rng.int_in rng ~lo:0 ~hi:20)
    | 1 -> Ast.Scaled { base = Cbsp_util.Rng.int_in rng ~lo:1 ~hi:5; per_scale = 2 }
    | _ ->
      Ast.Jitter
        { mean = Cbsp_util.Rng.int_in rng ~lo:2 ~hi:15;
          spread = Cbsp_util.Rng.int_in rng ~lo:0 ~hi:4 }
  in
  (* helper procedures, callable from main (never from each other, which
     trivially keeps the call graph acyclic) *)
  let helper_names =
    List.init plan.n_helpers (fun i ->
        let name = Printf.sprintf "helper%d" i in
        let body =
          [ B.loop b ~trips:(random_trips ())
              ~unrollable:(Cbsp_util.Rng.bool rng)
              [ random_work (); random_work () ] ]
        in
        B.proc b ~name ~inline_hint:(Cbsp_util.Rng.bool rng) body;
        name)
  in
  let rec random_stmt depth =
    match Cbsp_util.Rng.int rng ~bound:(if depth >= 2 then 2 else 5) with
    | 0 | 1 -> random_work ()
    | 2 when helper_names <> [] ->
      B.call b
        (List.nth helper_names (Cbsp_util.Rng.int rng ~bound:(List.length helper_names)))
    | 2 | 3 ->
      B.loop b ~trips:(random_trips ())
        ~splittable:(plan.splitting && Cbsp_util.Rng.bool rng)
        (List.init
           (Cbsp_util.Rng.int_in rng ~lo:1 ~hi:2)
           (fun _ -> random_stmt (depth + 1)))
    | _ ->
      B.select b
        (Array.init
           (Cbsp_util.Rng.int_in rng ~lo:1 ~hi:3)
           (fun _ -> [ random_stmt (depth + 1) ]))
  in
  let main_body =
    B.loop b ~trips:(Ast.Fixed (Cbsp_util.Rng.int_in rng ~lo:5 ~hi:30))
      (List.init (Cbsp_util.Rng.int_in rng ~lo:1 ~hi:3) (fun _ -> random_stmt 0))
  in
  B.proc b ~name:"main" [ main_body; random_work () ];
  B.finish b ~main:"main"
