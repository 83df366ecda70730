type key = Proc_entry of string | Loop_entry of int | Loop_back of int

type kind = Kproc | Kloop_entry | Kloop_back

let kind_of = function
  | Proc_entry _ -> Kproc
  | Loop_entry _ -> Kloop_entry
  | Loop_back _ -> Kloop_back

(* Monomorphic, and in [Stdlib.compare]'s order (constructor first, in
   declaration order, then the payload), so every [Map]/[Set] iterates,
   prints and serializes exactly as a polymorphic compare would. *)
let rank = function Proc_entry _ -> 0 | Loop_entry _ -> 1 | Loop_back _ -> 2

let compare a b =
  match (a, b) with
  | Proc_entry x, Proc_entry y -> String.compare x y
  | Loop_entry x, Loop_entry y | Loop_back x, Loop_back y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b =
  match (a, b) with
  | Proc_entry x, Proc_entry y -> String.equal x y
  | Loop_entry x, Loop_entry y | Loop_back x, Loop_back y -> Int.equal x y
  | _ -> false

(* Low bits vary with the line, so loop markers reach every bucket. *)
let hash = function
  | Proc_entry name -> String.hash name
  | Loop_entry line -> (line * 3) + 1
  | Loop_back line -> (line * 3) + 2

let is_mangled = function
  | Proc_entry _ -> false
  | Loop_entry line | Loop_back line -> line < 0

let pp ppf = function
  | Proc_entry name -> Fmt.pf ppf "proc:%s" name
  | Loop_entry line -> Fmt.pf ppf "loop-entry:%d" line
  | Loop_back line -> Fmt.pf ppf "loop-back:%d" line

let to_string key = Fmt.str "%a" pp key

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "proc" when rest <> "" -> Some (Proc_entry rest)
     | "loop-entry" -> Option.map (fun l -> Loop_entry l) (int_of_string_opt rest)
     | "loop-back" -> Option.map (fun l -> Loop_back l) (int_of_string_opt rest)
     | _ -> None)

module Ord = struct
  type t = key

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Hashed = struct
  type t = key

  let equal = equal

  let hash = hash
end

module Table = Hashtbl.Make (Hashed)
