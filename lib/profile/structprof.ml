module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor

type t = int Marker.Map.t

(* The executor emits pre-allocated keys, so an innermost loop's
   back-edges hand over one physical key again and again: a hit on the
   one-entry memo is one [==], no hash and no lookup.  A miss (another
   key, or an equal key allocated elsewhere) goes to the table, which
   holds the one counter per key either way.  The memo starts on a key
   allocated here, which no caller can hold. *)
type counts = {
  table : int ref Marker.Table.t;
  mutable last_key : Marker.key;
  mutable last : int ref;
}

let counts () =
  { table = Marker.Table.create 256;
    last_key = Marker.Loop_back (Sys.opaque_identity 0);
    last = ref 0 }

let bump c key =
  let r =
    if key == c.last_key then c.last
    else begin
      let r =
        match Marker.Table.find c.table key with
        | r -> r
        | exception Not_found ->
          let r = ref 0 in
          Marker.Table.add c.table key r;
          r
      in
      c.last_key <- key;
      c.last <- r;
      r
    end
  in
  incr r;
  !r

let observer () =
  let c = counts () in
  let obs =
    { Executor.null_observer with
      Executor.on_marker = (fun key -> ignore (bump c key : int)) }
  in
  let read () =
    Marker.Table.fold (fun key r acc -> Marker.Map.add key !r acc) c.table
      Marker.Map.empty
  in
  (obs, read)

let profile binary input =
  let obs, read = observer () in
  let (_ : Executor.totals) = Executor.run binary input obs in
  read ()

let count t key =
  match Marker.Map.find_opt key t with Some n -> n | None -> 0

let keys t = Marker.Map.bindings t |> List.map fst

let pp ppf t =
  Marker.Map.iter (fun key n -> Fmt.pf ppf "%a = %d@." Marker.pp key n) t
