(* Process-global metrics registry.  Counters and gauges are Atomic-backed
   (safe to bump from any scheduler domain without locks); histograms keep
   summary statistics under a per-histogram mutex, which is fine because
   every observation site in this codebase is coarse-grained (per stage,
   per store wait — never per instruction).

   Handles are deduplicated by (name, sorted labels): asking for the same
   series twice returns the same handle, so independent modules can share
   a series without coordinating.  A series is never unregistered, so an
   object made per operation (a store, a disk cache) must not get one of
   its own: it counts in its own atomics and adds to its name's. *)

type counter = { c_name : string; c_labels : (string * string) list; c_v : int Atomic.t }

type gauge = { g_name : string; g_labels : (string * string) list; g_v : int Atomic.t }

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_mutex : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type handle = C of counter | G of gauge | H of histogram

let registry : (string, handle) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let series_key name labels =
  String.concat "\x00"
    (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: series %S already registered with another kind"
       name)

let find_or_register name labels make =
  let labels = canonical_labels labels in
  let key = series_key name labels in
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry key with
      | Some h -> h
      | None ->
        let h = make labels in
        Hashtbl.add registry key h;
        h)

let counter ?(labels = []) name =
  match
    find_or_register name labels (fun labels ->
        C { c_name = name; c_labels = labels; c_v = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ -> kind_error name

let gauge ?(labels = []) name =
  match
    find_or_register name labels (fun labels ->
        G { g_name = name; g_labels = labels; g_v = Atomic.make 0 })
  with
  | G g -> g
  | C _ | H _ -> kind_error name

let histogram ?(labels = []) name =
  match
    find_or_register name labels (fun labels ->
        H
          { h_name = name; h_labels = labels; h_mutex = Mutex.create ();
            h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity })
  with
  | H h -> h
  | C _ | G _ -> kind_error name

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_v by : int)

let value c = Atomic.get c.c_v

type tally = { t_own : int Atomic.t; t_series : counter }

let tally ?labels name = { t_own = Atomic.make 0; t_series = counter ?labels name }

let bump t =
  Atomic.incr t.t_own;
  incr t.t_series

let own t = Atomic.get t.t_own

let set g v = Atomic.set g.g_v v

let gauge_value g = Atomic.get g.g_v

let observe h x =
  Mutex.protect h.h_mutex (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. x;
      if x < h.h_min then h.h_min <- x;
      if x > h.h_max then h.h_max <- x)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

let histogram_stats h =
  Mutex.protect h.h_mutex (fun () ->
      { hs_count = h.h_count; hs_sum = h.h_sum; hs_min = h.h_min;
        hs_max = h.h_max })

type sample =
  | Counter_sample of int
  | Gauge_sample of int
  | Histogram_sample of histogram_stats

type item = {
  it_name : string;
  it_labels : (string * string) list;
  it_sample : sample;
}

let snapshot () =
  let items =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun _ h acc -> h :: acc) registry [])
    |> List.map (function
         | C c ->
           { it_name = c.c_name; it_labels = c.c_labels;
             it_sample = Counter_sample (value c) }
         | G g ->
           { it_name = g.g_name; it_labels = g.g_labels;
             it_sample = Gauge_sample (gauge_value g) }
         | H h ->
           { it_name = h.h_name; it_labels = h.h_labels;
             it_sample = Histogram_sample (histogram_stats h) })
  in
  List.sort
    (fun a b ->
      match String.compare a.it_name b.it_name with
      | 0 -> compare a.it_labels b.it_labels
      | c -> c)
    items

(* Zero every registered series (handles stay valid); for tests and for
   isolating one run's numbers from a previous run in the same process. *)
let reset () =
  let handles =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun _ h acc -> h :: acc) registry [])
  in
  List.iter
    (function
      | C c -> Atomic.set c.c_v 0
      | G g -> Atomic.set g.g_v 0
      | H h ->
        Mutex.protect h.h_mutex (fun () ->
            h.h_count <- 0;
            h.h_sum <- 0.0;
            h.h_min <- infinity;
            h.h_max <- neg_infinity))
    handles
