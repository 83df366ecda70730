(* Host-speed probe.

   The benchmark shares its host with other machines' work, and on such
   a host the same deterministic operation runs up to 1.5x slower for
   tens of seconds at a time.  This probe is a fixed kernel owned by the
   benchmark (no repository code runs in it, so no change to the
   repository can speed it up): a set-associative LRU cache simulation
   over a xorshift address stream, mixed with a dependent walk through a
   2 MiB table — integer, branchy and cache-bound, like the simulator.
   Timed next to the repetitions, it gives the host's current speed
   relative to [nominal_s].  Its tables live outside the OCaml heap and
   it allocates nothing, so it does not change how the runtime sizes
   the heap the workload runs in. *)

let sets = 4096

let ways = 8

let table_words = 1 lsl 18

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let table : table =
  Bigarray.(
    Array1.init int c_layout table_words (fun i ->
        (i * 7919) land (table_words - 1)))

let new_tags () : table = Bigarray.(Array1.create int c_layout (sets * ways))

let iterations = 2_000_000

let kernel (tags : table) =
  Bigarray.Array1.fill tags (-1);
  let x = ref 88172645463325252 and p = ref 0 and hits = ref 0 in
  for _ = 1 to iterations do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    if v land 15 = 1 then p := table.{!p} lxor (v land 1);
    let line = if v land 3 = 0 then !p else (v land 0x3FFFFFF) lsr 6 in
    let base = (line land (sets - 1)) * ways in
    let tag = line lsr 12 in
    let w = ref 0 in
    while !w < ways - 1 && tags.{base + !w} <> tag do
      incr w
    done;
    if tags.{base + !w} = tag then incr hits;
    for k = !w downto 1 do
      tags.{base + k} <- tags.{base + k - 1}
    done;
    tags.{base} <- tag
  done;
  !hits

(* The probe's time on the 2-vCPU x86-64 VM the benchmark was tuned on,
   in a quiet phase. *)
let nominal_s = 0.080

let time_kernel tags =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel tags) : int);
  Unix.gettimeofday () -. t0

let main_tags = new_tags ()

let helper_tags = new_tags ()

(* With [domains = 2] the kernel runs on two domains at once, for an
   operation that keeps two processors busy; the probe is their mean. *)
let probe ~domains =
  if domains <= 1 then time_kernel main_tags
  else begin
    let helper = Domain.spawn (fun () -> time_kernel helper_tags) in
    let mine = time_kernel main_tags in
    (mine +. Domain.join helper) /. 2.0
  end
