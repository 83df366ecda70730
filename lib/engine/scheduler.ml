module Tracer = Cbsp_obs.Tracer
module Metrics = Cbsp_obs.Metrics

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* Worker domains mark themselves in domain-local storage; a nested
   parallel_map sees the mark and runs sequentially, bounding the total
   number of domains by the outermost call's [jobs]. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let currently_inside_worker () = Domain.DLS.get inside_worker

(* Scheduler observability: how many tasks the work-stealing drain
   actually processed, how many worker domains were spawned, and how
   many drains ended without a single task (idle joins — a sign [jobs]
   exceeds the useful width for the task list). *)
let m_tasks = Metrics.counter "scheduler.tasks"
let m_workers = Metrics.counter "scheduler.workers"
let m_idle_joins = Metrics.counter "scheduler.idle_joins"

(* The worker pool: domains that take drains off a shared queue and
   outlive the call that spawned them.  Spawning and joining domains per
   call leaves heap behind on every call (OCaml 5.1), so a call spawns
   only the workers the pool has not got idle.  But an idle domain is
   not free either: it still joins every stop-the-world minor
   collection, which on two cores made allocation-heavy single-domain
   work up to 1.6x slower with one idle domain behind it, and more with
   two.  So the pool keeps at most [kept] idle workers — after a drain,
   any others exit at once — and a kept worker that finds no drain for
   [linger] seconds exits too.  Back-to-back two-wide maps (k-means
   iterations, benchmark repetitions) reuse one domain, and
   single-domain work a second after the last map runs alone.  [idle]
   counts workers not running a drain — polling the queue, or about
   to — so a call right after another reuses the same domain instead of
   racing its return. *)
let kept = 1

let linger = 1.0

type pool = {
  mutex : Mutex.t;
  queue : (unit -> bool) Queue.t;  (* drains; each says if its worker stays *)
  mutable idle : int;
}

let pool = { mutex = Mutex.create (); queue = Queue.create (); idle = 0 }

(* The next queued drain, or [None] once the queue has stayed empty for
   [linger] seconds.  [Condition] has no timed wait, so an idle worker
   polls, sleeping 20 us at first and doubling up to 1 ms: a call right
   after another is picked up at once, a later one within a millisecond
   (its caller drains meanwhile). *)
let next_drain () =
  let deadline = Unix.gettimeofday () +. linger in
  let rec poll pause =
    let next =
      Mutex.protect pool.mutex (fun () ->
          if not (Queue.is_empty pool.queue) then begin
            pool.idle <- pool.idle - 1;
            `Drain (Queue.pop pool.queue)
          end
          else if Unix.gettimeofday () >= deadline then begin
            pool.idle <- pool.idle - 1;
            `Exit
          end
          else `Wait)
    in
    match next with
    | `Drain d -> Some d
    | `Exit -> None
    | `Wait ->
      Unix.sleepf pause;
      poll (Float.min (2. *. pause) 1e-3)
  in
  poll 2e-5

let rec worker_loop () =
  match next_drain () with
  | Some drain -> if drain () then worker_loop ()
  | None -> ()

(* After a drain: stay idle in the pool if it has room, else exit. *)
let release () =
  Mutex.protect pool.mutex (fun () ->
      let stay = pool.idle < kept in
      if stay then pool.idle <- pool.idle + 1;
      stay)

(* Queue [drains] (which never raise) and grow the pool until every
   queued drain has an idle worker. *)
let submit drains =
  Mutex.protect pool.mutex (fun () ->
      List.iter (fun d -> Queue.push d pool.queue) drains;
      let missing = Queue.length pool.queue - pool.idle in
      for _ = 1 to missing do
        ignore
          (Domain.spawn (fun () ->
               Domain.DLS.set inside_worker true;
               worker_loop ())
            : unit Domain.t);
        Metrics.incr m_workers;
        pool.idle <- pool.idle + 1
      done)

let parallel_map ~jobs f xs =
  let n = List.length xs in
  let jobs = min (max jobs 1) n in
  if jobs <= 1 || currently_inside_worker () then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let drain () =
      let drained = ref 0 in
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          incr drained;
          let r =
            match
              Tracer.with_span ~name:(Printf.sprintf "task-%d" i)
                ~cat:"scheduler" (fun () -> f input.(i))
            with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          go ()
        end
      in
      Tracer.with_span ~name:"worker" ~cat:"scheduler" go;
      Metrics.incr ~by:!drained m_tasks;
      if !drained = 0 then Metrics.incr m_idle_joins
    in
    (* The caller drains alongside [jobs - 1] pool workers, so a
       [jobs:2] map needs only the one kept domain.  The last pool drain
       to finish signals the caller. *)
    let done_mutex = Mutex.create () and all_done = Condition.create () in
    let running = ref (jobs - 1) in
    let pool_drain () =
      drain ();
      (* Idle again before the caller can return and ask for workers. *)
      let stay = release () in
      Mutex.protect done_mutex (fun () ->
          decr running;
          if !running = 0 then Condition.signal all_done);
      stay
    in
    submit (List.init (jobs - 1) (fun _ -> pool_drain));
    (* Marked as a worker while draining, so nested calls in [f] run
       sequentially here too. *)
    Domain.DLS.set inside_worker true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside_worker false) drain;
    (* Waiting on [done_mutex] orders every results.(i) write before the
       reads below. *)
    Mutex.protect done_mutex (fun () ->
        while !running > 0 do
          Condition.wait all_done done_mutex
        done);
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end
