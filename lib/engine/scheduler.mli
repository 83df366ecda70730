(** Domain-based parallel scheduler for independent pipeline jobs.

    [parallel_map] is the engine's only primitive: apply [f] to every
    element on the calling domain plus up to [jobs - 1] worker domains,
    and return the results in input order.  Results are therefore position-stable — a parallel run
    assembles the exact same list as the sequential one, which is what
    keeps the pipelines bit-deterministic under [jobs > 1] (each job is a
    pure function of its input; no job shares mutable state with
    another).

    Nested calls from inside a worker run sequentially in that worker, so
    composing parallel layers (suite over workloads, pipeline over
    binaries) can never deadlock or oversubscribe: the outermost
    [parallel_map] claims the domains, inner ones degrade to [List.map].

    Worker domains are pooled: the caller drains alongside [jobs - 1]
    worker domains, and after a map one of them stays idle for the next
    call while any others exit; the one left exits too after a second
    without a call.  A process running back-to-back [jobs:2] maps
    therefore spawns one domain in all (the [scheduler.workers]
    counter), and no more than one idle domain — which still joins
    every stop-the-world minor collection — outlives a parallel phase,
    by at most a second. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — a sensible
    default for a [-j] flag. *)

val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] maps [f] over [xs] with at most
    [max jobs 1] concurrently running applications, preserving order.
    [jobs <= 1], singleton/empty lists, and calls from inside a worker
    domain all short-circuit to [List.map f xs] (no domain involved).

    If one or more applications raise, the exception of the
    lowest-indexed failing element is re-raised (with its backtrace)
    after every worker has drained — matching what the sequential run
    would have raised first. *)

val currently_inside_worker : unit -> bool
(** True when called from inside a [parallel_map] worker domain (where
    further [parallel_map] calls run sequentially). *)
