(** Ablation studies for the design choices DESIGN.md calls out.  Each
    study runs the mappable-SimPoint pipeline with one knob varied and
    reports the suite-average speedup error (over the paper's four
    configuration pairs), so the contribution of each mechanism is
    visible in isolation.

    These go beyond the paper's own evaluation; they answer the questions
    a reviewer would ask of Section 3: does the primary-binary choice
    matter (the paper claims it is arbitrary)?  How much do the three
    marker classes each contribute?  How sensitive is the method to the
    interval target and to SimPoint's max-k?  What does the
    simple-inlining recovery buy? *)

type row = { label : string; values : (string * float) list }

type study = { title : string; unit_label : string; rows : row list }

val studies : string list
(** The studies' command-line names, in report order: [primary] (VLI
    speedup error with each of the four binaries as the primary),
    [markers] (mappable keys and VLI error with each marker class
    disabled in turn), [target] (FLI and VLI error across interval
    targets), [maxk] (across SimPoint's cluster budget), [inline] (VLI
    with and without recovery of inlined procedures' loops), [rep]
    (centroid vs early simulation points, PACT'03) and [ksearch]
    (exhaustive vs SimPoint 3.0's binary k search). *)

val run : ?names:string list -> string list -> study list
(** The named studies, in the order given, each value averaged over
    the workloads [names] (default {!default_names}).  Each workload
    gets one {!Cbsp.Pipeline.engine}, shared by every variant of every
    study, so a variant reuses the compiles, profiles, passes and
    clusterings of those before it; results are bit-identical to
    running each variant on a fresh engine.
    @raise Invalid_argument on a name not in {!studies}.
    @raise Not_found on a workload not in the registry. *)

val render : study -> Format.formatter -> unit

val default_names : string list
(** The subset used when [names] is omitted: a mix of regular, irregular
    and pathological workloads that keeps ablations fast. *)
