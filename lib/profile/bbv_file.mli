(** Basic-block-vector files in SimPoint's frequency-vector format — the
    ".bb" files Pin's BBV tool emits and the reference SimPoint 3.0 binary
    consumes, so intervals collected here can be fed to the original tool.

    One line per interval:

    {v
    T:45:1024 :189:99634 :1:4
    v}

    where each [:id:count] pair gives a (1-based) basic block id and the
    instruction-weighted execution count of that block in the interval.
    Blocks with zero count are omitted (the format is sparse). *)

val write : out_channel -> Interval.emit
(** [write oc] appends one interval's line to [oc].  It is a valid
    streaming consumer: it reads the interval's BBV during the call and
    keeps nothing, so a dump driven by {!Interval.fli_stream} holds one
    interval of memory.  Counts are written as integers — BBV entries are
    integral by construction (sums of block instruction counts).
    @raise Invalid_argument if a non-empty interval has no BBV. *)
