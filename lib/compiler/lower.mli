(** The lowering pass: source program -> binary, under one configuration.

    Transformations applied, in the spirit of the paper's Intel v9.0
    compiler at the two levels:

    - instruction scaling and spill insertion (always; see {!Costmodel});
    - procedure inlining at O2 of [inline_hint] procedures: the callee body
      is spliced at each call site, the call overhead disappears, and so
      does the callee's debug symbol (its entry marker no longer exists) —
      but its loops keep their debug lines, which is what lets the matcher
      recover inlined loops (paper Section 3.3);
    - loop unrolling at O2 of [unrollable] innermost loops (factor 4): the
      back-edge branch now executes once per 4 iterations, so the loop's
      back-edge marker count no longer matches the unoptimized binaries
      (the marker is silently lost to the intersection), while its entry
      marker still matches;
    - loop splitting at O2 when the configuration enables it: a
      [splittable] loop is distributed over its body statements; every
      resulting loop and every loop nested below gets a fresh *mangled*
      (negative) debug line, which no matcher may use — the applu failure
      mode. *)

val compile : Cbsp_source.Ast.program -> Config.t -> Binary.t
(** Deterministic: same (program, config) gives a structurally identical
    binary, with identical block and loop numbering. *)
