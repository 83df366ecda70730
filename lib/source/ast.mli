(** Abstract syntax of the workload mini-language.

    The paper evaluates on SPEC CPU2000 sources compiled four ways.  We have
    no SPEC and no C compiler, so workloads are written in this small
    structured language: procedures containing loop nests of "work"
    statements.  A work statement stands for one source-level basic block —
    it costs a number of abstract instructions and touches memory with a
    declared pattern.  The language is deliberately control-flow-restricted
    (no recursion, loop trip counts known from the input at entry) so that a
    program's source-level dynamic behaviour is a pure function of
    (program, input) and therefore *identical across all binaries compiled
    from it* — the invariant the whole cross-binary technique rests on. *)

type array_kind =
  | Data of { elem_bytes : int }
      (** Fixed element size on every ISA (e.g. 8-byte doubles). *)
  | Pointer
      (** Element is a pointer: 4 bytes on a 32-bit ISA, 8 on 64-bit.
          Pointer-dense structures are why 32- and 64-bit binaries have
          genuinely different cache behaviour. *)

type array_decl = {
  arr_id : int;          (** Dense index into the program's array table. *)
  arr_name : string;
  arr_kind : array_kind;
  arr_length : int;      (** Number of elements. *)
}

(** How a statement touches an array, per execution. *)
type pattern =
  | Seq of { stride : int }
      (** Sequential walk advancing a persistent cursor by [stride]
          elements per access (wraps at the end). *)
  | Rand  (** Uniform random element (deterministic stream). *)
  | Chase
      (** Dependent pointer chase: each address is a deterministic function
          of the previous one.  Same locality as [Rand] but serialised;
          distinguished because the CPI model charges chases full
          latency. *)
  | Hot of { window : int }
      (** Random within a [window]-element region at the cursor: high
          temporal locality. *)

type access = {
  acc_array : int;        (** Array id. *)
  acc_pattern : pattern;
  acc_count : int;        (** Accesses per execution of the statement. *)
  acc_write_ratio : float;(** Fraction of the accesses that are stores. *)
}

(** Loop trip counts, resolved at loop entry. *)
type trips =
  | Fixed of int
  | Scaled of { base : int; per_scale : int }
      (** [base + per_scale * input.scale]: how reference inputs make
          programs run longer. *)
  | Jitter of { mean : int; spread : int }
      (** Uniform in [mean-spread, mean+spread], drawn deterministically
          from (input seed, loop line, dynamic entry index): irregular
          programs like gcc. *)

type stmt =
  | Work of work
  | Call of { call_line : int; callee : string }
  | Loop of loop
  | Select of select
      (** Executes one arm, chosen deterministically from (input seed,
          line, execution index): models data-dependent control flow. *)

and work = { work_line : int; insts : int; accesses : access list }

and loop = {
  loop_line : int;   (** Source line: the identity used for cross-binary
                         loop matching (survives inlining, destroyed by
                         loop splitting). *)
  trips : trips;
  body : stmt list;
  unrollable : bool; (** The optimizer may unroll this loop (changing its
                         back-edge count and thus breaking back-edge
                         markers across opt levels). *)
  splittable : bool; (** The optimizer may split this loop (the paper's
                         applu case: destroys all its markers). *)
}

and select = { sel_line : int; arms : stmt list array }

type proc = {
  proc_name : string;
  proc_line : int;
  proc_body : stmt list;
  inline_hint : bool;  (** The optimizer inlines this procedure at O2. *)
}

type program = {
  prog_name : string;
  arrays : array_decl array;
  procs : proc list;
  main : string;
}

val find_proc : program -> string -> proc
(** @raise Not_found if no procedure has that name. *)

val elem_bytes : array_decl -> pointer_bytes:int -> int
(** Element size given the ISA's pointer width. *)

val iter_stmts : (stmt -> unit) -> program -> unit
(** Pre-order visit of every statement in every procedure (loop bodies and
    select arms included). *)

val loop_lines : program -> int list
(** Source lines of all loops, in visit order. *)

val pp_program : Format.formatter -> program -> unit
(** Human-readable program listing (for debugging and docs). *)
