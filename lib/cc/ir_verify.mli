(** IR well-formedness verifier, run by {!Driver} on every compile: after
    lowering, after each optimisation-pass iteration that changed a
    function, and after an IR transform.

    Checks, with their [Eric_lint] check ids:

    - CFG integrity: at least one block ([ir.cfg.empty]), unique labels
      ([ir.cfg.duplicate-label]), every terminator target resolves
      ([ir.cfg.unresolved-label]); unreachable blocks are a note only
      ([ir.cfg.unreachable-block]) because lowering legitimately creates
      dead join blocks that [Opt.simplify_cfg] later removes.
    - Temps: every id within [0, f_temp_count) ([ir.temp.out-of-range]);
      a temp read but never written anywhere is an error
      ([ir.temp.undef]); a read some path reaches before any write is a
      warning ([ir.temp.maybe-undef]) — legal MiniC can read an
      uninitialised local, so this mirrors a compiler's -Wmaybe-uninitialized,
      computed by forward must-define dataflow over the CFG.
    - Frame slots: [Addr_local] must name a declared slot
      ([ir.slot.unresolved]).
    - Calls: the callee must be a function of the program — intrinsics
      lower to dedicated instructions, never to [Call] —
      ([ir.call.unknown]) with matching argument count ([ir.call.arity]). *)

val verify_func : Ir.program -> Ir.func -> Eric_lint.Diag.t list
(** Diagnostics for one function ([Ir.program] supplies callee
    signatures); empty on well-formed IR.  [verify_func p] reads the
    signatures once, so apply it once to check several functions. *)

val verify : ?funcs:Ir.func list -> Ir.program -> Eric_lint.Diag.t list
(** Every function, in program order, under a [lint.ir_verify] telemetry
    span; with [funcs], just those, checked against the program's callee
    signatures. *)

val errors : Eric_lint.Diag.t list -> Eric_lint.Diag.t list
(** Just the error-severity subset (the ones {!Driver} turns into a
    compile failure). *)
