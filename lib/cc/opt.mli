(** IR optimisation passes (the compiler's -O1): constant folding with
    algebraic identities, block-local copy propagation, global dead-code
    elimination, and CFG simplification (constant branches, unreachable
    blocks, jump threading).  [run] iterates the pipeline to a fixpoint. *)

val const_fold : Ir.func -> bool
(** Each pass returns [true] when it changed the function. *)

val copy_prop : Ir.func -> bool

val cse : Ir.func -> bool
(** Block-local common-subexpression elimination over pure instructions
    (arithmetic and address materialisation); typical win: repeated
    array-address computations inside a loop body. *)

val dce : Ir.func -> bool
val simplify_cfg : Ir.func -> bool

val run : ?check:(Ir.func -> unit) -> Ir.program -> unit
(** Mutates the program in place.  [check] is invoked on a function after
    every pass-pipeline iteration that changed it (the {!Driver} hooks the
    IR verifier in here); an iteration in which every pass returns [false]
    leaves the function as it was last checked, so it is not checked
    again.  [check] may raise to abort the compilation. *)

val reachable_functions : Ir.program -> entry:string -> Ir.func list
(** The functions transitively callable from [entry], in original order —
    the linker-GC view that lets the runtime prelude carry helpers without
    bloating programs that never call them. *)
