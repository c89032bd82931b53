(** The compiler driver: MiniC source -> executable {!Eric_rv.Program.t}
    image (the role Clang plays in the paper's toolchain).

    Every program is linked against the runtime {!prelude} — console
    output ([print_int], [print_char], [print_str], [println_int],
    [println_str]), [exit] and string/memory helpers, written in MiniC over
    the [__write]/[__exit] intrinsics — so workloads can produce checkable
    output.  The prelude is parsed, typechecked, lowered, verified and
    optimised once per process, when this module is initialised; each
    compile processes only its own source and links fresh copies of the
    prelude's functions ahead of the source's, so the program, and the
    image, are the same as if the two had been compiled as one text. *)

val prelude : string
(** The runtime prelude's MiniC source.  It defines functions only: no
    globals and no string literals, so it contributes nothing to a
    program's data or BSS. *)

type transform = {
  t_tag : string;
      (** stable identity of the transform (passes, seed, ...); build
          caches fold it into their keys, so two transforms that can
          produce different code must never share a tag *)
  t_apply : Ir.program -> Ir.program;
      (** applied once, after the optimiser has converged; may mutate the
          argument's functions in place and/or return a program with
          added functions.  The optimiser never runs again afterwards. *)
}
(** A post-optimisation IR-to-IR rewrite hook (the lib/obf obfuscation
    pipeline plugs in here).  The driver stays ignorant of what the
    transform does; it only verifies the result. *)

type options = {
  optimize : bool;  (** run the IR pass pipeline (default true) *)
  compress : bool;  (** RVC compression (default true, as RV64GC implies) *)
  transform : transform option;  (** default [None] *)
}
(** Verification is not optional: {!Ir_verify} runs after lowering, after
    each optimisation iteration that changed a function and after the
    transform, and an error finding fails the compile, naming its stage
    and check.  The prelude's functions are checked once per process. *)

val default_options : options

val compile : ?options:options -> string -> (Eric_rv.Program.t, string) result
(** Source to image: {!compile_to_ir}, then {!compile_ir}.  Errors are
    "line:col: message" diagnostics from the lexer/parser/typechecker,
    with positions counted from the source's first line, verifier
    rejections, or assembler errors. *)

val compile_exn : ?options:options -> string -> Eric_rv.Program.t

val compile_to_ir : ?options:options -> string -> (Ir.program, string) result
(** The front end: the source lexed, parsed, typechecked with the
    prelude's declarations in scope (a source function that reuses a
    prelude name is a duplicate), lowered, verified and optimised (when
    [options.optimize]); then fresh copies of the prelude's functions,
    lowered or optimised to match, are prepended, and [options.transform]
    runs through {!apply_transform}. *)

val apply_transform : transform option -> Ir.program -> (Ir.program, string) result
(** The front end's last step alone, for IR that {!compile_to_ir}
    returned without a transform: apply it, if any, and verify the result.
    The oracle uses it to interpret the IR before the transform. *)

val compile_ir : ?options:options -> Ir.program -> (Eric_rv.Program.t, string) result
(** The back end: the [main] check, linker-style GC of the functions
    [main] never reaches, codegen and assembly.  Reads only
    [options.compress]. *)

val compile_to_assembly : ?options:options -> string -> (string, string) result
(** The compiler's -S mode: assembly text that {!Eric_rv.Asm.assemble}
    turns into the same program [compile] would have produced. *)
