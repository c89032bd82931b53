(** Name resolution and type checking: {!Ast.program} -> {!Tast.tprogram}.

    MiniC's rules, briefly: [char] promotes to [int] in arithmetic and
    comparisons and truncates on assignment; pointer [+]/[-] integer scales
    by element size (done in lowering; recorded here via types); pointer
    difference and pointer comparisons require identical pointer types;
    conditions accept any scalar; arrays decay to pointers on use; functions
    take at most eight arguments.  The intrinsics [__write(char*, int)] and
    [__exit(int)] are predeclared. *)

exception Type_error of string * Ast.pos

val check : ?prelude:Ast.program -> Ast.program -> (Tast.tprogram, string) result
(** [prelude]'s declarations (default none) are in scope, and a program
    declaration that reuses one of their names is a duplicate, but only
    the program is checked and returned.  The prelude must already have
    been checked on its own. *)

val check_exn : ?prelude:Ast.program -> Ast.program -> Tast.tprogram
