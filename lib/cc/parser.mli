(** Recursive-descent parser for MiniC.

    Operator precedence (loosest to tightest) follows C:
    [||], [&&], [|], [^], [&], [== !=], [< <= > >=], [<< >>], [+ -],
    [* / %], unary [- ! ~], postfix (call, index).  Assignment is
    right-associative and looser than everything else. *)

exception Parse_error of string * Ast.pos

val parse : string -> (Ast.program, string) result
(** Lex + parse; the error string carries "line:col: message". *)
