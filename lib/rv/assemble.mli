(** Layout, relaxation and linking: turns symbolic assembly items into a
    {!Program.t} image.

    The interesting part is the interaction the paper highlights between
    compressed instructions and program size: compression shrinks the text
    section, which shrinks branch displacements and can move the data
    section, so layout runs to a fixpoint (given up after 65 passes).
    Branches whose targets end up beyond the 13-bit B-type range are
    relaxed into an inverted branch over a [jal]; relaxation is sticky.

    Only branches, jumps and [La]s depend on the layout.  Every other
    instruction, after [Li] expansion, is validated, compressed and encoded
    once, when the items are read, and every symbol operand is resolved
    once, to a label's unit index or an offset into data or BSS.  A layout
    pass takes the unit offsets as prefix sums of their sizes and
    re-encodes only the branches, jumps and [La]s; the text is written
    once, after the last pass.

    Pass 0 lays every unit out at its initial size, 4 bytes (8 for [La]);
    the other instructions take their encoded sizes from pass 1 on.  A
    branch that this over-estimate relaxes stays relaxed, so the estimate
    shapes images: sizing those instructions before pass 0 would change
    obfuscated builds.

    Address materialisation ([La]) always occupies a fixed [lui+addi] pair
    (never compressed) so that symbol resolution cannot oscillate with
    compression decisions. *)

type item =
  | Label of string
  | Ins of Inst.t  (** complete instruction, no symbolic operand *)
  | Branch of Inst.branch_op * Reg.t * Reg.t * string  (** target label *)
  | Jump of Reg.t * string  (** jal rd, label *)
  | La of Reg.t * string  (** load the absolute address of a symbol *)
  | Li of Reg.t * int64  (** load a constant (minimal RV64 sequence) *)

val expand_li : Reg.t -> int64 -> Inst.t list
(** The standard RV64 constant-materialisation recursion ([addi] /
    [lui+addiw] / shift-and-add for 64-bit constants). *)

type input = {
  text : item list;
  data : bytes;
  data_symbols : (string * int) list;  (** name -> offset within [data] *)
  bss_symbols : (string * int) list;  (** name -> size; laid out in order *)
  entry : string;  (** label to enter at *)
}

val assemble : ?compress:bool -> input -> (Program.t, string) result
(** [compress] (default true) enables RVC compression of eligible
    instructions.  Errors: duplicate or undefined labels/symbols, immediate
    overflow after relaxation, empty text. *)

val pp_input : Format.formatter -> input -> unit
(** Render the input as assembly text that {!Asm.parse} accepts and that
    reconstructs the same program: [.text] items (pseudo instructions
    preserved as [li]/[la], control flow by label), the [.data] image byte
    for byte at its original offsets, and [.bss] symbols.  This is what the
    compiler's [-S] output prints. *)
