(** Textual disassembly in standard RISC-V assembly syntax.

    Besides debugging, this is the tool the paper's static-analysis attacker
    wields: "a binary can be converted into a human-readable form by using
    standard compiler tools (e.g., disassembler)".  {!disassemble_stream}
    therefore behaves like a real objdump over raw bytes — decoding both
    16-bit and 32-bit parcels and flagging undecodable words — so the
    analysis module can quantify what an attacker recovers from plaintext
    versus ERIC-encrypted text sections. *)

val inst_to_string : Inst.t -> string
(** e.g. [addi a0, sp, 16], [ld s1, 8(sp)], [beq a0, a1, 24] (control-flow
    offsets are printed as signed byte displacements). *)

type line = {
  offset : int;  (** byte offset of the parcel in the stream *)
  size : int;  (** 2 or 4 bytes *)
  raw : int;  (** raw parcel value (16 or 32 bits) *)
  decoded : Inst.t option;  (** [None] = not a valid encoding *)
}

val disassemble_stream : bytes -> line list
(** Linear sweep from offset 0: reads a 16-bit parcel, treats it as the low
    half of a 32-bit instruction when its low two bits are [11], otherwise
    as a compressed instruction.  Undecodable 32-bit words consume 4 bytes;
    undecodable 16-bit parcels consume 2. *)

val pp_listing : Format.formatter -> line list -> unit

val pp_listing_symbols :
  symbols:(string * int) list -> Format.formatter -> line list -> unit
(** Listing with label lines inserted at symbol offsets and control-flow
    targets annotated with the symbol (or [symbol+delta]) they land on —
    objdump-style output. *)
