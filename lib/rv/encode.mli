(** 32-bit instruction encoder (the reverse of {!Decode}).

    Field placement follows the RISC-V unprivileged ISA manual's R/I/S/B/U/J
    formats.  The encoder is total over valid instructions and raises
    [Invalid_argument] with the {!Inst.validate} message otherwise, so that
    an out-of-range immediate is a compiler bug caught at emission time, not
    a silently corrupted encoding. *)

val encode : Inst.t -> int32

val encode_int : Inst.t -> int
(** [encode] as a native int: the 32-bit word, zero-extended.  Raises as
    [encode]. *)

(** Field masks used by field-level partial encryption, expressed on the
    32-bit encoding. *)
module Field : sig
  val opcode : int32  (** bits [6:0] *)

  val rd : int32  (** bits [11:7] *)

  val rs1 : int32  (** bits [19:15] *)

  val rs2 : int32  (** bits [24:20] *)

  val funct3 : int32  (** bits [14:12] *)

  val imm_i : int32  (** bits [31:20]: I-type immediate (loads, jalr, addi) *)

  val imm_s : int32  (** bits [31:25] and [11:7]: S-type store offset *)

  val imm_u : int32  (** bits [31:12]: U-type immediate *)
end
