(** The RV64IM instruction set (plus the system instructions ERIC needs),
    grouped by encoding format.

    This is the instruction vocabulary shared by the whole framework: the
    MiniC compiler emits it, the encoder/compressor serialise it, the HDE
    decrypts its encodings, the simulator executes it, and the
    static-analysis attack model tries to disassemble it.

    Branch, jump and compare-branch offsets are *byte* offsets relative to
    the address of the instruction itself, as in the ISA manual. *)

type r_op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Addw | Subw | Sllw | Srlw | Sraw
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu
  | Mulw | Divw | Divuw | Remw | Remuw

type i_op = Addi | Slti | Sltiu | Xori | Ori | Andi | Addiw
type shift_op = Slli | Srli | Srai | Slliw | Srliw | Sraiw
type load_op = Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu
type store_op = Sb | Sh | Sw | Sd
type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu
type u_op = Lui | Auipc

type t =
  | R of r_op * Reg.t * Reg.t * Reg.t  (** rd, rs1, rs2 *)
  | I of i_op * Reg.t * Reg.t * int  (** rd, rs1, imm12 (sign-extended) *)
  | Shift of shift_op * Reg.t * Reg.t * int  (** rd, rs1, shamt *)
  | U of u_op * Reg.t * int  (** rd, signed 20-bit immediate (placed at [31:12]) *)
  | Load of load_op * Reg.t * Reg.t * int  (** rd, base, byte offset *)
  | Store of store_op * Reg.t * Reg.t * int  (** src, base, byte offset *)
  | Branch of branch_op * Reg.t * Reg.t * int  (** rs1, rs2, pc-relative byte offset *)
  | Jal of Reg.t * int  (** rd, pc-relative byte offset *)
  | Jalr of Reg.t * Reg.t * int  (** rd, base, imm12 *)
  | Ecall
  | Ebreak
  | Fence
  | Csrr of Reg.t * int
      (** read-only CSR read ([csrrs rd, csr, x0]); supported CSRs are the
          unprivileged counters cycle (0xC00), time (0xC01) and instret
          (0xC02) — what a dynamic-analysis attacker samples *)

val equal : t -> t -> bool

val uses : t -> Reg.t list
(** Source registers read by the instruction. *)

val defines : t -> Reg.t option
(** Destination register, if any ([x0] destinations are reported as-is). *)

val is_call : t -> bool
(** [jal]/[jalr] writing a link register: control transfers that resume
    at the following parcel.  Used by CFG reconstruction and the
    call-graph-recovery attack model. *)

val mnemonic : t -> string
(** Just the operation name, e.g. ["addi"]; used by the static-analysis
    attack model's opcode histograms. *)

val fits_simm : bits:int -> int -> bool
(** [fits_simm ~bits v] is true when [v] is representable as a [bits]-wide
    two's-complement signed immediate. *)

val validate : t -> (unit, string) result
(** Range-checks every immediate field against its encoding width. *)
