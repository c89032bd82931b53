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
  | R of r_op * Reg.t * Reg.t * Reg.t
  | I of i_op * Reg.t * Reg.t * int
  | Shift of shift_op * Reg.t * Reg.t * int
  | U of u_op * Reg.t * int
  | Load of load_op * Reg.t * Reg.t * int
  | Store of store_op * Reg.t * Reg.t * int
  | Branch of branch_op * Reg.t * Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Ecall
  | Ebreak
  | Fence
  | Csrr of Reg.t * int

let equal (a : t) (b : t) = a = b

let uses = function
  | R (_, _, rs1, rs2) -> [ rs1; rs2 ]
  | I (_, _, rs1, _) | Shift (_, _, rs1, _) | Load (_, _, rs1, _) -> [ rs1 ]
  | U _ | Jal _ -> []
  | Store (_, src, base, _) -> [ src; base ]
  | Branch (_, rs1, rs2, _) -> [ rs1; rs2 ]
  | Jalr (_, rs1, _) -> [ rs1 ]
  | Ecall | Ebreak | Fence | Csrr _ -> []

let defines = function
  | R (_, rd, _, _) | I (_, rd, _, _) | Shift (_, rd, _, _) | U (_, rd, _) | Load (_, rd, _, _)
  | Jal (rd, _) | Jalr (rd, _, _) | Csrr (rd, _) ->
    Some rd
  | Store _ | Branch _ | Ecall | Ebreak | Fence -> None

let is_call = function
  | Jal (rd, _) | Jalr (rd, _, _) -> not (Reg.equal rd Reg.x0)
  | _ -> false

let r_mnemonic = function
  | Add -> "add" | Sub -> "sub" | Sll -> "sll" | Slt -> "slt" | Sltu -> "sltu"
  | Xor -> "xor" | Srl -> "srl" | Sra -> "sra" | Or -> "or" | And -> "and"
  | Addw -> "addw" | Subw -> "subw" | Sllw -> "sllw" | Srlw -> "srlw" | Sraw -> "sraw"
  | Mul -> "mul" | Mulh -> "mulh" | Mulhsu -> "mulhsu" | Mulhu -> "mulhu"
  | Div -> "div" | Divu -> "divu" | Rem -> "rem" | Remu -> "remu"
  | Mulw -> "mulw" | Divw -> "divw" | Divuw -> "divuw" | Remw -> "remw" | Remuw -> "remuw"

let i_mnemonic = function
  | Addi -> "addi" | Slti -> "slti" | Sltiu -> "sltiu" | Xori -> "xori"
  | Ori -> "ori" | Andi -> "andi" | Addiw -> "addiw"

let shift_mnemonic = function
  | Slli -> "slli" | Srli -> "srli" | Srai -> "srai"
  | Slliw -> "slliw" | Srliw -> "srliw" | Sraiw -> "sraiw"

let load_mnemonic = function
  | Lb -> "lb" | Lh -> "lh" | Lw -> "lw" | Ld -> "ld" | Lbu -> "lbu" | Lhu -> "lhu" | Lwu -> "lwu"

let store_mnemonic = function Sb -> "sb" | Sh -> "sh" | Sw -> "sw" | Sd -> "sd"

let branch_mnemonic = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt" | Bge -> "bge" | Bltu -> "bltu" | Bgeu -> "bgeu"

let u_mnemonic = function Lui -> "lui" | Auipc -> "auipc"

let mnemonic = function
  | R (op, _, _, _) -> r_mnemonic op
  | I (op, _, _, _) -> i_mnemonic op
  | Shift (op, _, _, _) -> shift_mnemonic op
  | U (op, _, _) -> u_mnemonic op
  | Load (op, _, _, _) -> load_mnemonic op
  | Store (op, _, _, _) -> store_mnemonic op
  | Branch (op, _, _, _) -> branch_mnemonic op
  | Jal _ -> "jal"
  | Jalr _ -> "jalr"
  | Ecall -> "ecall"
  | Ebreak -> "ebreak"
  | Fence -> "fence"
  | Csrr (_, 0xC00) -> "rdcycle"
  | Csrr (_, 0xC01) -> "rdtime"
  | Csrr (_, 0xC02) -> "rdinstret"
  | Csrr _ -> "csrr"

let fits_simm ~bits v =
  let lo = -(1 lsl (bits - 1)) in
  let hi = (1 lsl (bits - 1)) - 1 in
  v >= lo && v <= hi

let is_w_shift = function Slliw | Srliw | Sraiw -> true | Slli | Srli | Srai -> false

let validate inst =
  let check cond msg = if cond then Ok () else Error msg in
  match inst with
  | R _ | Ecall | Ebreak | Fence -> Ok ()
  | Csrr (_, csr) ->
    check (csr = 0xC00 || csr = 0xC01 || csr = 0xC02) "unsupported CSR (cycle/time/instret only)"
  | I (_, _, _, imm) -> check (fits_simm ~bits:12 imm) "I-type immediate out of 12-bit range"
  | Shift (op, _, _, shamt) ->
    let limit = if is_w_shift op then 32 else 64 in
    check (shamt >= 0 && shamt < limit) "shift amount out of range"
  | U (_, _, imm) -> check (fits_simm ~bits:20 imm) "U-type immediate out of 20-bit range"
  | Load (_, _, _, off) | Store (_, _, _, off) | Jalr (_, _, off) ->
    check (fits_simm ~bits:12 off) "memory/jalr offset out of 12-bit range"
  | Branch (_, _, _, off) ->
    if not (fits_simm ~bits:13 off) then Error "branch offset out of 13-bit range"
    else check (off land 1 = 0) "branch offset must be even"
  | Jal (_, off) ->
    if not (fits_simm ~bits:21 off) then Error "jal offset out of 21-bit range"
    else check (off land 1 = 0) "jal offset must be even"
