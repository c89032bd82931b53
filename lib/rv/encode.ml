let opc_op = 0b0110011
let opc_op32 = 0b0111011
let opc_op_imm = 0b0010011
let opc_op_imm32 = 0b0011011
let opc_load = 0b0000011
let opc_store = 0b0100011
let opc_branch = 0b1100011
let opc_jal = 0b1101111
let opc_jalr = 0b1100111
let opc_lui = 0b0110111
let opc_auipc = 0b0010111
let opc_system = 0b1110011

(* opcode, funct3, funct7 *)
let r_fields : Inst.r_op -> int * int * int = function
  | Add -> (opc_op, 0b000, 0b0000000)
  | Sub -> (opc_op, 0b000, 0b0100000)
  | Sll -> (opc_op, 0b001, 0b0000000)
  | Slt -> (opc_op, 0b010, 0b0000000)
  | Sltu -> (opc_op, 0b011, 0b0000000)
  | Xor -> (opc_op, 0b100, 0b0000000)
  | Srl -> (opc_op, 0b101, 0b0000000)
  | Sra -> (opc_op, 0b101, 0b0100000)
  | Or -> (opc_op, 0b110, 0b0000000)
  | And -> (opc_op, 0b111, 0b0000000)
  | Mul -> (opc_op, 0b000, 0b0000001)
  | Mulh -> (opc_op, 0b001, 0b0000001)
  | Mulhsu -> (opc_op, 0b010, 0b0000001)
  | Mulhu -> (opc_op, 0b011, 0b0000001)
  | Div -> (opc_op, 0b100, 0b0000001)
  | Divu -> (opc_op, 0b101, 0b0000001)
  | Rem -> (opc_op, 0b110, 0b0000001)
  | Remu -> (opc_op, 0b111, 0b0000001)
  | Addw -> (opc_op32, 0b000, 0b0000000)
  | Subw -> (opc_op32, 0b000, 0b0100000)
  | Sllw -> (opc_op32, 0b001, 0b0000000)
  | Srlw -> (opc_op32, 0b101, 0b0000000)
  | Sraw -> (opc_op32, 0b101, 0b0100000)
  | Mulw -> (opc_op32, 0b000, 0b0000001)
  | Divw -> (opc_op32, 0b100, 0b0000001)
  | Divuw -> (opc_op32, 0b101, 0b0000001)
  | Remw -> (opc_op32, 0b110, 0b0000001)
  | Remuw -> (opc_op32, 0b111, 0b0000001)

let i_funct3 : Inst.i_op -> int * int = function
  | Addi -> (opc_op_imm, 0b000)
  | Slti -> (opc_op_imm, 0b010)
  | Sltiu -> (opc_op_imm, 0b011)
  | Xori -> (opc_op_imm, 0b100)
  | Ori -> (opc_op_imm, 0b110)
  | Andi -> (opc_op_imm, 0b111)
  | Addiw -> (opc_op_imm32, 0b000)

(* opcode, funct3, upper bits of the immediate field above the shamt *)
let shift_fields : Inst.shift_op -> int * int * int = function
  | Slli -> (opc_op_imm, 0b001, 0b000000)
  | Srli -> (opc_op_imm, 0b101, 0b000000)
  | Srai -> (opc_op_imm, 0b101, 0b010000)
  | Slliw -> (opc_op_imm32, 0b001, 0b000000)
  | Srliw -> (opc_op_imm32, 0b101, 0b000000)
  | Sraiw -> (opc_op_imm32, 0b101, 0b010000)

let load_funct3 : Inst.load_op -> int = function
  | Lb -> 0b000 | Lh -> 0b001 | Lw -> 0b010 | Ld -> 0b011
  | Lbu -> 0b100 | Lhu -> 0b101 | Lwu -> 0b110

let store_funct3 : Inst.store_op -> int = function
  | Sb -> 0b000 | Sh -> 0b001 | Sw -> 0b010 | Sd -> 0b011

let branch_funct3 : Inst.branch_op -> int = function
  | Beq -> 0b000 | Bne -> 0b001 | Blt -> 0b100 | Bge -> 0b101 | Bltu -> 0b110 | Bgeu -> 0b111

let reg = Reg.to_int
let bits v ~lo ~width = (v lsr lo) land ((1 lsl width) - 1)

let encode_int inst =
  match Inst.validate inst with
  | Error msg -> invalid_arg ("Encode.encode: " ^ msg)
  | Ok () ->
    (match inst with
    | Inst.R (op, rd, rs1, rs2) ->
      let opcode, f3, f7 = r_fields op in
      (f7 lsl 25) lor (reg rs2 lsl 20) lor (reg rs1 lsl 15) lor (f3 lsl 12) lor (reg rd lsl 7)
      lor opcode
    | Inst.I (op, rd, rs1, imm) ->
      let opcode, f3 = i_funct3 op in
      (bits imm ~lo:0 ~width:12 lsl 20) lor (reg rs1 lsl 15) lor (f3 lsl 12) lor (reg rd lsl 7)
      lor opcode
    | Inst.Shift (op, rd, rs1, shamt) ->
      let opcode, f3, hi = shift_fields op in
      (hi lsl 26) lor (bits shamt ~lo:0 ~width:6 lsl 20) lor (reg rs1 lsl 15) lor (f3 lsl 12)
      lor (reg rd lsl 7) lor opcode
    | Inst.U (op, rd, imm) ->
      let opcode = match op with Inst.Lui -> opc_lui | Inst.Auipc -> opc_auipc in
      (bits imm ~lo:0 ~width:20 lsl 12) lor (reg rd lsl 7) lor opcode
    | Inst.Load (op, rd, base, off) ->
      (bits off ~lo:0 ~width:12 lsl 20) lor (reg base lsl 15) lor (load_funct3 op lsl 12)
      lor (reg rd lsl 7) lor opc_load
    | Inst.Store (op, src, base, off) ->
      (bits off ~lo:5 ~width:7 lsl 25) lor (reg src lsl 20) lor (reg base lsl 15)
      lor (store_funct3 op lsl 12) lor (bits off ~lo:0 ~width:5 lsl 7) lor opc_store
    | Inst.Branch (op, rs1, rs2, off) ->
      (bits off ~lo:12 ~width:1 lsl 31) lor (bits off ~lo:5 ~width:6 lsl 25) lor (reg rs2 lsl 20)
      lor (reg rs1 lsl 15) lor (branch_funct3 op lsl 12) lor (bits off ~lo:1 ~width:4 lsl 8)
      lor (bits off ~lo:11 ~width:1 lsl 7) lor opc_branch
    | Inst.Jal (rd, off) ->
      (bits off ~lo:20 ~width:1 lsl 31) lor (bits off ~lo:1 ~width:10 lsl 21)
      lor (bits off ~lo:11 ~width:1 lsl 20) lor (bits off ~lo:12 ~width:8 lsl 12)
      lor (reg rd lsl 7) lor opc_jal
    | Inst.Jalr (rd, rs1, off) ->
      (bits off ~lo:0 ~width:12 lsl 20) lor (reg rs1 lsl 15) lor (reg rd lsl 7) lor opc_jalr
    | Inst.Ecall -> opc_system
    | Inst.Ebreak -> (1 lsl 20) lor opc_system
    | Inst.Fence -> 0x0ff0000f
    | Inst.Csrr (rd, csr) ->
      (* csrrs rd, csr, x0 *)
      (csr lsl 20) lor (0b010 lsl 12) lor (reg rd lsl 7) lor opc_system)
    land 0xFFFFFFFF

let encode inst = Int32.of_int (encode_int inst)

module Field = struct
  let opcode = 0x0000007Fl
  let rd = 0x00000F80l
  let rs1 = 0x000F8000l
  let rs2 = 0x01F00000l
  let funct3 = 0x00007000l
  let imm_i = 0xFFF00000l
  let imm_s = 0xFE000F80l
  let imm_u = 0xFFFFF000l
end
