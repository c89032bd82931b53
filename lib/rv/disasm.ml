let reg = Reg.abi_name

let pp_inst fmt (inst : Inst.t) =
  let p = Format.fprintf in
  match inst with
  | R (_, rd, rs1, rs2) -> p fmt "%s %s, %s, %s" (Inst.mnemonic inst) (reg rd) (reg rs1) (reg rs2)
  | I (_, rd, rs1, imm) -> p fmt "%s %s, %s, %d" (Inst.mnemonic inst) (reg rd) (reg rs1) imm
  | Shift (_, rd, rs1, sh) -> p fmt "%s %s, %s, %d" (Inst.mnemonic inst) (reg rd) (reg rs1) sh
  | U (_, rd, imm) -> p fmt "%s %s, 0x%x" (Inst.mnemonic inst) (reg rd) (imm land 0xFFFFF)
  | Load (_, rd, base, off) -> p fmt "%s %s, %d(%s)" (Inst.mnemonic inst) (reg rd) off (reg base)
  | Store (_, src, base, off) -> p fmt "%s %s, %d(%s)" (Inst.mnemonic inst) (reg src) off (reg base)
  | Branch (_, rs1, rs2, off) -> p fmt "%s %s, %s, %d" (Inst.mnemonic inst) (reg rs1) (reg rs2) off
  | Jal (rd, off) -> p fmt "jal %s, %d" (reg rd) off
  | Jalr (rd, rs1, off) -> p fmt "jalr %s, %d(%s)" (reg rd) off (reg rs1)
  | Ecall -> p fmt "ecall"
  | Ebreak -> p fmt "ebreak"
  | Fence -> p fmt "fence"
  | Csrr (rd, csr) -> (
    match csr with
    | 0xC00 -> p fmt "rdcycle %s" (reg rd)
    | 0xC01 -> p fmt "rdtime %s" (reg rd)
    | 0xC02 -> p fmt "rdinstret %s" (reg rd)
    | _ -> p fmt "csrr %s, 0x%x" (reg rd) csr)

let inst_to_string inst = Format.asprintf "%a" pp_inst inst

type line = { offset : int; size : int; raw : int; decoded : Inst.t option }

let disassemble_stream text =
  let n = Bytes.length text in
  let rec sweep offset acc =
    if offset >= n then List.rev acc
    else if offset + 2 > n then
      (* trailing odd byte: report as an undecodable 16-bit slot *)
      List.rev ({ offset; size = n - offset; raw = Char.code (Bytes.get text offset); decoded = None } :: acc)
    else
      let parcel = Bytes.get_uint16_le text offset in
      if parcel land 0b11 = 0b11 && offset + 4 <= n then
        let word = Int32.to_int (Bytes.get_int32_le text offset) land 0xFFFFFFFF in
        let decoded = Decode.decode (Bytes.get_int32_le text offset) in
        sweep (offset + 4) ({ offset; size = 4; raw = word; decoded } :: acc)
      else
        let decoded = Rvc.expand parcel in
        sweep (offset + 2) ({ offset; size = 2; raw = parcel; decoded } :: acc)
  in
  sweep 0 []

let pp_listing fmt lines =
  List.iter
    (fun l ->
      match l.decoded with
      | Some inst ->
        Format.fprintf fmt "%6x:  %0*x  %a@." l.offset (2 * l.size) l.raw pp_inst inst
      | None -> Format.fprintf fmt "%6x:  %0*x  <invalid>@." l.offset (2 * l.size) l.raw)
    lines

let pp_listing_symbols ~symbols fmt lines =
  let by_offset = Hashtbl.create 32 in
  List.iter (fun (name, off) -> Hashtbl.replace by_offset off name) symbols;
  let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) symbols in
  let locate target =
    (* nearest symbol at or below the target *)
    let rec best acc = function
      | (name, off) :: rest when off <= target -> best (Some (name, off)) rest
      | _ -> acc
    in
    match best None sorted with
    | Some (name, off) when off = target -> Some name
    | Some (name, off) -> Some (Printf.sprintf "%s+0x%x" name (target - off))
    | None -> None
  in
  List.iter
    (fun l ->
      (match Hashtbl.find_opt by_offset l.offset with
      | Some name -> Format.fprintf fmt "%s:@." name
      | None -> ());
      match l.decoded with
      | None -> Format.fprintf fmt "%6x:  %0*x  <invalid>@." l.offset (2 * l.size) l.raw
      | Some inst ->
        let annotation =
          match inst with
          | Inst.Branch (_, _, _, off) | Inst.Jal (_, off) -> (
            match locate (l.offset + off) with
            | Some sym -> Printf.sprintf "    <%s>" sym
            | None -> "")
          | _ -> ""
        in
        Format.fprintf fmt "%6x:  %0*x  %a%s@." l.offset (2 * l.size) l.raw pp_inst inst
          annotation)
    lines
