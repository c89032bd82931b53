exception Error of int * string
(* line number, message *)

let err line fmt = Format.kasprintf (fun s -> raise (Error (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Lexical helpers                                                     *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.'

(* Strip a trailing comment, respecting string literals. *)
let strip_comment line =
  let n = String.length line in
  let rec scan i in_string =
    if i >= n then line
    else
      match line.[i] with
      | '"' -> scan (i + 1) (not in_string)
      | '\\' when in_string -> scan (i + 2) in_string
      | ('#' | ';') when not in_string -> String.sub line 0 i
      | _ -> scan (i + 1) in_string
  in
  scan 0 false

let parse_int line s =
  let s = String.trim s in
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> err line "expected an integer, found %S" s

let parse_reg line s =
  match Reg.of_name (String.trim s) with
  | Some r -> r
  | None -> err line "unknown register %S" s

(* "off(base)" *)
let parse_mem line s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | Some lp when String.length s > 0 && s.[String.length s - 1] = ')' ->
    let off_str = String.sub s 0 lp in
    let base_str = String.sub s (lp + 1) (String.length s - lp - 2) in
    let off = if String.trim off_str = "" then 0L else parse_int line off_str in
    (Int64.to_int off, parse_reg line base_str)
  | _ -> err line "expected offset(base), found %S" s

type target = T_label of string | T_offset of int

let parse_target line s =
  let s = String.trim s in
  if s = "" then err line "missing branch target"
  else
    match Int64.of_string_opt s with
    | Some v -> T_offset (Int64.to_int v)
    | None -> T_label s

(* Split operands on top-level commas. *)
let split_operands s =
  let parts = String.split_on_char ',' s in
  List.filter (fun p -> String.trim p <> "") (List.map String.trim parts)

let unescape line s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | '0' -> Buffer.add_char buf '\000'
        | '\\' -> Buffer.add_char buf '\\'
        | '"' -> Buffer.add_char buf '"'
        | c -> err line "unknown escape '\\%c'" c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let parse_string_literal line s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    unescape line (String.sub s 1 (String.length s - 2))
  else err line "expected a string literal, found %S" s

(* ------------------------------------------------------------------ *)
(* Instruction parsing                                                 *)
(* ------------------------------------------------------------------ *)

let r_ops : (string * Inst.r_op) list =
  [ ("add", Add); ("sub", Sub); ("sll", Sll); ("slt", Slt); ("sltu", Sltu); ("xor", Xor);
    ("srl", Srl); ("sra", Sra); ("or", Or); ("and", And); ("addw", Addw); ("subw", Subw);
    ("sllw", Sllw); ("srlw", Srlw); ("sraw", Sraw); ("mul", Mul); ("mulh", Mulh);
    ("mulhsu", Mulhsu); ("mulhu", Mulhu); ("div", Div); ("divu", Divu); ("rem", Rem);
    ("remu", Remu); ("mulw", Mulw); ("divw", Divw); ("divuw", Divuw); ("remw", Remw);
    ("remuw", Remuw) ]

let i_ops : (string * Inst.i_op) list =
  [ ("addi", Addi); ("slti", Slti); ("sltiu", Sltiu); ("xori", Xori); ("ori", Ori);
    ("andi", Andi); ("addiw", Addiw) ]

let shift_ops : (string * Inst.shift_op) list =
  [ ("slli", Slli); ("srli", Srli); ("srai", Srai); ("slliw", Slliw); ("srliw", Srliw);
    ("sraiw", Sraiw) ]

let load_ops : (string * Inst.load_op) list =
  [ ("lb", Lb); ("lh", Lh); ("lw", Lw); ("ld", Ld); ("lbu", Lbu); ("lhu", Lhu); ("lwu", Lwu) ]

let store_ops : (string * Inst.store_op) list =
  [ ("sb", Sb); ("sh", Sh); ("sw", Sw); ("sd", Sd) ]

let branch_ops : (string * Inst.branch_op) list =
  [ ("beq", Beq); ("bne", Bne); ("blt", Blt); ("bge", Bge); ("bltu", Bltu); ("bgeu", Bgeu) ]

let expect_n line mnemonic n ops =
  if List.length ops <> n then
    err line "%s expects %d operands, found %d" mnemonic n (List.length ops)

(* U-type immediates as Disasm prints them: the raw 20-bit field in hex,
   so values above 0x7FFFF are the two's-complement negatives. *)
let parse_uimm line s =
  let v = Int64.to_int (parse_int line s) in
  if v >= 0x80000 && v <= 0xFFFFF then v - 0x100000
  else if v >= -0x80000 && v < 0x80000 then v
  else err line "U-type immediate out of range: %s" s

let parse_instruction line mnemonic ops : Assemble.item list =
  let one_inst i = [ Assemble.Ins i ] in
  match mnemonic with
  | m when List.mem_assoc m r_ops ->
    expect_n line m 3 ops;
    let rd = parse_reg line (List.nth ops 0) in
    let rs1 = parse_reg line (List.nth ops 1) in
    let rs2 = parse_reg line (List.nth ops 2) in
    one_inst (Inst.R (List.assoc m r_ops, rd, rs1, rs2))
  | m when List.mem_assoc m i_ops ->
    expect_n line m 3 ops;
    let rd = parse_reg line (List.nth ops 0) in
    let rs1 = parse_reg line (List.nth ops 1) in
    let imm = Int64.to_int (parse_int line (List.nth ops 2)) in
    one_inst (Inst.I (List.assoc m i_ops, rd, rs1, imm))
  | m when List.mem_assoc m shift_ops ->
    expect_n line m 3 ops;
    let rd = parse_reg line (List.nth ops 0) in
    let rs1 = parse_reg line (List.nth ops 1) in
    let sh = Int64.to_int (parse_int line (List.nth ops 2)) in
    one_inst (Inst.Shift (List.assoc m shift_ops, rd, rs1, sh))
  | m when List.mem_assoc m load_ops ->
    expect_n line m 2 ops;
    let rd = parse_reg line (List.nth ops 0) in
    let off, base = parse_mem line (List.nth ops 1) in
    one_inst (Inst.Load (List.assoc m load_ops, rd, base, off))
  | m when List.mem_assoc m store_ops ->
    expect_n line m 2 ops;
    let src = parse_reg line (List.nth ops 0) in
    let off, base = parse_mem line (List.nth ops 1) in
    one_inst (Inst.Store (List.assoc m store_ops, src, base, off))
  | m when List.mem_assoc m branch_ops ->
    expect_n line m 3 ops;
    let rs1 = parse_reg line (List.nth ops 0) in
    let rs2 = parse_reg line (List.nth ops 1) in
    let op = List.assoc m branch_ops in
    (match parse_target line (List.nth ops 2) with
    | T_label l -> [ Assemble.Branch (op, rs1, rs2, l) ]
    | T_offset off -> one_inst (Inst.Branch (op, rs1, rs2, off)))
  | "lui" | "auipc" ->
    expect_n line mnemonic 2 ops;
    let rd = parse_reg line (List.nth ops 0) in
    let imm = parse_uimm line (List.nth ops 1) in
    let op : Inst.u_op = if mnemonic = "lui" then Lui else Auipc in
    one_inst (Inst.U (op, rd, imm))
  | "jal" -> (
    (* jal rd, target | jal target (rd = ra) *)
    let rd, target =
      match ops with
      | [ target ] -> (Reg.ra, target)
      | [ rd; target ] -> (parse_reg line rd, target)
      | _ -> err line "jal expects 1 or 2 operands"
    in
    match parse_target line target with
    | T_label l -> [ Assemble.Jump (rd, l) ]
    | T_offset off -> one_inst (Inst.Jal (rd, off)))
  | "jalr" -> (
    match ops with
    | [ rs1 ] -> one_inst (Inst.Jalr (Reg.ra, parse_reg line rs1, 0))
    | [ rd; mem ] ->
      let off, base = parse_mem line mem in
      one_inst (Inst.Jalr (parse_reg line rd, base, off))
    | _ -> err line "jalr expects rd, off(base)")
  | "rdcycle" | "rdtime" | "rdinstret" ->
    expect_n line mnemonic 1 ops;
    let csr = match mnemonic with "rdcycle" -> 0xC00 | "rdtime" -> 0xC01 | _ -> 0xC02 in
    one_inst (Inst.Csrr (parse_reg line (List.nth ops 0), csr))
  | "ecall" -> one_inst Inst.Ecall
  | "ebreak" -> one_inst Inst.Ebreak
  | "fence" -> one_inst Inst.Fence
  (* ---- pseudo instructions ---- *)
  | "nop" -> one_inst (Inst.I (Addi, Reg.x0, Reg.x0, 0))
  | "li" ->
    expect_n line "li" 2 ops;
    [ Assemble.Li (parse_reg line (List.nth ops 0), parse_int line (List.nth ops 1)) ]
  | "la" ->
    expect_n line "la" 2 ops;
    [ Assemble.La (parse_reg line (List.nth ops 0), String.trim (List.nth ops 1)) ]
  | "mv" ->
    expect_n line "mv" 2 ops;
    one_inst (Inst.I (Addi, parse_reg line (List.nth ops 0), parse_reg line (List.nth ops 1), 0))
  | "not" ->
    expect_n line "not" 2 ops;
    one_inst (Inst.I (Xori, parse_reg line (List.nth ops 0), parse_reg line (List.nth ops 1), -1))
  | "neg" ->
    expect_n line "neg" 2 ops;
    one_inst (Inst.R (Sub, parse_reg line (List.nth ops 0), Reg.x0, parse_reg line (List.nth ops 1)))
  | "seqz" ->
    expect_n line "seqz" 2 ops;
    one_inst (Inst.I (Sltiu, parse_reg line (List.nth ops 0), parse_reg line (List.nth ops 1), 1))
  | "snez" ->
    expect_n line "snez" 2 ops;
    one_inst (Inst.R (Sltu, parse_reg line (List.nth ops 0), Reg.x0, parse_reg line (List.nth ops 1)))
  | "j" -> (
    expect_n line "j" 1 ops;
    match parse_target line (List.nth ops 0) with
    | T_label l -> [ Assemble.Jump (Reg.x0, l) ]
    | T_offset off -> one_inst (Inst.Jal (Reg.x0, off)))
  | "jr" ->
    expect_n line "jr" 1 ops;
    one_inst (Inst.Jalr (Reg.x0, parse_reg line (List.nth ops 0), 0))
  | "ret" -> one_inst (Inst.Jalr (Reg.x0, Reg.ra, 0))
  | "call" -> (
    expect_n line "call" 1 ops;
    match parse_target line (List.nth ops 0) with
    | T_label l -> [ Assemble.Jump (Reg.ra, l) ]
    | T_offset off -> one_inst (Inst.Jal (Reg.ra, off)))
  | "beqz" | "bnez" | "bltz" | "bgez" -> (
    expect_n line mnemonic 2 ops;
    let rs = parse_reg line (List.nth ops 0) in
    let op, rs1, rs2 =
      match mnemonic with
      | "beqz" -> (Inst.Beq, rs, Reg.x0)
      | "bnez" -> (Inst.Bne, rs, Reg.x0)
      | "bltz" -> (Inst.Blt, rs, Reg.x0)
      | _ -> (Inst.Bge, rs, Reg.x0)
    in
    match parse_target line (List.nth ops 1) with
    | T_label l -> [ Assemble.Branch (op, rs1, rs2, l) ]
    | T_offset off -> one_inst (Inst.Branch (op, rs1, rs2, off)))
  | m -> err line "unknown mnemonic %S" m

(* ------------------------------------------------------------------ *)
(* Sections and directives                                             *)
(* ------------------------------------------------------------------ *)

type section = Text | Data | Bss

type state = {
  mutable section : section;
  mutable text : Assemble.item list;  (** reversed *)
  data : Buffer.t;
  mutable data_symbols : (string * int) list;
  mutable bss_symbols : (string * int) list;
  mutable pending_bss_label : (int * string) option;
  mutable first_text_label : string option;
}

let bind_label st line name =
  match st.section with
  | Text ->
    if st.first_text_label = None then st.first_text_label <- Some name;
    st.text <- Assemble.Label name :: st.text
  | Data -> st.data_symbols <- (name, Buffer.length st.data) :: st.data_symbols
  | Bss -> (
    match st.pending_bss_label with
    | None -> st.pending_bss_label <- Some (line, name)
    | Some (l, prev) -> err line "bss label %S has no size yet (declared line %d)" prev l)

let add_data_int st line width value_str =
  let v = parse_int line value_str in
  let b = Bytes.create width in
  (match width with
  | 1 -> Bytes.set b 0 (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 4 -> Bytes.set_int32_le b 0 (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le b 0 v
  | _ -> assert false);
  Buffer.add_bytes st.data b

let handle_directive st line directive rest =
  match directive with
  | ".text" -> st.section <- Text
  | ".data" -> st.section <- Data
  | ".bss" -> st.section <- Bss
  | ".globl" | ".global" -> () (* single flat namespace; accepted for compatibility *)
  | ".byte" | ".word" | ".dword" ->
    if st.section <> Data then err line "%s outside .data" directive;
    let width = match directive with ".byte" -> 1 | ".word" -> 4 | _ -> 8 in
    List.iter (add_data_int st line width) (split_operands rest)
  | ".ascii" | ".asciz" ->
    if st.section <> Data then err line "%s outside .data" directive;
    Buffer.add_string st.data (parse_string_literal line rest);
    if directive = ".asciz" then Buffer.add_char st.data '\000'
  | ".zero" | ".space" -> (
    let n = Int64.to_int (parse_int line rest) in
    if n < 0 then err line "%s with negative size" directive;
    match st.section with
    | Data -> Buffer.add_bytes st.data (Bytes.make n '\000')
    | Bss -> (
      match st.pending_bss_label with
      | Some (_, name) ->
        st.bss_symbols <- (name, n) :: st.bss_symbols;
        st.pending_bss_label <- None
      | None -> err line "%s in .bss needs a preceding label" directive)
    | Text -> err line "%s in .text" directive)
  | ".align" ->
    if st.section <> Data then err line ".align outside .data"
    else begin
      let k = Int64.to_int (parse_int line rest) in
      if k < 0 || k > 12 then err line ".align argument out of range";
      let target = 1 lsl k in
      while Buffer.length st.data mod target <> 0 do
        Buffer.add_char st.data '\000'
      done
    end
  | d -> err line "unknown directive %S" d

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let parse_line st line_no raw =
  let line = String.trim (strip_comment raw) in
  if line <> "" then begin
    (* Peel leading labels: "name:" where name is identifier-like (labels
       may contain dots, e.g. the compiler's ".L_main_3"; a directive never
       has a ':' before its first space). *)
    let rec peel s =
      let s = String.trim s in
      match String.index_opt s ':' with
      | Some i when i > 0 && String.for_all is_ident_char (String.sub s 0 i) ->
        bind_label st line_no (String.sub s 0 i);
        peel (String.sub s (i + 1) (String.length s - i - 1))
      | Some _ | None -> s
    in
    let body = peel line in
    if body <> "" then
      if body.[0] = '.' then begin
        let directive, rest =
          match String.index_opt body ' ' with
          | Some i -> (String.sub body 0 i, String.sub body i (String.length body - i))
          | None -> (body, "")
        in
        handle_directive st line_no (String.trim directive) (String.trim rest)
      end
      else begin
        if st.section <> Text then err line_no "instruction outside .text";
        let mnemonic, rest =
          match String.index_opt body ' ' with
          | Some i -> (String.sub body 0 i, String.sub body i (String.length body - i))
          | None -> (body, "")
        in
        let items = parse_instruction line_no (String.lowercase_ascii mnemonic) (split_operands rest) in
        st.text <- List.rev_append items st.text
      end
  end

let parse ?entry source =
  let st =
    { section = Text; text = []; data = Buffer.create 64; data_symbols = []; bss_symbols = [];
      pending_bss_label = None; first_text_label = None }
  in
  try
    List.iteri (fun i line -> parse_line st (i + 1) line) (String.split_on_char '\n' source);
    (match st.pending_bss_label with
    | Some (l, name) -> err l "bss label %S has no size" name
    | None -> ());
    let text = List.rev st.text in
    let has_label name = List.exists (function Assemble.Label l -> l = name | _ -> false) text in
    let entry =
      match entry with
      | Some e -> e
      | None ->
        if has_label "_start" then "_start"
        else (
          match st.first_text_label with
          | Some l -> l
          | None -> raise (Error (0, "no text labels; cannot pick an entry point")))
    in
    Ok
      {
        Assemble.text;
        data = Bytes.of_string (Buffer.contents st.data);
        data_symbols = List.rev st.data_symbols;
        bss_symbols = List.rev st.bss_symbols;
        entry;
      }
  with Error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)

let assemble ?entry ?compress source =
  match parse ?entry source with
  | Error _ as e -> e
  | Ok input -> Assemble.assemble ?compress input

let print_inst = Disasm.inst_to_string
