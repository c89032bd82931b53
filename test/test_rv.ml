(* Tests for eric_rv: golden encodings from the ISA manual, encoder/decoder
   and RVC round-trips, disassembly, program images, and the
   assembler/layout engine. *)

open Eric_rv

let check = Alcotest.check
let qtest ?(count = 500) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Golden 32-bit encodings (cross-checked with riscv64 binutils)       *)
(* ------------------------------------------------------------------ *)

let golden =
  [ (Inst.I (Addi, Reg.a 0, Reg.a 1, 42), 0x02a58513l);
    (Inst.I (Addi, Reg.x0, Reg.x0, 0), 0x00000013l) (* canonical nop *);
    (Inst.R (Add, Reg.a 0, Reg.a 1, Reg.a 2), 0x00c58533l);
    (Inst.R (Sub, Reg.s 2, Reg.s 3, Reg.s 4), 0x41498933l);
    (Inst.R (Mul, Reg.t_ 0, Reg.t_ 1, Reg.t_ 2), 0x027302b3l);
    (Inst.R (Divu, Reg.a 3, Reg.a 4, Reg.a 5), 0x02f756b3l);
    (Inst.R (Remw, Reg.a 0, Reg.a 1, Reg.a 2), 0x02c5e53bl);
    (Inst.R (Sraw, Reg.a 0, Reg.a 1, Reg.a 2), 0x40c5d53bl);
    (Inst.Shift (Slli, Reg.a 0, Reg.a 0, 63), 0x03f51513l);
    (Inst.Shift (Srai, Reg.a 0, Reg.a 0, 1), 0x40155513l);
    (Inst.Shift (Sraiw, Reg.a 0, Reg.a 0, 31), 0x41f5551bl);
    (Inst.I (Addiw, Reg.a 0, Reg.a 0, -1), 0xfff5051bl);
    (Inst.Load (Ld, Reg.s 1, Reg.sp, 16), 0x01013483l);
    (Inst.Load (Lbu, Reg.a 0, Reg.a 1, -1), 0xfff5c503l);
    (Inst.Store (Sd, Reg.s 1, Reg.sp, 16), 0x00913823l);
    (Inst.Store (Sb, Reg.a 0, Reg.a 1, -2048), 0x80a58023l);
    (Inst.Branch (Bne, Reg.a 0, Reg.x0, -4), 0xfe051ee3l);
    (Inst.Branch (Beq, Reg.a 0, Reg.a 1, 4094), 0x7eb50fe3l);
    (Inst.Jal (Reg.ra, 2048), 0x001000efl);
    (Inst.Jal (Reg.x0, -2), 0xfffff06fl);
    (Inst.Jalr (Reg.x0, Reg.ra, 0), 0x00008067l) (* ret *);
    (Inst.U (Lui, Reg.a 0, 0x12345), 0x12345537l);
    (Inst.U (Auipc, Reg.t_ 0, -1), 0xfffff297l);
    (Inst.Csrr (Reg.a 0, 0xC00), 0xc0002573l) (* rdcycle a0 *);
    (Inst.Csrr (Reg.t_ 1, 0xC02), 0xc0202373l) (* rdinstret t1 *);
    (Inst.Ecall, 0x00000073l);
    (Inst.Ebreak, 0x00100073l);
    (Inst.Fence, 0x0ff0000fl) ]

let test_golden_encode () =
  List.iter
    (fun (inst, word) ->
      check Alcotest.int32 (Disasm.inst_to_string inst) word (Encode.encode inst))
    golden

let test_golden_decode () =
  List.iter
    (fun (inst, word) ->
      match Decode.decode word with
      | Some decoded ->
        check Alcotest.bool (Printf.sprintf "decode %08lx" word) true (Inst.equal inst decoded)
      | None -> Alcotest.failf "failed to decode %08lx" word)
    golden

let test_decode_rejects_garbage () =
  List.iter
    (fun w ->
      check Alcotest.bool (Printf.sprintf "%08lx invalid" w) false (Decode.is_valid w))
    [ 0xFFFFFFFFl (* all ones: opcode 1111111 unassigned *);
      0x00000000l (* all zeros: low bits 00 mark a 16-bit parcel *);
      0x0000007Fl (* unassigned opcode *) ]

let test_decode_invalid_funct () =
  (* OP opcode with funct7 = 0b0000010 (unassigned) *)
  let w = Int32.of_int ((0b0000010 lsl 25) lor 0b0110011) in
  check Alcotest.bool "unassigned funct7" false (Decode.is_valid w);
  (* LOAD with funct3 = 111 (unassigned) *)
  let w = Int32.of_int ((0b111 lsl 12) lor 0b0000011) in
  check Alcotest.bool "unassigned load width" false (Decode.is_valid w)

(* ------------------------------------------------------------------ *)
(* Random instruction generator                                        *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.(map Reg.of_int (int_bound 31))

let gen_inst : Inst.t QCheck.Gen.t =
  let open QCheck.Gen in
  let r_ops : Inst.r_op list =
    [ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And; Addw; Subw; Sllw; Srlw; Sraw; Mul;
      Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu; Mulw; Divw; Divuw; Remw; Remuw ]
  in
  let i_ops : Inst.i_op list = [ Addi; Slti; Sltiu; Xori; Ori; Andi; Addiw ] in
  let imm12 = int_range (-2048) 2047 in
  frequency
    [ (4, map (fun (op, (rd, rs1, rs2)) -> Inst.R (op, rd, rs1, rs2))
         (pair (oneofl r_ops) (triple gen_reg gen_reg gen_reg)));
      (3, map (fun (op, (rd, rs1, imm)) -> Inst.I (op, rd, rs1, imm))
         (pair (oneofl i_ops) (triple gen_reg gen_reg imm12)));
      (2, map (fun (op, (rd, rs1)) ->
             let limit = match (op : Inst.shift_op) with Slliw | Srliw | Sraiw -> 31 | _ -> 63 in
             Inst.Shift (op, rd, rs1, limit))
         (pair (oneofl ([ Slli; Srli; Srai; Slliw; Srliw; Sraiw ] : Inst.shift_op list))
            (pair gen_reg gen_reg)));
      (2, map (fun ((op, sh), (rd, rs1)) ->
             let limit = match (op : Inst.shift_op) with Slliw | Srliw | Sraiw -> 31 | _ -> 63 in
             Inst.Shift (op, rd, rs1, sh mod (limit + 1)))
         (pair (pair (oneofl ([ Slli; Srli; Srai; Slliw; Srliw; Sraiw ] : Inst.shift_op list)) small_nat)
            (pair gen_reg gen_reg)));
      (2, map (fun (op, (rd, imm)) -> Inst.U (op, rd, imm))
         (pair (oneofl ([ Lui; Auipc ] : Inst.u_op list)) (pair gen_reg (int_range (-524288) 524287))));
      (3, map (fun (op, (rd, base, off)) -> Inst.Load (op, rd, base, off))
         (pair (oneofl ([ Lb; Lh; Lw; Ld; Lbu; Lhu; Lwu ] : Inst.load_op list))
            (triple gen_reg gen_reg imm12)));
      (3, map (fun (op, (src, base, off)) -> Inst.Store (op, src, base, off))
         (pair (oneofl ([ Sb; Sh; Sw; Sd ] : Inst.store_op list)) (triple gen_reg gen_reg imm12)));
      (2, map (fun (op, (rs1, rs2, off)) -> Inst.Branch (op, rs1, rs2, 2 * off))
         (pair (oneofl ([ Beq; Bne; Blt; Bge; Bltu; Bgeu ] : Inst.branch_op list))
            (triple gen_reg gen_reg (int_range (-2048) 2047))));
      (1, map (fun (rd, off) -> Inst.Jal (rd, 2 * off)) (pair gen_reg (int_range (-524288) 524287)));
      (1, map (fun (rd, rs1, imm) -> Inst.Jalr (rd, rs1, imm)) (triple gen_reg gen_reg imm12));
      (1, oneofl [ Inst.Ecall; Inst.Ebreak; Inst.Fence ]) ]

let arb_inst = QCheck.make ~print:Disasm.inst_to_string gen_inst

let encode_decode_roundtrip =
  qtest ~count:2000 "encode/decode roundtrip" arb_inst (fun inst ->
      match Decode.decode (Encode.encode inst) with
      | Some decoded -> Inst.equal inst decoded
      | None -> false)

let compress_expand_roundtrip =
  qtest ~count:2000 "compress/expand agree" arb_inst (fun inst ->
      match Rvc.compress inst with
      | None -> true
      | Some parcel -> (
        match Rvc.expand parcel with Some back -> Inst.equal inst back | None -> false))

let test_rvc_exhaustive () =
  (* Every valid 16-bit parcel expands to an instruction that encodes back
     to an equally valid parcel (compress may pick an alias). *)
  let valid = ref 0 in
  for p = 0 to 0xFFFF do
    match Rvc.expand p with
    | None -> ()
    | Some inst -> (
      incr valid;
      match Rvc.compress inst with
      | None -> Alcotest.failf "parcel %04x expands to %s which will not compress" p (Disasm.inst_to_string inst)
      | Some p' -> (
        match Rvc.expand p' with
        | Some inst' when Inst.equal inst inst' -> ()
        | _ -> Alcotest.failf "parcel %04x alias mismatch" p))
  done;
  check Alcotest.bool "plenty of valid parcels" true (!valid > 30000)

let test_rvc_known_parcels () =
  let cases =
    [ (0x0001, Inst.I (Addi, Reg.x0, Reg.x0, 0)) (* c.nop *);
      (0x4505, Inst.I (Addi, Reg.a 0, Reg.x0, 1)) (* c.li a0, 1 *);
      (0x852e, Inst.R (Add, Reg.a 0, Reg.x0, Reg.a 1)) (* c.mv a0, a1 *);
      (0x9532, Inst.R (Add, Reg.a 0, Reg.a 0, Reg.a 2)) (* c.add a0, a2 *);
      (0x8082, Inst.Jalr (Reg.x0, Reg.ra, 0)) (* c.ret *);
      (0x9002, Inst.Ebreak) (* c.ebreak *) ]
  in
  List.iter
    (fun (parcel, inst) ->
      match Rvc.expand parcel with
      | Some got ->
        check Alcotest.bool (Printf.sprintf "parcel %04x" parcel) true (Inst.equal inst got)
      | None -> Alcotest.failf "parcel %04x did not expand" parcel)
    cases;
  check Alcotest.bool "0x0000 illegal" true (Rvc.expand 0x0000 = None)

(* Pinned corner cases: reserved RVC encodings must refuse to expand,
   and the immediate edges of the trickiest formats (c.addi16sp, c.lui,
   c.addi4spn, c.j, c.beqz, the sp-relative loads) encode to exactly
   these parcels.  Golden values guard against silent en/decoding
   regressions the roundtrip properties cannot see. *)
let test_rvc_reserved_encodings () =
  let reserved =
    [ (0x0000, "all-zero illegal parcel");
      (0x0004, "c.addi4spn with imm=0");
      (0x0281, "c.addi hint (rd!=0, imm=0)");
      (0x2005, "c.addiw with rd=0");
      (0x4005, "c.li with rd=0");
      (0x6101, "c.addi16sp with imm=0");
      (0x6281, "c.lui with imm=0");
      (0x6005, "c.lui with rd=0");
      (0x8001, "c.srli with shamt=0");
      (0x9c41, "q1 CA reserved funct2 (w=1, 0b10)");
      (0x0282, "c.slli with shamt=0");
      (0x0006, "c.slli with rd=0");
      (0x4012, "c.lwsp with rd=0");
      (0x6012, "c.ldsp with rd=0");
      (0x8002, "c.jr with rs1=0");
      (0x802a, "c.mv with rd=0");
      (0x2000, "q0 funct3=001 (c.fld, unsupported)");
      (0x2002, "q2 funct3=001 (c.fldsp, unsupported)") ]
  in
  List.iter
    (fun (parcel, why) ->
      match Rvc.expand parcel with
      | None -> ()
      | Some inst ->
        Alcotest.failf "reserved parcel %04x (%s) expanded to %s" parcel why
          (Disasm.inst_to_string inst))
    reserved

let test_rvc_immediate_edges () =
  let golden =
    [ (* c.addi16sp: 10-bit immediate, multiples of 16, zero excluded *)
      (Inst.I (Addi, Reg.sp, Reg.sp, 496), Some 0x617d);
      (Inst.I (Addi, Reg.sp, Reg.sp, -512), Some 0x7101);
      (Inst.I (Addi, Reg.sp, Reg.sp, 504), None) (* not a multiple of 16 *);
      (Inst.I (Addi, Reg.sp, Reg.sp, 512), None) (* out of range *);
      (* c.lui: 6-bit immediate, rd not x0/sp, zero excluded *)
      (Inst.U (Lui, Reg.a 0, 31), Some 0x657d);
      (Inst.U (Lui, Reg.a 0, -32), Some 0x7501);
      (Inst.U (Lui, Reg.a 0, 32), None);
      (Inst.U (Lui, Reg.sp, 1), None);
      (Inst.U (Lui, Reg.x0, 1), None);
      (* c.addi4spn: zero-extended, multiples of 4, < 1024 *)
      (Inst.I (Addi, Reg.of_int 8, Reg.sp, 1020), Some 0x1fe0);
      (Inst.I (Addi, Reg.of_int 8, Reg.sp, 1024), None);
      (* c.j: 12-bit signed, even *)
      (Inst.Jal (Reg.x0, 2046), Some 0xaffd);
      (Inst.Jal (Reg.x0, -2048), Some 0xb001);
      (Inst.Jal (Reg.x0, 2048), None);
      (Inst.Jal (Reg.x0, 3), None) (* odd *);
      (* c.beqz: 9-bit signed, even, compressed register *)
      (Inst.Branch (Beq, Reg.of_int 8, Reg.x0, 254), Some 0xcc7d);
      (Inst.Branch (Beq, Reg.of_int 8, Reg.x0, -256), Some 0xd001);
      (Inst.Branch (Beq, Reg.of_int 8, Reg.x0, 256), None);
      (Inst.Branch (Beq, Reg.a 0, Reg.x0, 255), None) (* odd *);
      (* sp-relative loads: scaled, zero-extended offsets *)
      (Inst.Load (Lw, Reg.a 0, Reg.sp, 252), Some 0x557e);
      (Inst.Load (Lw, Reg.a 0, Reg.sp, 256), None);
      (Inst.Load (Ld, Reg.a 0, Reg.sp, 504), Some 0x757e);
      (Inst.Load (Ld, Reg.a 0, Reg.sp, 512), None);
      (* shifts: 6-bit shamt, max 63 *)
      (Inst.Shift (Slli, Reg.a 0, Reg.a 0, 63), Some 0x157e);
      (Inst.Shift (Srai, Reg.of_int 8, Reg.of_int 8, 63), Some 0x947d) ]
  in
  List.iter
    (fun (inst, expected) ->
      let name = Disasm.inst_to_string inst in
      match (Rvc.compress inst, expected) with
      | None, None -> ()
      | Some p, Some e ->
        if p <> e then Alcotest.failf "%s: compressed to %04x, expected %04x" name p e;
        (* the pinned parcel must also expand back to the instruction *)
        (match Rvc.expand p with
        | Some back when Inst.equal back inst -> ()
        | Some back -> Alcotest.failf "%s: %04x expands to %s" name p (Disasm.inst_to_string back)
        | None -> Alcotest.failf "%s: golden parcel %04x does not expand" name p)
      | Some p, None -> Alcotest.failf "%s: unexpectedly compressed to %04x" name p
      | None, Some e -> Alcotest.failf "%s: failed to compress (expected %04x)" name e)
    golden

let test_rvc_expand_compress_coherent () =
  (* Exhaustive 16-bit sweep: expansion and validity must agree, and no
     expanded instruction may be something the compressor considers
     un-compressible (that would make decode-then-reencode lossy). *)
  for p = 0 to 0xFFFF do
    (match (Rvc.expand p, Rvc.is_valid p) with
    | Some _, true | None, false -> ()
    | Some _, false -> Alcotest.failf "parcel %04x expands but is_valid says no" p
    | None, true -> Alcotest.failf "parcel %04x is_valid but does not expand" p);
    match Rvc.expand p with
    | None -> ()
    | Some inst ->
      if Rvc.compress inst = None then
        Alcotest.failf "parcel %04x expands to uncompressible %s" p (Disasm.inst_to_string inst)
  done

(* ------------------------------------------------------------------ *)
(* Inst helpers                                                        *)
(* ------------------------------------------------------------------ *)

let test_validate_rejects () =
  let bad =
    [ Inst.I (Addi, Reg.a 0, Reg.a 0, 5000); Inst.Shift (Slli, Reg.a 0, Reg.a 0, 64);
      Inst.Shift (Slliw, Reg.a 0, Reg.a 0, 32); Inst.Branch (Beq, Reg.a 0, Reg.a 0, 3);
      Inst.Branch (Beq, Reg.a 0, Reg.a 0, 5000); Inst.Jal (Reg.x0, 1 lsl 21);
      Inst.U (Lui, Reg.a 0, 1 lsl 19); Inst.Load (Ld, Reg.a 0, Reg.a 0, 2048) ]
  in
  List.iter
    (fun inst ->
      match Inst.validate inst with
      | Ok () -> Alcotest.failf "accepted invalid %s" (Disasm.inst_to_string inst)
      | Error _ -> ())
    bad

let test_uses_defines () =
  let inst = Inst.Store (Sd, Reg.a 0, Reg.sp, 8) in
  check (Alcotest.list Alcotest.int) "store uses"
    [ Reg.to_int (Reg.a 0); Reg.to_int Reg.sp ]
    (List.map Reg.to_int (Inst.uses inst));
  check Alcotest.bool "store defines nothing" true (Inst.defines inst = None);
  check Alcotest.bool "load defines" true
    (Inst.defines (Inst.Load (Ld, Reg.a 1, Reg.sp, 0)) = Some (Reg.a 1))

let test_reg_names () =
  check Alcotest.string "abi name" "a0" (Reg.abi_name (Reg.a 0));
  check Alcotest.string "zero" "zero" (Reg.abi_name Reg.x0);
  check Alcotest.bool "of_name abi" true (Reg.of_name "t3" = Some (Reg.t_ 3));
  check Alcotest.bool "of_name xN" true (Reg.of_name "x17" = Some (Reg.a 7));
  check Alcotest.bool "of_name fp" true (Reg.of_name "fp" = Some (Reg.s 0));
  check Alcotest.bool "of_name bad" true (Reg.of_name "q9" = None);
  check Alcotest.bool "compressible" true (Reg.is_compressible (Reg.a 0));
  check Alcotest.bool "not compressible" false (Reg.is_compressible (Reg.t_ 3))

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)
(* ------------------------------------------------------------------ *)

let test_disasm_strings () =
  let cases =
    [ (Inst.I (Addi, Reg.a 0, Reg.sp, 16), "addi a0, sp, 16");
      (Inst.Load (Ld, Reg.s 1, Reg.sp, 8), "ld s1, 8(sp)");
      (Inst.Store (Sw, Reg.a 2, Reg.a 3, -4), "sw a2, -4(a3)");
      (Inst.Branch (Bltu, Reg.t_ 0, Reg.t_ 1, 24), "bltu t0, t1, 24");
      (Inst.Jal (Reg.ra, -8), "jal ra, -8");
      (Inst.Jalr (Reg.x0, Reg.ra, 0), "jalr zero, 0(ra)");
      (Inst.U (Lui, Reg.a 0, 0x12345), "lui a0, 0x12345");
      (Inst.Ecall, "ecall") ]
  in
  List.iter
    (fun (inst, s) -> check Alcotest.string s s (Disasm.inst_to_string inst))
    cases

let test_disasm_stream_framing () =
  (* 32-bit inst, 16-bit inst, garbage word. *)
  let buf = Bytes.create 10 in
  Bytes.set_int32_le buf 0 (Encode.encode (Inst.I (Addi, Reg.a 0, Reg.a 1, 42)));
  Bytes.set_uint16_le buf 4 0x4505 (* c.li a0,1 *);
  Bytes.set_int32_le buf 6 0xFFFFFFFFl;
  match Disasm.disassemble_stream buf with
  | [ l1; l2; l3 ] ->
    check Alcotest.int "first size" 4 l1.Disasm.size;
    check Alcotest.bool "first ok" true (l1.Disasm.decoded <> None);
    check Alcotest.int "second size" 2 l2.Disasm.size;
    check Alcotest.int "second offset" 4 l2.Disasm.offset;
    check Alcotest.bool "third invalid" true (l3.Disasm.decoded = None)
  | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines)

(* ------------------------------------------------------------------ *)
(* Program images                                                      *)
(* ------------------------------------------------------------------ *)

let sample_parcels =
  [| Program.P32 (Encode.encode (Inst.I (Addi, Reg.a 0, Reg.x0, 7)));
     Program.P16 (Option.get (Rvc.compress (Inst.I (Addi, Reg.a 0, Reg.a 0, 1))));
     Program.P32 (Encode.encode Inst.Ecall) |]

let sample_image () =
  { (Parcel_image.of_parcels sample_parcels) with
    Program.data = Bytes.of_string "hello";
    bss_size = 16 }

let test_program_sizes () =
  let img = sample_image () in
  check Alcotest.int "text size" 10 (Program.text_size img);
  check Alcotest.int "total size" 15 (Program.total_size img);
  check (Alcotest.array Alcotest.int) "offsets" [| 0; 4; 6 |] (Program.parcel_offsets img)

(* [binary_size] is the length of the plain binary, without building it. *)
let test_program_binary_size () =
  let sized name img =
    check Alcotest.int name (Bytes.length (Program.to_binary img)) (Program.binary_size img)
  in
  sized "sample" (sample_image ());
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let name = w.Eric_workloads.Workloads.name in
      sized name (Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source);
      sized (name ^ " small") (Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source_small))
    Eric_workloads.Workloads.all

let image_flips =
  let with_symbols b = Bytes.get_uint16_le b 6 land 1 = 1 in
  let labelled label ~symbols img = (label, Program.to_binary ~with_symbols:symbols img) in
  let gen =
    QCheck.Gen.(
      map
        (fun ((parcels, data, bss), (symbols, with_syms)) ->
          let parcels =
            Array.of_list
              (List.map
                 (fun (wide, v) ->
                   if wide then Program.P32 (Int32.logor (Int32.of_int v) 3l)
                   else Program.P16 (v land 0xFFFC))
                 parcels)
          in
          labelled "random image" ~symbols:with_syms
            { (Parcel_image.of_parcels parcels) with
              Program.data = Bytes.of_string data;
              bss_size = bss;
              symbols })
        (pair
           (triple (list_size (int_range 0 6) (pair bool nat)) (string_size (int_range 0 9))
              (int_range 0 64))
           (pair
              (list_size (int_range 0 3)
                 (pair (string_size ~gen:printable (int_range 0 6)) small_nat))
              bool)))
  in
  let sample = { (sample_image ()) with Program.symbols = [ ("_start", 0); ("fn2", 4) ] } in
  let crc32 =
    Eric_cc.Driver.compile_exn
      (Option.get (Eric_workloads.Workloads.by_name "crc32")).Eric_workloads.Workloads.source_small
  in
  Bit_flips.property ~name:"REXE bit flips" ~random:8 ~gen
    ~corners:
      [ labelled "sample, with symbols" ~symbols:true sample;
        labelled "sample, without symbols" ~symbols:false sample;
        labelled "crc32 small, with symbols" ~symbols:true crc32 ]
    ~roundtrip:(fun b ->
      Result.to_option
        (Result.map (Program.to_binary ~with_symbols:(with_symbols b)) (Program.of_binary b)))

let test_program_binary_roundtrip () =
  let img = sample_image () in
  match Program.of_binary (Program.to_binary img) with
  | Error e -> Alcotest.fail e
  | Ok img' ->
    check Alcotest.int "entry" img.Program.entry_offset img'.Program.entry_offset;
    check Alcotest.int "bss" img.Program.bss_size img'.Program.bss_size;
    check Alcotest.string "text bytes"
      (Eric_util.Bytesx.to_hex img.Program.text)
      (Eric_util.Bytesx.to_hex img'.Program.text);
    check Alcotest.string "data" "hello" (Bytes.to_string img'.Program.data)

let test_program_binary_rejects () =
  let img = sample_image () in
  let good = Program.to_binary img in
  let truncated = Bytes.sub good 0 (Bytes.length good - 3) in
  check Alcotest.bool "truncated" true (Result.is_error (Program.of_binary truncated));
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  check Alcotest.bool "magic" true (Result.is_error (Program.of_binary bad_magic))

(* [Package.parse]'s entry rules: an odd entry cannot start a parcel,
   and an entry at the end of a non-empty text starts none. *)
let entry_error img entry_offset =
  match Program.of_binary (Program.to_binary { img with Program.entry_offset }) with
  | Ok _ -> None
  | Error e -> Some e

let test_program_binary_rejects_odd_entry () =
  let img = sample_image () in
  List.iter
    (fun e ->
      check Alcotest.(option string) (Printf.sprintf "entry %d" e)
        (Some "entry not parcel-aligned") (entry_error img e))
    [ 1; 3; 5; 9 ];
  List.iter
    (fun e -> check Alcotest.(option string) (Printf.sprintf "entry %d" e) None (entry_error img e))
    [ 0; 4; 6 ]

let test_program_binary_rejects_entry_at_end () =
  let img = sample_image () in
  check Alcotest.(option string) "entry = text length" (Some "entry out of range")
    (entry_error img (Program.text_size img));
  check Alcotest.(option string) "past the text" (Some "entry out of range")
    (entry_error img (Program.text_size img + 2));
  (* An empty text has nowhere else to point. *)
  check Alcotest.(option string) "empty text, entry 0" None
    (entry_error { img with Program.text = Bytes.empty } 0)

let test_frame_text () =
  let img = sample_image () in
  check Alcotest.bool "parcels" true (Program.parcels img = sample_parcels);
  (* A lone half of a 32-bit instruction cannot tile. *)
  let partial = { img with Program.text = Bytes.of_string "\xef\xff" } in
  Alcotest.check_raises "partial fails"
    (Invalid_argument "Program.parcels: text does not tile into parcels") (fun () ->
      ignore (Program.parcels partial));
  (* A parcel whose length bits contradict its constructor would frame
     differently, so no image is built around it. *)
  Alcotest.check_raises "P16 with a 32-bit marker"
    (Invalid_argument "Parcel_image.of_parcels: P16 with a 32-bit marker") (fun () ->
      ignore (Parcel_image.of_parcels [| Program.P16 0xFFFF |]));
  Alcotest.check_raises "P32 without one"
    (Invalid_argument "Parcel_image.of_parcels: P32 without a 32-bit marker") (fun () ->
      ignore (Parcel_image.of_parcels [| Program.P32 0x00000001l |]))

(* The list-based framing that the two-pass array version replaced, kept
   as its reference model. *)
let ref_frame_text bytes =
  let n = Bytes.length bytes in
  let rec walk off acc =
    if off = n then Some (Array.of_list (List.rev acc))
    else if off + 2 > n then None
    else
      let half = Bytes.get_uint16_le bytes off in
      if half land 0b11 = 0b11 then
        if off + 4 > n then None
        else walk (off + 4) (Program.P32 (Bytes.get_int32_le bytes off) :: acc)
      else walk (off + 2) (Program.P16 half :: acc)
  in
  walk 0 []

(* Random bytes of any length (odd lengths and cut 32-bit parcels
   included), and prefixes of a real text section. *)
let gen_text_bytes =
  let real = lazy (sample_image ()).Program.text in
  QCheck.Gen.(
    oneof
      [ map Bytes.of_string (string_size ~gen:char (int_bound 64));
        map (fun n -> Bytes.sub (Lazy.force real) 0 (n mod 11)) nat ])

(* A plain image around the bytes loads exactly when they tile, and then
   frames into the reference's parcels at their offsets. *)
let parcels_match_reference =
  qtest "parcels = list-based reference"
    (QCheck.make ~print:Eric_util.Bytesx.to_hex gen_text_bytes)
    (fun b ->
      let wire = Program.to_binary { (Parcel_image.of_parcels [||]) with Program.text = b } in
      match (Program.of_binary wire, ref_frame_text b) with
      | Ok img, Some parcels ->
        let offsets = Array.make (Array.length parcels) 0 in
        for i = 1 to Array.length parcels - 1 do
          offsets.(i) <- offsets.(i - 1) + Program.parcel_size parcels.(i - 1)
        done;
        Program.parcels img = parcels && Program.parcel_offsets img = offsets
      | Error "text section does not tile into parcels", None -> true
      | _ -> false)

let test_decode_all () =
  let img = sample_image () in
  match Program.decode_all img with
  | Some insts ->
    check Alcotest.int "count" 3 (Array.length insts);
    check Alcotest.bool "last is ecall" true (Inst.equal insts.(2) Inst.Ecall)
  | None -> Alcotest.fail "decode_all failed"


let test_program_symbol_table_roundtrip () =
  let img = { (sample_image ()) with Program.symbols = [ ("_start", 0); (".L_loop", 4) ] } in
  (* default serialisation strips symbols *)
  (match Program.of_binary (Program.to_binary img) with
  | Ok img' -> check Alcotest.int "stripped" 0 (List.length img'.Program.symbols)
  | Error e -> Alcotest.fail e);
  (* explicit symbol serialisation restores them *)
  (match Program.of_binary (Program.to_binary ~with_symbols:true img) with
  | Ok img' ->
    check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "restored"
      img.Program.symbols img'.Program.symbols
  | Error e -> Alcotest.fail e);
  (* truncated symbol table rejected *)
  let wire = Program.to_binary ~with_symbols:true img in
  check Alcotest.bool "truncated symtab" true
    (Result.is_error (Program.of_binary (Bytes.sub wire 0 (Bytes.length wire - 2))))

let test_symbolized_listing () =
  let img = { (sample_image ()) with Program.symbols = [ ("_start", 0); ("fn2", 4) ] } in
  let lines = Disasm.disassemble_stream img.Program.text in
  let text =
    Format.asprintf "%a" (Disasm.pp_listing_symbols ~symbols:img.Program.symbols) lines
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has _start label" true (contains text "_start:");
  check Alcotest.bool "has fn2 label" true (contains text "fn2:")

(* ------------------------------------------------------------------ *)
(* Assembler / layout                                                  *)
(* ------------------------------------------------------------------ *)

let assemble_exn ?compress input =
  match Assemble.assemble ?compress input with
  | Ok img -> img
  | Error e -> Alcotest.failf "assemble failed: %s" e

let run_image image =
  let r = Eric_sim.Soc.run_program image in
  match r.Eric_sim.Soc.status with
  | Eric_sim.Cpu.Exited code -> (code, r.Eric_sim.Soc.output)
  | Eric_sim.Cpu.Faulted m | Eric_sim.Cpu.Integrity_fault m -> Alcotest.failf "fault: %s" m
  | Eric_sim.Cpu.Running -> Alcotest.fail "still running"

let exit_with_a0 body =
  (* wrap: body ... then exit(a0) *)
  { Assemble.text =
      (Assemble.Label "_start" :: body)
      @ [ Assemble.Li (Reg.a 7, 93L); Assemble.Ins Inst.Ecall ];
    data = Bytes.empty;
    data_symbols = [];
    bss_symbols = [];
    entry = "_start" }

let test_assemble_li_values () =
  (* Execute li for awkward constants on the SoC and inspect the produced
     register value byte by byte via the exit code. *)
  let check_value v =
    for byte = 0 to 7 do
      let input =
        exit_with_a0
          [ Assemble.Li (Reg.t_ 0, v);
            Assemble.Ins (Inst.Shift (Srli, Reg.t_ 0, Reg.t_ 0, 8 * byte));
            Assemble.Ins (Inst.I (Andi, Reg.a 0, Reg.t_ 0, 255)) ]
      in
      let code, _ = run_image (assemble_exn input) in
      let expected = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * byte)) 0xFFL) in
      check Alcotest.int (Printf.sprintf "li %Ld byte %d" v byte) expected code
    done
  in
  List.iter check_value [ 0L; 1L; -1L; 2047L; -2048L; 2048L; 0x7FFFFFFFL; 0x80000000L;
                          0xFFFFFFFFL; 0x9E3779B9L; Int64.min_int; Int64.max_int; 1103515245L ]

let test_assemble_li_exit_code () =
  List.iter
    (fun v ->
      let input = exit_with_a0 [ Assemble.Li (Reg.a 0, Int64.of_int v) ] in
      let code, _ = run_image (assemble_exn input) in
      check Alcotest.int (Printf.sprintf "exit %d" v) v code)
    [ 0; 1; 42; 100; 255 ]

let test_assemble_branches_and_labels () =
  (* Loop: sum 1..10 in a0. *)
  let input =
    exit_with_a0
      [ Assemble.Li (Reg.a 0, 0L); Assemble.Li (Reg.t_ 0, 1L); Assemble.Li (Reg.t_ 1, 10L);
        Assemble.Label "loop";
        Assemble.Ins (Inst.R (Add, Reg.a 0, Reg.a 0, Reg.t_ 0));
        Assemble.Ins (Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, 1));
        Assemble.Branch (Inst.Bge, Reg.t_ 1, Reg.t_ 0, "loop") ]
  in
  let code, _ = run_image (assemble_exn input) in
  check Alcotest.int "sum 1..10" 55 code

let test_assemble_far_branch_relaxed () =
  (* Branch over > 4 KiB of code must get relaxed and still behave. *)
  let filler = List.init 2000 (fun _ -> Assemble.Ins (Inst.I (Addi, Reg.t_ 2, Reg.t_ 2, 1))) in
  let input =
    exit_with_a0
      ([ Assemble.Li (Reg.a 0, 9L); Assemble.Branch (Inst.Beq, Reg.x0, Reg.x0, "far") ]
      @ filler
      @ [ Assemble.Label "skip_mark"; Assemble.Li (Reg.a 0, 1L); Assemble.Label "far" ])
  in
  let code, _ = run_image (assemble_exn input) in
  check Alcotest.int "took far branch" 9 code

let test_assemble_compression_shrinks () =
  let body =
    List.concat
      (List.init 50 (fun _ ->
           [ Assemble.Ins (Inst.I (Addi, Reg.a 0, Reg.a 0, 1));
             Assemble.Ins (Inst.R (Add, Reg.a 1, Reg.a 1, Reg.a 0)) ]))
  in
  let uncompressed = assemble_exn ~compress:false (exit_with_a0 body) in
  let compressed = assemble_exn ~compress:true (exit_with_a0 body) in
  check Alcotest.bool "smaller" true
    (Program.text_size compressed < Program.text_size uncompressed);
  (* Same architectural behaviour. *)
  let c1, _ = run_image uncompressed and c2, _ = run_image compressed in
  check Alcotest.int "same exit" c1 c2

let test_assemble_data_symbols () =
  let input =
    { Assemble.text =
        [ Assemble.Label "_start";
          Assemble.La (Reg.a 1, "greeting");
          Assemble.Li (Reg.a 0, 1L);
          Assemble.Li (Reg.a 2, 5L);
          Assemble.Li (Reg.a 7, 64L);
          Assemble.Ins Inst.Ecall;
          Assemble.La (Reg.t_ 0, "counter");
          Assemble.Li (Reg.t_ 1, 7L);
          Assemble.Ins (Inst.Store (Sd, Reg.t_ 1, Reg.t_ 0, 0));
          Assemble.Ins (Inst.Load (Ld, Reg.a 0, Reg.t_ 0, 0));
          Assemble.Li (Reg.a 7, 93L);
          Assemble.Ins Inst.Ecall ];
      data = Bytes.of_string "hello";
      data_symbols = [ ("greeting", 0) ];
      bss_symbols = [ ("counter", 8) ];
      entry = "_start" }
  in
  let code, out = run_image (assemble_exn input) in
  check Alcotest.string "wrote greeting" "hello" out;
  check Alcotest.int "bss readback" 7 code

let test_assemble_errors () =
  let is_err input = Result.is_error (Assemble.assemble input) in
  check Alcotest.bool "undefined label" true
    (is_err
       { Assemble.text = [ Assemble.Label "_start"; Assemble.Jump (Reg.x0, "nowhere") ];
         data = Bytes.empty; data_symbols = []; bss_symbols = []; entry = "_start" });
  check Alcotest.bool "duplicate label" true
    (is_err
       { Assemble.text =
           [ Assemble.Label "a"; Assemble.Ins Inst.Ecall; Assemble.Label "a"; Assemble.Ins Inst.Ecall ];
         data = Bytes.empty; data_symbols = []; bss_symbols = []; entry = "a" });
  check Alcotest.bool "missing entry" true
    (is_err
       { Assemble.text = [ Assemble.Label "a"; Assemble.Ins Inst.Ecall ];
         data = Bytes.empty; data_symbols = []; bss_symbols = []; entry = "other" });
  check Alcotest.bool "empty text" true
    (is_err
       { Assemble.text = [ Assemble.Label "a" ]; data = Bytes.empty; data_symbols = [];
         bss_symbols = []; entry = "a" })

let expand_li_matches_value =
  qtest ~count:300 "expand_li computes the constant" QCheck.int64 (fun v ->
      (* Interpret the expansion with a tiny evaluator over {addi, lui,
         addiw, slli}. *)
      let reg = ref 0L in
      List.iter
        (fun inst ->
          match inst with
          | Inst.I (Addi, _, rs1, imm) ->
            reg := if Reg.equal rs1 Reg.x0 then Int64.of_int imm else Int64.add !reg (Int64.of_int imm)
          | Inst.I (Addiw, _, _, imm) ->
            reg := Int64.of_int32 (Int64.to_int32 (Int64.add !reg (Int64.of_int imm)))
          | Inst.U (Lui, _, imm) -> reg := Int64.of_int (imm lsl 12)
          | Inst.Shift (Slli, _, _, sh) -> reg := Int64.shift_left !reg sh
          | _ -> failwith "unexpected instruction in li expansion")
        (Assemble.expand_li (Reg.a 0) v);
      Int64.equal !reg v)


(* ------------------------------------------------------------------ *)
(* Textual assembler                                                   *)
(* ------------------------------------------------------------------ *)

let asm_roundtrip =
  qtest ~count:1500 "print/parse instruction roundtrip" arb_inst (fun inst ->
      (* Wrap the printed instruction in a one-line program and check the
         parsed item is the same instruction.  Branch/jal targets print as
         numeric offsets, which the parser accepts directly. *)
      let text = Asm.print_inst inst in
      match Asm.parse ~entry:"_start" ("_start:\n  " ^ text ^ "\n") with
      | Error _ -> false
      | Ok input -> (
        match input.Assemble.text with
        | [ Assemble.Label "_start"; Assemble.Ins parsed ] -> Inst.equal parsed inst
        | [ Assemble.Label "_start"; Assemble.Jump (rd, _) ] -> (
          match inst with Inst.Jal (rd', _) -> Reg.equal rd rd' | _ -> false)
        | _ -> false))


(* Random whole-program property: generate an input with labels, branches
   between labels, data and bss; print it with Assemble.pp_input; re-parse
   with Asm; both must assemble to byte-identical programs. *)
let gen_asm_input : Assemble.input QCheck.Gen.t =
  let open QCheck.Gen in
  let straight_line =
    (* instructions safe at any position (no control flow) *)
    oneof
      [ map3 (fun rd rs1 imm -> Assemble.Ins (Inst.I (Addi, rd, rs1, imm))) gen_reg gen_reg
          (int_range (-100) 100);
        map3 (fun rd rs1 rs2 -> Assemble.Ins (Inst.R (Xor, rd, rs1, rs2))) gen_reg gen_reg gen_reg;
        map2 (fun rd v -> Assemble.Li (rd, Int64.of_int v)) gen_reg (int_range (-100000) 100000);
        map (fun rd -> Assemble.La (rd, "blob")) gen_reg;
        map2 (fun src base -> Assemble.Ins (Inst.Store (Sd, src, base, 16))) gen_reg gen_reg ]
  in
  let* n_blocks = int_range 1 4 in
  let labels = List.init n_blocks (fun i -> Printf.sprintf "blk%d" i) in
  let* blocks =
    flatten_l
      (List.mapi
         (fun i label ->
           let* body = list_size (int_bound 4) straight_line in
           let* jump_target = oneofl labels in
           let+ use_branch = bool in
           [ Assemble.Label label ] @ body
           @
           if i = n_blocks - 1 then [] (* fall through to the exit stub *)
           else if use_branch then [ Assemble.Branch (Inst.Beq, Reg.x0, Reg.x0, jump_target) ]
           else [ Assemble.Jump (Reg.x0, Printf.sprintf "blk%d" (i + 1)) ])
         labels)
  in
  let text =
    (Assemble.Label "_start" :: List.concat blocks)
    @ [ Assemble.Li (Reg.a 0, 0L); Assemble.Li (Reg.a 7, 93L); Assemble.Ins Inst.Ecall ]
  in
  return
    { Assemble.text; data = Bytes.of_string "somedata"; data_symbols = [ ("blob", 0) ];
      bss_symbols = [ ("scratch", 32) ]; entry = "_start" }

let arb_asm_input =
  QCheck.make ~print:(fun input -> Format.asprintf "%a" Assemble.pp_input input) gen_asm_input

let asm_pp_parse_roundtrip =
  qtest ~count:200 "pp_input/parse/assemble roundtrip" arb_asm_input (fun input ->
      match Assemble.assemble input with
      | Error _ -> QCheck.assume_fail () (* e.g. a branch target out of range; rare *)
      | Ok direct -> (
        let text = Format.asprintf "%a" Assemble.pp_input input in
        match Asm.assemble text with
        | Error _ -> false
        | Ok reparsed ->
          Bytes.equal direct.Program.text reparsed.Program.text
          && Bytes.equal direct.Program.data reparsed.Program.data
          && direct.Program.bss_size = reparsed.Program.bss_size
          && direct.Program.entry_offset = reparsed.Program.entry_offset))


let asm_parse_never_crashes =
  qtest ~count:500 "parse never raises on junk" QCheck.(string) (fun junk ->
      match Asm.parse junk with Ok _ | Error _ -> true)

let asm_parse_tokenish_fuzz =
  (* junk assembled from plausible assembly fragments *)
  let fragment =
    QCheck.Gen.oneofl
      [ "addi"; "a0"; "zero"; ","; "("; ")"; "16"; "-3"; ".data"; ".byte"; "label:"; "li";
        "0x10"; "beq"; "#c"; "\"s\""; "\n"; " "; "ld"; "sp"; ".space"; "jal"; "rdcycle" ]
  in
  qtest ~count:500 "parse never raises on token soup"
    (QCheck.make
       ~print:(fun parts -> String.concat " " parts)
       QCheck.Gen.(list_size (int_bound 20) fragment))
    (fun parts ->
      match Asm.parse (String.concat " " parts) with Ok _ | Error _ -> true)

let asm_run source =
  match Asm.assemble source with
  | Error e -> Alcotest.failf "asm error: %s" e
  | Ok image -> run_image image

let test_asm_program () =
  let code, out =
    asm_run
      {|
# sum the bytes of a message and print it via write()
.data
msg:    .asciz "hi"
        .align 3
nums:   .dword 7, -1
.bss
scratch: .space 16
.text
_start:
        la a1, msg
        li a0, 1
        li a2, 2
        li a7, 64
        ecall                 # write(1, msg, 2)
        la t0, nums
        ld a0, 0(t0)          # 7
        ld t1, 8(t0)          # -1
        add a0, a0, t1        # 6
        la t2, scratch
        sd a0, 8(t2)
        ld a0, 8(t2)
        li a7, 93
        ecall
|}
  in
  check Alcotest.string "wrote message" "hi" out;
  check Alcotest.int "computed exit" 6 code

let test_asm_pseudos () =
  let code, _ =
    asm_run
      {|
_start:
        li t0, 41
        mv a0, t0
        addi a0, a0, 1        # 42
        seqz t1, zero         # 1
        snez t2, a0           # 1
        add a0, a0, t1
        add a0, a0, t2        # 44
        neg t3, a0            # -44
        not t4, t3            # 43
        mv a0, t4
        j finish
        li a0, 0              # skipped
finish:
        li a7, 93
        ecall
|}
  in
  check Alcotest.int "pseudo semantics" 43 code

let test_asm_call_ret () =
  let code, _ =
    asm_run
      {|
_start:
        li a0, 5
        call double
        call double
        li a7, 93
        ecall
double:
        add a0, a0, a0
        ret
|}
  in
  check Alcotest.int "call/ret" 20 code

let test_asm_branches () =
  let code, _ =
    asm_run
      {|
_start:
        li t0, 0
        li a0, 0
loop:
        addi t0, t0, 1
        add a0, a0, t0
        li t1, 10
        blt t0, t1, loop
        beqz zero, done
        li a0, 0
done:
        li a7, 93
        ecall
|}
  in
  check Alcotest.int "sum 1..10" 55 code

let test_asm_errors () =
  let fails src =
    match Asm.parse src with Error _ -> true | Ok _ -> false
  in
  check Alcotest.bool "unknown mnemonic" true (fails "_start:\n  frobnicate a0\n");
  check Alcotest.bool "bad register" true (fails "_start:\n  addi q0, zero, 1\n");
  check Alcotest.bool "bad operand count" true (fails "_start:\n  add a0, a1\n");
  check Alcotest.bool "data in text" true (fails "_start:\n  .byte 1\n");
  check Alcotest.bool "bss without size" true (fails ".bss\nx:\n.text\n_start:\n  ecall\n");
  check Alcotest.bool "no labels" true (fails "  # nothing\n");
  check Alcotest.bool "unterminated string" true (fails ".data\ns: .asciz \"oops\n")

let test_asm_disasm_roundtrip_program () =
  (* Disassemble a compiled-style image and re-assemble the listing: the
     text bytes must match exactly (all offsets numeric, no labels). *)
  let original =
    [ Inst.I (Addi, Reg.a 0, Reg.x0, 21); Inst.Shift (Slli, Reg.a 0, Reg.a 0, 1);
      Inst.Branch (Bne, Reg.a 0, Reg.x0, 8); Inst.I (Addi, Reg.a 0, Reg.x0, 0);
      Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ]
  in
  let listing =
    "_start:\n"
    ^ String.concat "" (List.map (fun i -> "  " ^ Asm.print_inst i ^ "\n") original)
  in
  match Asm.assemble ~compress:false listing with
  | Error e -> Alcotest.fail e
  | Ok image -> (
    match Program.decode_all image with
    | Some insts ->
      check Alcotest.int "count" (List.length original) (Array.length insts);
      List.iteri
        (fun i inst ->
          check Alcotest.bool (Printf.sprintf "inst %d" i) true (Inst.equal inst insts.(i)))
        original
    | None -> Alcotest.fail "decode failed")

(* ------------------------------------------------------------------ *)
(* Decode∘encode identity over real compiler output                    *)
(* ------------------------------------------------------------------ *)

(* Every parcel of every workload's text section — including the RVC
   parcels the compressor emitted — must survive decode-then-re-encode
   bit-identically: the encoders are the only serialisation the
   encryption pipeline trusts. *)
let test_workload_text_parcel_roundtrip () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let image = Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source in
      let offsets = Program.parcel_offsets image in
      Array.iteri
        (fun i parcel ->
          let fail fmt =
            Printf.ksprintf
              (fun msg ->
                Alcotest.fail
                  (Printf.sprintf "%s +0x%x: %s" w.Eric_workloads.Workloads.name offsets.(i) msg))
              fmt
          in
          match parcel with
          | Program.P32 word -> (
            match Decode.decode word with
            | None -> fail "32-bit parcel %08lx does not decode" word
            | Some inst ->
              let re = Encode.encode inst in
              if re <> word then
                fail "decode/encode drift: %08lx -> %s -> %08lx" word
                  (Disasm.inst_to_string inst) re)
          | Program.P16 half -> (
            match Rvc.expand half with
            | None -> fail "16-bit parcel %04x does not expand" half
            | Some inst -> (
              match Rvc.compress inst with
              | None ->
                fail "expanded %04x (%s) no longer compresses" half
                  (Disasm.inst_to_string inst)
              | Some re ->
                if re <> half then
                  fail "expand/compress drift: %04x -> %s -> %04x" half
                    (Disasm.inst_to_string inst) re)))
        (Program.parcels image))
    Eric_workloads.Workloads.all

let () =
  Alcotest.run "eric_rv"
    [ ( "encode/decode",
        [ Alcotest.test_case "golden encode" `Quick test_golden_encode;
          Alcotest.test_case "golden decode" `Quick test_golden_decode;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "rejects bad funct" `Quick test_decode_invalid_funct;
          encode_decode_roundtrip ] );
      ( "rvc",
        [ Alcotest.test_case "exhaustive" `Quick test_rvc_exhaustive;
          Alcotest.test_case "known parcels" `Quick test_rvc_known_parcels;
          Alcotest.test_case "reserved encodings" `Quick test_rvc_reserved_encodings;
          Alcotest.test_case "immediate edges" `Quick test_rvc_immediate_edges;
          Alcotest.test_case "expand/compress coherent" `Quick test_rvc_expand_compress_coherent;
          compress_expand_roundtrip ] );
      ( "inst",
        [ Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "uses/defines" `Quick test_uses_defines;
          Alcotest.test_case "reg names" `Quick test_reg_names ] );
      ( "disasm",
        [ Alcotest.test_case "strings" `Quick test_disasm_strings;
          Alcotest.test_case "stream framing" `Quick test_disasm_stream_framing ] );
      ( "parcel-roundtrip",
        [ Alcotest.test_case "workload text sections" `Quick
            test_workload_text_parcel_roundtrip ] );
      ( "program",
        [ Alcotest.test_case "sizes" `Quick test_program_sizes;
          Alcotest.test_case "binary roundtrip" `Quick test_program_binary_roundtrip;
          Alcotest.test_case "binary rejects" `Quick test_program_binary_rejects;
          Alcotest.test_case "frame text" `Quick test_frame_text;
          parcels_match_reference;
          Alcotest.test_case "decode all" `Quick test_decode_all;
          Alcotest.test_case "symbol table roundtrip" `Quick test_program_symbol_table_roundtrip;
          Alcotest.test_case "symbolized listing" `Quick test_symbolized_listing;
          Alcotest.test_case "binary rejects odd entry" `Quick
            test_program_binary_rejects_odd_entry;
          Alcotest.test_case "binary rejects entry at text end" `Quick
            test_program_binary_rejects_entry_at_end;
          Alcotest.test_case "binary size" `Quick test_program_binary_size;
          image_flips ] );
      ( "asm-text",
        [ asm_roundtrip;
          asm_pp_parse_roundtrip;
          asm_parse_never_crashes;
          asm_parse_tokenish_fuzz;
          Alcotest.test_case "program with sections" `Quick test_asm_program;
          Alcotest.test_case "pseudo instructions" `Quick test_asm_pseudos;
          Alcotest.test_case "call/ret" `Quick test_asm_call_ret;
          Alcotest.test_case "branches and labels" `Quick test_asm_branches;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "disasm->asm roundtrip" `Quick test_asm_disasm_roundtrip_program ] );
      ( "assemble",
        [ Alcotest.test_case "li self-consistency" `Quick test_assemble_li_values;
          Alcotest.test_case "li exit code" `Quick test_assemble_li_exit_code;
          Alcotest.test_case "branches and labels" `Quick test_assemble_branches_and_labels;
          Alcotest.test_case "far branch relaxed" `Quick test_assemble_far_branch_relaxed;
          Alcotest.test_case "compression shrinks" `Quick test_assemble_compression_shrinks;
          Alcotest.test_case "data symbols" `Quick test_assemble_data_symbols;
          Alcotest.test_case "errors" `Quick test_assemble_errors;
          expand_li_matches_value ] ) ]
