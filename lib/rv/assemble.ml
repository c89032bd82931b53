type item =
  | Label of string
  | Ins of Inst.t
  | Branch of Inst.branch_op * Reg.t * Reg.t * string
  | Jump of Reg.t * string
  | La of Reg.t * string
  | Li of Reg.t * int64

type input = {
  text : item list;
  data : bytes;
  data_symbols : (string * int) list;
  bss_symbols : (string * int) list;
  entry : string;
}

(* -------------------------------------------------------------------- *)
(* Constant materialisation                                              *)
(* -------------------------------------------------------------------- *)

let fits_simm ~bits v =
  let open Int64 in
  let lo = neg (shift_left 1L (bits - 1)) and hi = sub (shift_left 1L (bits - 1)) 1L in
  compare v lo >= 0 && compare v hi <= 0

let expand_li rd v =
  let rec go v =
    if fits_simm ~bits:12 v then [ Inst.I (Addi, rd, Reg.x0, Int64.to_int v) ]
    else if fits_simm ~bits:32 v then begin
      (* lui hi20 then addiw lo12; addiw keeps the value sign-extended from
         bit 31, matching what lui produced. *)
      let lo = Int64.to_int (Int64.sub v (Int64.mul (Int64.div (Int64.add v 0x800L) 0x1000L) 0x1000L)) in
      let lo = if lo >= 2048 then lo - 4096 else if lo < -2048 then lo + 4096 else lo in
      let hi = Int64.to_int (Int64.shift_right (Int64.sub v (Int64.of_int lo)) 12) in
      (* The hi part is a *signed* 20-bit lui immediate: values at the top
         of the positive 32-bit range wrap negative, and the following
         addiw's 32-bit sign extension puts the result right. *)
      let hi = if hi >= 0x80000 then hi - 0x100000 else hi in
      let lui = Inst.U (Lui, rd, hi) in
      if lo = 0 then [ lui ] else [ lui; Inst.I (Addiw, rd, rd, lo) ]
    end
    else begin
      (* Peel the low 12 bits, materialise the rest, then shift-and-add. *)
      let lo = Int64.to_int (Int64.sub v (Int64.mul (Int64.div (Int64.add v 0x800L) 0x1000L) 0x1000L)) in
      let lo = if lo >= 2048 then lo - 4096 else if lo < -2048 then lo + 4096 else lo in
      let hi = Int64.shift_right (Int64.sub v (Int64.of_int lo)) 12 in
      let rest = go hi @ [ Inst.Shift (Slli, rd, rd, 12) ] in
      if lo = 0 then rest else rest @ [ Inst.I (Addi, rd, rd, lo) ]
    end
  in
  go v

let expand_la rd addr =
  let lo = addr land 0xFFF in
  let lo = if lo >= 2048 then lo - 4096 else lo in
  let hi = (addr - lo) asr 12 in
  [ Inst.U (Lui, rd, hi); Inst.I (Addi, rd, rd, lo) ]

(* -------------------------------------------------------------------- *)
(* Layout state                                                          *)
(* -------------------------------------------------------------------- *)

type unit_kind =
  | U_ins of Inst.t
  | U_branch of Inst.branch_op * Reg.t * Reg.t * string
  | U_jump of Reg.t * string
  | U_la of Reg.t * string

type unit_state = {
  kind : unit_kind;
  mutable size : int;
  mutable relaxed : bool;  (** sticky: branch rewritten as inverted branch + jal *)
  mutable parcels : Program.parcel list;
}

let invert_branch : Inst.branch_op -> Inst.branch_op = function
  | Beq -> Bne | Bne -> Beq | Blt -> Bge | Bge -> Blt | Bltu -> Bgeu | Bgeu -> Bltu

exception Asm_error of string

let err fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

let encode_unit ~compress ~resolve ~offset u =
  (* Produce the final instruction list for a unit given current symbol
     offsets, then parcelise (compressing eligible instructions). *)
  let insts =
    match u.kind with
    | U_ins i -> [ i ]
    | U_la (rd, sym) -> expand_la rd (resolve sym)
    | U_jump (rd, lbl) ->
      let delta = resolve lbl - offset in
      if not (Inst.fits_simm ~bits:21 delta) then err "jump to %s out of range (%d bytes)" lbl delta;
      [ Inst.Jal (rd, delta) ]
    | U_branch (op, rs1, rs2, lbl) ->
      let delta = resolve lbl - offset in
      if u.relaxed || not (Inst.fits_simm ~bits:13 delta) then begin
        u.relaxed <- true;
        (* Inverted branch skips the unconditional jump.  The branch's own
           size depends on compression, so the skip distance is computed
           from the encoded first instruction below; use the conservative
           4-byte form and never compress the inverted branch. *)
        let jal_delta = resolve lbl - (offset + 4) in
        if not (Inst.fits_simm ~bits:21 jal_delta) then
          err "relaxed branch to %s out of range" lbl;
        [ Inst.Branch (invert_branch op, rs1, rs2, 8); Inst.Jal (Reg.x0, jal_delta) ]
      end
      else [ Inst.Branch (op, rs1, rs2, delta) ]
  in
  let compressible inst =
    match u.kind with
    | U_la _ -> None (* fixed-size by design *)
    | U_branch _ when u.relaxed -> (
      (* Only the jal half may compress; the inverted branch's +8 skip
         assumed a 4-byte form, so keep it 4 bytes. *)
      match inst with Inst.Jal _ -> Rvc.compress inst | _ -> None)
    | _ -> Rvc.compress inst
  in
  let parcels =
    List.map
      (fun inst ->
        match if compress then compressible inst else None with
        | Some p -> Program.P16 p
        | None -> Program.P32 (Encode.encode inst))
      insts
  in
  (* A relaxed branch's skip distance depends on whether its jal half got
     compressed; re-encode the inverted branch with the actual jal size. *)
  let parcels =
    match (u.relaxed, u.kind, parcels) with
    | true, U_branch (op, rs1, rs2, _), [ Program.P32 _; jal ] ->
      let first = Inst.Branch (invert_branch op, rs1, rs2, 4 + Program.parcel_size jal) in
      [ Program.P32 (Encode.encode first); jal ]
    | _ -> parcels
  in
  u.parcels <- parcels;
  u.size <- List.fold_left (fun acc p -> acc + Program.parcel_size p) 0 parcels

let assemble ?(compress = true) input =
  try
    (* Expand Li eagerly (sizes depend only on the constant). *)
    let items =
      List.concat_map
        (function
          | Li (rd, v) -> List.map (fun i -> Ins i) (expand_li rd v)
          | other -> [ other ])
        input.text
    in
    let units = ref [] and labels = Hashtbl.create 64 in
    let unit_count = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Label name ->
          if Hashtbl.mem labels name then err "duplicate label %s" name;
          Hashtbl.add labels name !unit_count
        | Ins i ->
          (match Inst.validate i with Ok () -> () | Error m -> err "invalid instruction: %s" m);
          units := { kind = U_ins i; size = 4; relaxed = false; parcels = [] } :: !units;
          incr unit_count
        | Branch (op, r1, r2, lbl) ->
          units := { kind = U_branch (op, r1, r2, lbl); size = 4; relaxed = false; parcels = [] } :: !units;
          incr unit_count
        | Jump (rd, lbl) ->
          units := { kind = U_jump (rd, lbl); size = 4; relaxed = false; parcels = [] } :: !units;
          incr unit_count
        | La (rd, sym) ->
          units := { kind = U_la (rd, sym); size = 8; relaxed = false; parcels = [] } :: !units;
          incr unit_count
        | Li _ -> assert false)
      items;
    let units = Array.of_list (List.rev !units) in
    if Array.length units = 0 then err "empty text section";
    (* Per-label unit index -> byte offset, recomputed each iteration. *)
    let unit_offsets = Array.make (Array.length units + 1) 0 in
    let compute_offsets () =
      let off = ref 0 in
      Array.iteri
        (fun i u ->
          unit_offsets.(i) <- !off;
          off := !off + u.size)
        units;
      unit_offsets.(Array.length units) <- !off;
      !off
    in
    (* Data and BSS symbol offsets are layout-independent; absolute
       addresses depend on the (shrinking) text size. *)
    let bss_offsets =
      let off = ref 0 in
      List.map
        (fun (name, size) ->
          if size < 0 then err "negative bss size for %s" name;
          let here = !off in
          off := !off + ((size + 7) / 8 * 8);
          (name, here))
        input.bss_symbols
    in
    let bss_total = List.fold_left (fun acc (_, s) -> acc + ((s + 7) / 8 * 8)) 0 input.bss_symbols in
    (* Pad the data section to 8 bytes so the BSS that follows it stays
       naturally aligned for 64-bit stores. *)
    let data =
      let len = Bytes.length input.data in
      let padded = (len + 7) / 8 * 8 in
      if padded = len then input.data
      else begin
        let b = Bytes.make padded '\000' in
        Bytes.blit input.data 0 b 0 len;
        b
      end
    in
    let make_resolver text_size =
      let text_base = Program.Layout.text_base in
      let data_base = text_base + ((text_size + 0xFFF) / 0x1000 * 0x1000) in
      let bss_base = data_base + Bytes.length data in
      fun sym ->
        match Hashtbl.find_opt labels sym with
        | Some unit_index -> text_base + unit_offsets.(unit_index)
        | None -> (
          match List.assoc_opt sym input.data_symbols with
          | Some off -> data_base + off
          | None -> (
            match List.assoc_opt sym bss_offsets with
            | Some off -> bss_base + off
            | None -> err "undefined symbol %s" sym))
    in
    (* Label resolution for branches is text-relative; reuse the absolute
       resolver and subtract. *)
    let rec iterate n =
      if n > 64 then err "layout did not converge";
      let text_size = compute_offsets () in
      let resolve_abs = make_resolver text_size in
      let changed = ref false in
      Array.iteri
        (fun i u ->
          let before = u.size in
          let offset = Program.Layout.text_base + unit_offsets.(i) in
          (* Branch targets must be text labels; resolve gives absolute. *)
          encode_unit ~compress ~resolve:resolve_abs ~offset u;
          if u.size <> before then changed := true)
        units;
      if !changed then iterate (n + 1)
    in
    iterate 0;
    ignore (compute_offsets ());
    let parcels = Array.of_list (List.concat_map (fun u -> u.parcels) (Array.to_list units)) in
    let entry_offset =
      match Hashtbl.find_opt labels input.entry with
      | Some idx -> unit_offsets.(idx)
      | None -> err "entry label %s not defined" input.entry
    in
    let symbols = Hashtbl.fold (fun name idx acc -> (name, unit_offsets.(idx)) :: acc) labels [] in
    Ok
      {
        (Program.of_parcels parcels) with
        Program.data = Bytes.copy data;
        bss_size = bss_total;
        entry_offset;
        symbols = List.sort compare symbols;
      }
  with Asm_error msg -> Error msg

let pp_input fmt (input : input) =
  let p fm = Format.fprintf fmt fm in
  p "# generated by eric (entry %s)@." input.entry;
  p ".text@.";
  List.iter
    (fun item ->
      match item with
      | Label name -> p "%s:@." name
      | Ins i -> p "  %s@." (Disasm.inst_to_string i)
      | Branch (op, rs1, rs2, target) ->
        p "  %s %s, %s, %s@."
          (Inst.mnemonic (Inst.Branch (op, rs1, rs2, 0)))
          (Reg.abi_name rs1) (Reg.abi_name rs2) target
      | Jump (rd, target) -> p "  jal %s, %s@." (Reg.abi_name rd) target
      | La (rd, sym) -> p "  la %s, %s@." (Reg.abi_name rd) sym
      | Li (rd, v) -> p "  li %s, %Ld@." (Reg.abi_name rd) v)
    input.text;
  if Bytes.length input.data > 0 then begin
    p ".data@.";
    (* Dump the data image byte for byte, splitting at symbol offsets so
       each symbol binds to exactly its original position. *)
    let boundaries =
      List.sort_uniq compare (List.map snd input.data_symbols @ [ 0; Bytes.length input.data ])
    in
    let label_at off =
      List.filter_map (fun (n, o) -> if o = off then Some n else None) input.data_symbols
    in
    let rec chunks = function
      | start :: (next :: _ as rest) ->
        List.iter (fun name -> p "%s:@." name) (label_at start);
        if next > start then begin
          let bytes =
            List.init (next - start) (fun i ->
                string_of_int (Char.code (Bytes.get input.data (start + i))))
          in
          p "  .byte %s@." (String.concat ", " bytes)
        end;
        chunks rest
      | [ last ] -> List.iter (fun name -> p "%s:@." name) (label_at last)
      | [] -> ()
    in
    chunks boundaries
  end;
  if input.bss_symbols <> [] then begin
    p ".bss@.";
    List.iter (fun (name, size) -> p "%s:@.  .space %d@." name size) input.bss_symbols
  end
