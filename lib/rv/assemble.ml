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

(* -------------------------------------------------------------------- *)
(* Layout                                                                *)
(* -------------------------------------------------------------------- *)

exception Asm_error of string

let err fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

(* A symbol operand, resolved once: a text label's unit index, or an
   offset into data or BSS.  The address each stands for moves with the
   layout. *)
type target = Text of int | Data of int | Bss of int | Undefined of string

(* A unit whose encoding depends on the layout: a Branch, Jump or La
   item.  [first] and [second] are its parcels at the current layout;
   [second] is -1 while the unit is one parcel. *)
type placed = {
  at : int;  (** unit index *)
  item : item;
  target : target;
  mutable size : int;
  mutable relaxed : bool;  (** sticky: branch rewritten as inverted branch + jal *)
  mutable first : int;
  mutable second : int;
}

let invert_branch : Inst.branch_op -> Inst.branch_op = function
  | Beq -> Bne | Bne -> Beq | Blt -> Bge | Bge -> Blt | Bltu -> Bgeu | Bgeu -> Bltu

(* Parcels are ints: a 16-bit compressed form, or a 32-bit word whose low
   two bits are [11], the ISA's length encoding. *)
let parcel_size p = if p land 0b11 = 0b11 then 4 else 2

let parcel ~compress inst =
  match if compress then Rvc.compress inst else None with
  | Some p -> p
  | None -> Encode.encode_int inst

let put text off p =
  Bytes.set_uint16_le text off (p land 0xFFFF);
  if parcel_size p = 4 then Bytes.set_uint16_le text (off + 2) (p lsr 16)

(* Encode [u] at absolute address [here], its target at [address]. *)
let place ~compress u ~here ~address =
  match u.item with
  | La (rd, _) ->
    (* Fixed-size by design: never compressed. *)
    let lo = address land 0xFFF in
    let lo = if lo >= 2048 then lo - 4096 else lo in
    u.first <- Encode.encode_int (Inst.U (Lui, rd, (address - lo) asr 12));
    u.second <- Encode.encode_int (Inst.I (Addi, rd, rd, lo))
  | Jump (rd, lbl) ->
    let delta = address - here in
    if not (Inst.fits_simm ~bits:21 delta) then err "jump to %s out of range (%d bytes)" lbl delta;
    u.first <- parcel ~compress (Inst.Jal (rd, delta));
    u.size <- parcel_size u.first
  | Branch (op, rs1, rs2, lbl) ->
    let delta = address - here in
    if u.relaxed || not (Inst.fits_simm ~bits:13 delta) then begin
      u.relaxed <- true;
      (* An inverted branch skips the jal.  Only the jal may compress, so
         the skip is 4 plus the jal's encoded size. *)
      let jal_delta = address - (here + 4) in
      if not (Inst.fits_simm ~bits:21 jal_delta) then err "relaxed branch to %s out of range" lbl;
      u.second <- parcel ~compress (Inst.Jal (Reg.x0, jal_delta));
      u.size <- 4 + parcel_size u.second;
      u.first <- Encode.encode_int (Inst.Branch (invert_branch op, rs1, rs2, u.size))
    end
    else begin
      u.first <- parcel ~compress (Inst.Branch (op, rs1, rs2, delta));
      u.size <- parcel_size u.first
    end
  | Label _ | Ins _ | Li _ -> assert false

let assemble ?(compress = true) input =
  try
    (* Read the items once.  An instruction that is not a branch, jump or
       La is validated and encoded here, after Li expansion; a label names
       the index of the unit after it.  [code] holds, per unit, a plain
       instruction's parcel, or [-1 - k] for the [k]th placed unit. *)
    let labels = Hashtbl.create 64 in
    let code = ref (Array.make (max 1 (List.length input.text)) 0) and n = ref 0 in
    let push c =
      if !n = Array.length !code then begin
        let grown = Array.make (2 * !n) 0 in
        Array.blit !code 0 grown 0 !n;
        code := grown
      end;
      !code.(!n) <- c;
      incr n
    in
    let compressed = ref false and pending = ref [] and placed_count = ref 0 in
    let plain i =
      (match Inst.validate i with Ok () -> () | Error m -> err "invalid instruction: %s" m);
      let p = parcel ~compress i in
      if parcel_size p = 2 then compressed := true;
      push p
    in
    List.iter
      (fun item ->
        match item with
        | Label name ->
          if Hashtbl.mem labels name then err "duplicate label %s" name;
          Hashtbl.add labels name !n
        | Ins i -> plain i
        | Li (rd, v) -> List.iter plain (expand_li rd v)
        | Branch (_, _, _, name) | Jump (_, name) | La (_, name) ->
          pending := (!n, item, name) :: !pending;
          push (-1 - !placed_count);
          incr placed_count)
      input.text;
    let n = !n and code = !code in
    if n = 0 then err "empty text section";
    (* Data and BSS symbol offsets are layout-independent; absolute
       addresses depend on the text size. *)
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
    let data = Bytes.make ((Bytes.length input.data + 7) / 8 * 8) '\000' in
    Bytes.blit input.data 0 data 0 (Bytes.length input.data);
    let target name =
      match Hashtbl.find_opt labels name with
      | Some i -> Text i
      | None -> (
        match List.assoc_opt name input.data_symbols with
        | Some off -> Data off
        | None -> (
          match List.assoc_opt name bss_offsets with
          | Some off -> Bss off
          | None -> Undefined name))
    in
    let placed =
      Array.of_list
        (List.rev_map
           (fun (at, item, name) ->
             let size = match item with La _ -> 8 | _ -> 4 in
             { at; item; target = target name; size; relaxed = false; first = 0; second = -1 })
           !pending)
    in
    (* One layout pass: offsets are the prefix sums of the unit sizes, and
       only the placed units are re-encoded.  True if one changed size. *)
    let text_base = Program.Layout.text_base in
    let off = Array.make (n + 1) 0 in
    let lay_out ~encoded =
      let o = ref 0 in
      for i = 0 to n - 1 do
        off.(i) <- !o;
        let c = code.(i) in
        o := !o + if c < 0 then placed.(-1 - c).size else if encoded then parcel_size c else 4
      done;
      off.(n) <- !o;
      let data_base = text_base + ((!o + 0xFFF) / 0x1000 * 0x1000) in
      let changed = ref false in
      Array.iter
        (fun u ->
          let address =
            match u.target with
            | Text i -> text_base + off.(i)
            | Data o -> data_base + o
            | Bss o -> data_base + Bytes.length data + o
            | Undefined name -> err "undefined symbol %s" name
          in
          let size = u.size in
          place ~compress u ~here:(text_base + off.(u.at)) ~address;
          if u.size <> size then changed := true)
        placed;
      !changed
    in
    (* Pass 0 lays every unit out at its initial size, 4 bytes (8 for La),
       and only later passes use the plain units' encoded sizes.  Relaxation
       is sticky, so a branch this over-estimate relaxes stays relaxed:
       sizing plain units up front would change images. *)
    let rec iterate pass =
      if pass > 64 then err "layout did not converge";
      let changed = lay_out ~encoded:(pass > 0) in
      if changed || (pass = 0 && !compressed) then iterate (pass + 1)
    in
    iterate 0;
    let text = Bytes.create off.(n) in
    for i = 0 to n - 1 do
      let c = code.(i) in
      if c >= 0 then put text off.(i) c
      else begin
        let u = placed.(-1 - c) in
        put text off.(i) u.first;
        if u.second >= 0 then put text (off.(i) + parcel_size u.first) u.second
      end
    done;
    let entry_offset =
      match Hashtbl.find_opt labels input.entry with
      | Some i -> off.(i)
      | None -> err "entry label %s not defined" input.entry
    in
    (* Labels are unique, so sorting by name alone is a total order. *)
    let symbols = Hashtbl.fold (fun name i acc -> (name, off.(i)) :: acc) labels [] in
    Ok
      {
        Program.text;
        data;
        bss_size = bss_total;
        entry_offset;
        symbols = List.sort (fun (a, _) (b, _) -> String.compare a b) symbols;
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
