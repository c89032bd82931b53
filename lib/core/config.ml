type selection =
  | Select_all
  | Select_fraction of { fraction : float; seed : int64 }
  | Select_ranges of (int * int) list

type field_scope = Imm_fields | All_but_opcode | Control_flow

type mode = Full | Partial of selection | Field of field_scope * selection

let pp_selection fmt = function
  | Select_all -> Format.pp_print_string fmt "all"
  | Select_fraction { fraction; seed } -> Format.fprintf fmt "%.0f%% (seed %Ld)" (100.0 *. fraction) seed
  | Select_ranges rs ->
    Format.fprintf fmt "ranges[%s]"
      (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "0x%x-0x%x" a b) rs))

let pp_mode fmt = function
  | Full -> Format.pp_print_string fmt "full"
  | Partial s -> Format.fprintf fmt "partial(%a)" pp_selection s
  | Field (Imm_fields, s) -> Format.fprintf fmt "field(imm, %a)" pp_selection s
  | Field (All_but_opcode, s) -> Format.fprintf fmt "field(all-but-opcode, %a)" pp_selection s
  | Field (Control_flow, s) -> Format.fprintf fmt "field(control-flow, %a)" pp_selection s

(* Opcode-derived field masks.  The opcode is never part of the mask, so
   the decryptor can re-derive the mask from the ciphertext parcel. *)
let field_mask32 scope word =
  let opcode = Int32.to_int (Int32.logand word 0x7Fl) in
  match scope with
  | All_but_opcode -> 0xFFFFFF80l
  | Imm_fields -> (
    match opcode with
    | 0b0000011 (* loads *) | 0b1100111 (* jalr *) -> Eric_rv.Encode.Field.imm_i
    | 0b0100011 (* stores *) | 0b1100011 (* branches *) -> Eric_rv.Encode.Field.imm_s
    | 0b1101111 (* jal *) | 0b0110111 (* lui *) | 0b0010111 (* auipc *) ->
      Eric_rv.Encode.Field.imm_u
    | _ -> 0l)
  | Control_flow -> (
    (* Branch-offset + call-edge encryption: only the displacement fields
       of control-transfer instructions.  Hides where branches/calls land
       (the structural metadata) while every data instruction ships
       byte-identical to the plain image. *)
    match opcode with
    | 0b1100011 (* branches: B-imm shares the S-type bit region *) ->
      Eric_rv.Encode.Field.imm_s
    | 0b1101111 (* jal: J-imm shares the U-type bit region *) ->
      Eric_rv.Encode.Field.imm_u
    | 0b1100111 (* jalr *) -> Eric_rv.Encode.Field.imm_i
    | _ -> 0l)

let field_mask16 scope parcel =
  match scope with
  | Imm_fields -> 0
  | All_but_opcode -> 0x1FFC (* everything except quadrant [1:0] and funct3 [15:13] *)
  | Control_flow -> (
    (* Compressed control transfers: c.j carries an 11-bit jump
       displacement, c.beqz / c.bnez an 8-bit branch displacement woven
       around the rs1' field (bits [11:10] and [6:2]).  On RV64 the c.jal
       slot is c.addiw, so quadrant 1 / funct3 1 stays plaintext. *)
    let quadrant = parcel land 0x3 in
    let funct3 = (parcel lsr 13) land 0x7 in
    match (quadrant, funct3) with
    | 1, 5 (* c.j *) -> 0x1FFC
    | 1, 6 (* c.beqz *) | 1, 7 (* c.bnez *) -> 0x1C7C
    | _ -> 0)

let selected selection ~index ~offset ~rng =
  match selection with
  | Select_all -> true
  | Select_fraction { fraction; _ } ->
    ignore index;
    Eric_util.Prng.float rng < fraction
  | Select_ranges ranges -> List.exists (fun (lo, hi) -> offset >= lo && offset < hi) ranges

let selection_of_mode = function
  | Full -> Select_all
  | Partial s | Field (_, s) -> s

let selection_bits mode ~parcels ~offsets =
  let n = Array.length parcels in
  if Array.length offsets <> n then invalid_arg "Config.selection_bits: offsets/parcels mismatch";
  let selection = selection_of_mode mode in
  let rng =
    match selection with
    | Select_fraction { seed; _ } -> Eric_util.Prng.create ~seed
    | Select_all | Select_ranges _ -> Eric_util.Prng.create ~seed:0L
  in
  let bits = Eric_util.Bitvec.create n in
  Array.iteri
    (fun i parcel ->
      (* Draw the coin for every parcel so the selection of parcel i does
         not depend on which earlier parcels had maskable fields. *)
      let chosen = selected selection ~index:i ~offset:offsets.(i) ~rng in
      let maskable =
        match mode with
        | Full | Partial _ -> true
        | Field (scope, _) -> (
          match parcel with
          | Eric_rv.Program.P32 w -> field_mask32 scope w <> 0l
          | Eric_rv.Program.P16 p -> field_mask16 scope p <> 0)
      in
      if chosen && maskable then Eric_util.Bitvec.set bits i true)
    parcels;
  bits
