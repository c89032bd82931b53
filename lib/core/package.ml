type mode_kind = M_full | M_partial | M_field of Config.field_scope

let kind_of_mode : Config.mode -> mode_kind = function
  | Config.Full -> M_full
  | Config.Partial _ -> M_partial
  | Config.Field (scope, _) -> M_field scope

let tag_of_kind = function
  | M_full -> 0
  | M_partial -> 1
  | M_field Config.Imm_fields -> 2
  | M_field Config.All_but_opcode -> 3
  | M_field Config.Control_flow -> 4

let kind_of_tag = function
  | 0 -> Ok M_full
  | 1 -> Ok M_partial
  | 2 -> Ok (M_field Config.Imm_fields)
  | 3 -> Ok (M_field Config.All_but_opcode)
  | 4 -> Ok (M_field Config.Control_flow)
  | t -> Error (Printf.sprintf "unknown mode tag %d" t)

type t = {
  kind : mode_kind;
  entry_offset : int;
  bss_size : int;
  parcel_count : int;
  map : Eric_util.Bitvec.t option;
  obf : (int * int64) option;
  enc_text : bytes;
  data : bytes;
  enc_signature : bytes;
}

module W = Eric_util.Wire

let magic = "EPKG"
let version = 1
let header_size = 32

(* Flags byte (offset 7).  Bit 0 = obfuscation metadata block present;
   bits 1-7 remain reserved-must-be-zero. *)
let flag_obf = 0x01

(* Low 5 bits of the pass mask are assigned (lib/obf owns the name <->
   bit mapping); 5-7 are reserved. *)
let obf_pass_bits = 0x1F
let obf_block_size = 9

let map_len t = match t.map with None -> 0 | Some m -> (Eric_util.Bitvec.length m + 7) / 8

let authenticated_header_size t =
  header_size + map_len t + (match t.obf with None -> 0 | Some _ -> obf_block_size)

let size t =
  authenticated_header_size t + Bytes.length t.enc_text + Bytes.length t.data
  + Siggen.signature_size

let authenticated_header t =
  let map = match t.map with None -> Bytes.empty | Some m -> Eric_util.Bitvec.to_bytes m in
  let buf = Buffer.create (header_size + Bytes.length map + obf_block_size) in
  Buffer.add_string buf magic;
  W.add_u16 buf version;
  W.add_u8 buf (tag_of_kind t.kind);
  W.add_u8 buf (match t.obf with None -> 0 | Some _ -> flag_obf);
  W.add_u32 buf t.entry_offset;
  W.add_u32 buf (Bytes.length t.enc_text);
  W.add_u32 buf (Bytes.length t.data);
  W.add_u32 buf t.bss_size;
  W.add_u32 buf t.parcel_count;
  W.add_u32 buf (Bytes.length map);
  Buffer.add_bytes buf map;
  (match t.obf with
  | None -> ()
  | Some (mask, seed) ->
    W.add_u8 buf mask;
    W.add_u64 buf seed);
  Buffer.to_bytes buf

let serialize t =
  Bytes.concat Bytes.empty [ authenticated_header t; t.enc_text; t.data; t.enc_signature ]

let read c =
  let len = W.remaining c in
  if len < header_size then W.fail c "package too short";
  W.magic c magic "bad magic (not an EPKG)";
  if W.u16 c "version" <> version then W.fail c "unsupported package version";
  let kind = match kind_of_tag (W.u8 c "mode tag") with Ok k -> k | Error e -> W.fail c e in
  (* Strict parsing: bytes the decoder would otherwise ignore (reserved
     flags, map padding bits) must be zero, so that every wire bit is
     either interpreted or rejected — a flipped "don't care" bit cannot
     silently pass validation. *)
  let flags = W.u8 c "flags" in
  if flags land lnot flag_obf <> 0 then W.fail c "reserved flags set";
  let has_obf = flags land flag_obf <> 0 in
  let obf_len = if has_obf then obf_block_size else 0 in
  let entry_offset = W.i32 c "entry offset" in
  let text_len = W.i32 c "text length" in
  let data_len = W.i32 c "data length" in
  let bss_size = W.i32 c "bss size" in
  let parcel_count = W.i32 c "parcel count" in
  let map_len = W.i32 c "map length" in
  if text_len < 0 || data_len < 0 || bss_size < 0 || parcel_count < 0 || map_len < 0 then
    W.fail c "negative section length";
  let expected = header_size + map_len + obf_len + text_len + data_len + Siggen.signature_size in
  if len <> expected then
    W.fail c (Printf.sprintf "package length %d does not match header (%d)" len expected);
  (* Parcels are 2 or 4 bytes, so a consistent header has
     2*parcel_count <= text_len <= 4*parcel_count.  An attacker shrinking
     or growing one of the two fields must be caught here, before any
     keystream or signature work happens. *)
  if text_len < 2 * parcel_count || text_len > 4 * parcel_count then
    W.fail c "parcel count inconsistent with text length";
  let map =
    match kind with
    | M_full -> if map_len = 0 then None else W.fail c "full-encryption package carries a map"
    | M_partial | M_field _ ->
      let exact = (parcel_count + 7) / 8 in
      if map_len < exact then W.fail c "encryption map shorter than parcel count";
      if map_len > exact then W.fail c "encryption map longer than parcel count";
      Some (W.bitvec c parcel_count "encryption map")
  in
  let obf =
    if not has_obf then None
    else begin
      let mask = W.u8 c "obfuscation pass mask" in
      if mask land lnot obf_pass_bits <> 0 then W.fail c "reserved obfuscation pass bits set";
      if mask = 0 then W.fail c "obfuscation metadata without passes";
      Some (mask, W.u64 c "build seed")
    end
  in
  if entry_offset < 0 || entry_offset > text_len then W.fail c "entry out of range";
  if entry_offset land 1 <> 0 then W.fail c "entry not parcel-aligned";
  if entry_offset = text_len && text_len > 0 then W.fail c "entry out of range";
  let enc_text = W.bytes c text_len "text" in
  let data = W.bytes c data_len "data" in
  let enc_signature = W.bytes c Siggen.signature_size "signature" in
  { kind; entry_offset; bss_size; parcel_count; map; obf; enc_text; data; enc_signature }

let parse b = W.decode ~format:"package" b read

let pp_kind fmt = function
  | M_full -> Format.pp_print_string fmt "full"
  | M_partial -> Format.pp_print_string fmt "partial"
  | M_field Config.Imm_fields -> Format.pp_print_string fmt "field(imm)"
  | M_field Config.All_but_opcode -> Format.pp_print_string fmt "field(all-but-opcode)"
  | M_field Config.Control_flow -> Format.pp_print_string fmt "field(control-flow)"

let pp_summary fmt t =
  Format.fprintf fmt "%a package: %d B total (text %d B, %d parcels, map %d B, data %d B)" pp_kind
    t.kind (size t) (Bytes.length t.enc_text) t.parcel_count (map_len t) (Bytes.length t.data);
  match t.obf with
  | None -> ()
  | Some (mask, seed) ->
    Format.fprintf fmt ", obfuscated (pass mask 0x%02x, seed 0x%Lx)" mask seed
