type parcel = P16 of int | P32 of int32

type t = {
  text : bytes;
  data : bytes;
  bss_size : int;
  entry_offset : int;
  symbols : (string * int) list;
}

let parcel_size = function P16 _ -> 2 | P32 _ -> 4
let text_size t = Bytes.length t.text
let total_size t = text_size t + Bytes.length t.data

(* The ISA's length encoding: low two bits [11] mark a 32-bit parcel. *)
let size_at text off = if Bytes.get_uint16_le text off land 0b11 = 0b11 then 4 else 2

(* The number of parcels [text] tiles into; [None] for an odd trailing
   byte or a cut 32-bit parcel. *)
let count_parcels text =
  let n = Bytes.length text in
  let rec count off parcels =
    if off = n then Some parcels
    else if off + 2 > n then None
    else
      let size = size_at text off in
      if off + size > n then None else count (off + size) (parcels + 1)
  in
  count 0 0

let parcel_count fn t =
  match count_parcels t.text with
  | Some n -> n
  | None -> invalid_arg (fn ^ ": text does not tile into parcels")

let parcels t =
  let out = Array.make (parcel_count "Program.parcels" t) (P16 0) in
  let off = ref 0 in
  for i = 0 to Array.length out - 1 do
    if size_at t.text !off = 4 then begin
      out.(i) <- P32 (Bytes.get_int32_le t.text !off);
      off := !off + 4
    end
    else begin
      out.(i) <- P16 (Bytes.get_uint16_le t.text !off);
      off := !off + 2
    end
  done;
  out

let parcel_offsets t =
  let out = Array.make (parcel_count "Program.parcel_offsets" t) 0 in
  let off = ref 0 in
  for i = 0 to Array.length out - 1 do
    out.(i) <- !off;
    off := !off + size_at t.text !off
  done;
  out

let decode_parcel = function P16 v -> Rvc.expand v | P32 w -> Decode.decode w

let decode_all t =
  let insts = Array.map decode_parcel (parcels t) in
  if Array.for_all Option.is_some insts then Some (Array.map Option.get insts) else None

module Layout = struct
  let text_base = 0x10000
  let page = 0x1000
  let round_up v = (v + page - 1) / page * page
  let data_base t = text_base + round_up (text_size t)
  let bss_base t = data_base t + Bytes.length t.data
  let memory_size = 16 * 1024 * 1024
  let stack_top = memory_size - 16
  let entry_address t = text_base + t.entry_offset
end

module W = Eric_util.Wire

let magic = "REXE"
let version = 1
let header_size = 24

(* Header flags (offset 6): bit 0 = symbol table present; bits 1-15
   are reserved and must be zero. *)
let flag_symbols = 1

let binary_size t = header_size + total_size t

let to_binary ?(with_symbols = false) t =
  let head = Buffer.create header_size in
  Buffer.add_string head magic;
  W.add_u16 head version;
  W.add_u16 head (if with_symbols then flag_symbols else 0);
  W.add_u32 head t.entry_offset;
  W.add_u32 head (Bytes.length t.text);
  W.add_u32 head (Bytes.length t.data);
  W.add_u32 head t.bss_size;
  let symtab = Buffer.create (if with_symbols then 64 else 0) in
  if with_symbols then begin
    W.add_u32 symtab (List.length t.symbols);
    List.iter
      (fun (name, offset) ->
        W.add_u16 symtab (String.length name);
        Buffer.add_string symtab name;
        W.add_u32 symtab offset)
      t.symbols
  end;
  Bytes.concat Bytes.empty [ Buffer.to_bytes head; t.text; t.data; Buffer.to_bytes symtab ]

let read_symbols c =
  let count = W.i32 c "symbol count" in
  if count < 0 then W.fail c "negative symbol count";
  let rec read n acc =
    if n = 0 then
      if W.remaining c = 0 then List.rev acc
      else W.fail c "trailing bytes after symbol table"
    else
      let name_len = W.u16 c "symbol name length" in
      let name = W.string c name_len "symbol name" in
      let offset = W.i32 c "symbol offset" in
      read (n - 1) ((name, offset) :: acc)
  in
  read count []

let read c =
  if W.remaining c < header_size then W.fail c "image too short";
  W.magic c magic "bad magic (not a REXE image)";
  if W.u16 c "version" <> version then W.fail c "unsupported image version";
  let flags = W.u16 c "flags" in
  if flags land lnot flag_symbols <> 0 then W.fail c "reserved flags set";
  let entry_offset = W.i32 c "entry offset" in
  let text_len = W.i32 c "text length" in
  let data_len = W.i32 c "data length" in
  let bss_size = W.i32 c "bss size" in
  let has_symbols = flags = flag_symbols in
  let body = text_len + data_len in
  if not
       (text_len >= 0 && data_len >= 0 && bss_size >= 0
       && if has_symbols then W.remaining c >= body + 4 else W.remaining c = body)
  then W.fail c "inconsistent section lengths";
  let text = W.bytes c text_len "text" in
  if count_parcels text = None then W.fail c "text section does not tile into parcels";
  let data = W.bytes c data_len "data" in
  (* The entry checks [Package.parse] makes. *)
  if entry_offset < 0 || entry_offset > text_len then W.fail c "entry out of range";
  if entry_offset land 1 <> 0 then W.fail c "entry not parcel-aligned";
  if entry_offset = text_len && text_len > 0 then W.fail c "entry out of range";
  let symbols = if has_symbols then read_symbols c else [] in
  { text; data; bss_size; entry_offset; symbols }

let of_binary b = W.decode ~format:"image" b read

let pp_summary fmt t =
  Format.fprintf fmt "text %d B (%d parcels), data %d B, bss %d B, entry +0x%x" (text_size t)
    (parcel_count "Program.pp_summary" t) (Bytes.length t.data) t.bss_size t.entry_offset
