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

let of_parcels parcels =
  let text = Bytes.create (Array.fold_left (fun acc p -> acc + parcel_size p) 0 parcels) in
  let off = ref 0 in
  Array.iter
    (fun p ->
      (match p with
      | P16 v ->
        if v land 0b11 = 0b11 then invalid_arg "Program.of_parcels: P16 with a 32-bit marker";
        Bytes.set_uint16_le text !off (v land 0xFFFF)
      | P32 w ->
        if Int32.to_int w land 0b11 <> 0b11 then
          invalid_arg "Program.of_parcels: P32 without a 32-bit marker";
        Bytes.set_int32_le text !off w);
      off := !off + parcel_size p)
    parcels;
  { text; data = Bytes.empty; bss_size = 0; entry_offset = 0; symbols = [] }

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

let magic = "REXE"
let version = 1
let header_size = 24

let symtab_bytes symbols =
  let buf = Buffer.create 64 in
  let b4 = Bytes.create 4 and b2 = Bytes.create 2 in
  Eric_util.Bytesx.set_u32 b4 0 (Int32.of_int (List.length symbols));
  Buffer.add_bytes buf b4;
  List.iter
    (fun (name, offset) ->
      Eric_util.Bytesx.set_u16 b2 0 (String.length name);
      Buffer.add_bytes buf b2;
      Buffer.add_string buf name;
      Eric_util.Bytesx.set_u32 b4 0 (Int32.of_int offset);
      Buffer.add_bytes buf b4)
    symbols;
  Buffer.contents buf

let binary_size t = header_size + total_size t

let to_binary ?(with_symbols = false) t =
  let text = t.text in
  let symtab = if with_symbols then symtab_bytes t.symbols else "" in
  let out =
    Bytes.create (header_size + Bytes.length text + Bytes.length t.data + String.length symtab)
  in
  Bytes.blit_string magic 0 out 0 4;
  Eric_util.Bytesx.set_u16 out 4 version;
  Eric_util.Bytesx.set_u16 out 6 (if with_symbols then 1 else 0);
  Eric_util.Bytesx.set_u32 out 8 (Int32.of_int t.entry_offset);
  Eric_util.Bytesx.set_u32 out 12 (Int32.of_int (Bytes.length text));
  Eric_util.Bytesx.set_u32 out 16 (Int32.of_int (Bytes.length t.data));
  Eric_util.Bytesx.set_u32 out 20 (Int32.of_int t.bss_size);
  Bytes.blit text 0 out header_size (Bytes.length text);
  Bytes.blit t.data 0 out (header_size + Bytes.length text) (Bytes.length t.data);
  Bytes.blit_string symtab 0 out
    (header_size + Bytes.length text + Bytes.length t.data)
    (String.length symtab);
  out

let of_binary b =
  let ( let* ) = Result.bind in
  let* () = if Bytes.length b >= header_size then Ok () else Error "image too short" in
  let* () =
    if Bytes.sub_string b 0 4 = magic then Ok () else Error "bad magic (not a REXE image)"
  in
  let* () =
    if Eric_util.Bytesx.get_u16 b 4 = version then Ok () else Error "unsupported image version"
  in
  let flags = Eric_util.Bytesx.get_u16 b 6 in
  let entry_offset = Int32.to_int (Eric_util.Bytesx.get_u32 b 8) in
  let text_len = Int32.to_int (Eric_util.Bytesx.get_u32 b 12) in
  let data_len = Int32.to_int (Eric_util.Bytesx.get_u32 b 16) in
  let bss_size = Int32.to_int (Eric_util.Bytesx.get_u32 b 20) in
  let has_symbols = flags land 1 = 1 in
  let* () =
    let body = header_size + text_len + data_len in
    if text_len >= 0 && data_len >= 0 && bss_size >= 0
       && (if has_symbols then Bytes.length b >= body + 4 else Bytes.length b = body)
    then Ok ()
    else Error "inconsistent section lengths"
  in
  let text = Bytes.sub b header_size text_len in
  let* () =
    if count_parcels text <> None then Ok () else Error "text section does not tile into parcels"
  in
  let data = Bytes.sub b (header_size + text_len) data_len in
  (* The entry checks [Package.parse] makes. *)
  let* () =
    if entry_offset >= 0 && entry_offset <= text_len then Ok () else Error "entry out of range"
  in
  let* () = if entry_offset land 1 = 0 then Ok () else Error "entry not parcel-aligned" in
  let* () =
    if entry_offset = text_len && text_len > 0 then Error "entry out of range" else Ok ()
  in
  let* symbols =
    if not has_symbols then Ok []
    else begin
      let pos = ref (header_size + text_len + data_len) in
      let remaining () = Bytes.length b - !pos in
      if remaining () < 4 then Error "truncated symbol table"
      else begin
        let count = Int32.to_int (Eric_util.Bytesx.get_u32 b !pos) in
        pos := !pos + 4;
        let rec read n acc =
          if n = 0 then if remaining () = 0 then Ok (List.rev acc) else Error "trailing bytes after symbol table"
          else if remaining () < 2 then Error "truncated symbol entry"
          else begin
            let name_len = Eric_util.Bytesx.get_u16 b !pos in
            pos := !pos + 2;
            if remaining () < name_len + 4 then Error "truncated symbol entry"
            else begin
              let name = Bytes.sub_string b !pos name_len in
              pos := !pos + name_len;
              let offset = Int32.to_int (Eric_util.Bytesx.get_u32 b !pos) in
              pos := !pos + 4;
              read (n - 1) ((name, offset) :: acc)
            end
          end
        in
        if count < 0 then Error "negative symbol count" else read count []
      end
    end
  in
  Ok { text; data; bss_size; entry_offset; symbols }

let pp_summary fmt t =
  Format.fprintf fmt "text %d B (%d parcels), data %d B, bss %d B, entry +0x%x" (text_size t)
    (parcel_count "Program.pp_summary" t) (Bytes.length t.data) t.bss_size t.entry_offset
