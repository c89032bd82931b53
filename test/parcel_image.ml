(* Images written parcel by parcel, shared by the suites that build
   machine code by hand. *)

module Program = Eric_rv.Program

(* [of_parcels ps] is the image whose text is [ps], little-endian, with
   no data, BSS, entry offset or symbols (set them with
   [{ (of_parcels ps) with ... }]).  Raises [Invalid_argument] if a
   parcel's length bits disagree with its constructor (a [P16] whose low
   two bits are [11], or a [P32] whose are not), which would frame
   differently. *)
let of_parcels parcels =
  let size = Array.fold_left (fun acc p -> acc + Program.parcel_size p) 0 parcels in
  let text = Bytes.create size and off = ref 0 in
  Array.iter
    (fun p ->
      (match p with
      | Program.P16 v ->
        if v land 0b11 = 0b11 then
          invalid_arg "Parcel_image.of_parcels: P16 with a 32-bit marker";
        Bytes.set_uint16_le text !off (v land 0xFFFF)
      | Program.P32 w ->
        if Int32.to_int w land 0b11 <> 0b11 then
          invalid_arg "Parcel_image.of_parcels: P32 without a 32-bit marker";
        Bytes.set_int32_le text !off w);
      off := !off + Program.parcel_size p)
    parcels;
  { Program.text; data = Bytes.empty; bss_size = 0; entry_offset = 0; symbols = [] }
