let hex_digit n = "0123456789abcdef".[n]

let to_hex b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) (hex_digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (hex_digit (c land 0xF))
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytesx.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytesx.of_hex: non-hex character"
  in
  Bytes.init (n / 2) (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let get_u32 = Bytes.get_int32_le
let set_u32 = Bytes.set_int32_le
let get_u64 = Bytes.get_int64_le
let set_u64 = Bytes.set_int64_le

let append a b =
  let out = Bytes.create (Bytes.length a + Bytes.length b) in
  Bytes.blit a 0 out 0 (Bytes.length a);
  Bytes.blit b 0 out (Bytes.length a) (Bytes.length b);
  out

let concat parts = Bytes.concat Bytes.empty parts
