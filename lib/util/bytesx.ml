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
