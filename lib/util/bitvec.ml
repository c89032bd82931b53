(* Bit [i] lives in byte [i/8] at bit position [i mod 8], and the buffer
   is padded with zero bytes to whole 64-bit words so the set operations
   run a word at a time.  [to_bytes] returns only the packed prefix. *)
type t = { len : int; data : Bytes.t }

(* AND, OR and AND-NOT act on the same bit of both operands whatever the
   host byte order, so native-order loads serve the word loops. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let bytes_for_bits n = (n + 7) / 8
let padded_bytes n = 8 * ((n + 63) / 64)

let create n =
  if n < 0 then invalid_arg "Bitvec.create: negative length";
  { len = n; data = Bytes.make (padded_bytes n) '\000' }

let length t = t.len

let check t i name = if i < 0 || i >= t.len then invalid_arg ("Bitvec." ^ name ^ ": index out of bounds")

let get t i =
  check t i "get";
  let byte = Char.code (Bytes.get t.data (i / 8)) in
  byte land (1 lsl (i mod 8)) <> 0

let set t i v =
  check t i "set";
  let pos = i / 8 in
  let mask = 1 lsl (i mod 8) in
  let byte = Char.code (Bytes.get t.data pos) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.data pos (Char.chr (byte land 0xFF))

let append t v =
  let t' = create (t.len + 1) in
  Bytes.blit t.data 0 t'.data 0 (Bytes.length t.data);
  set t' t.len v;
  t'

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i v -> if v then set t i true) a;
  t

let to_bool_array t = Array.init t.len (get t)

let popcount t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if get t i then incr n
  done;
  !n

let to_bytes t = Bytes.sub t.data 0 (bytes_for_bits t.len)

let of_bytes ~len b =
  if len < 0 then invalid_arg "Bitvec.of_bytes: negative length";
  if Bytes.length b < bytes_for_bits len then invalid_arg "Bitvec.of_bytes: buffer too short";
  let t = create len in
  Bytes.blit b 0 t.data 0 (bytes_for_bits len);
  (* Clear padding bits so equality is structural. *)
  let rem = len mod 8 in
  if rem > 0 then begin
    let last = bytes_for_bits len - 1 in
    let byte = Char.code (Bytes.get t.data last) in
    Bytes.set t.data last (Char.chr (byte land ((1 lsl rem) - 1)))
  end;
  t

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let pp fmt t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char fmt (if get t i then '1' else '0')
  done

(* ------------------------------------------------------------------ *)
(* Sets over [0, length)                                               *)
(* ------------------------------------------------------------------ *)

let mem t i =
  i >= 0 && i < t.len && Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i "add";
  let pos = i lsr 3 in
  Bytes.unsafe_set t.data pos
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.data pos) lor (1 lsl (i land 7))))

let copy t = { len = t.len; data = Bytes.copy t.data }

let same_length dst src name =
  if dst.len <> src.len then invalid_arg ("Bitvec." ^ name ^ ": length mismatch")

let union_into dst src =
  same_length dst src "union_into";
  let d = dst.data and s = src.data in
  let i = ref 0 in
  while !i < Bytes.length d do
    set64 d !i (Int64.logor (get64 d !i) (get64 s !i));
    i := !i + 8
  done

let inter_into dst src =
  same_length dst src "inter_into";
  let d = dst.data and s = src.data in
  let i = ref 0 in
  while !i < Bytes.length d do
    set64 d !i (Int64.logand (get64 d !i) (get64 s !i));
    i := !i + 8
  done

let diff_into dst src =
  same_length dst src "diff_into";
  let d = dst.data and s = src.data in
  let i = ref 0 in
  while !i < Bytes.length d do
    set64 d !i (Int64.logand (get64 d !i) (Int64.lognot (get64 s !i)));
    i := !i + 8
  done

let iter f t =
  let d = t.data in
  let w = ref 0 in
  while !w < Bytes.length d do
    if get64 d !w <> 0L then
      for b = !w to !w + 7 do
        let byte = Char.code (Bytes.unsafe_get d b) in
        if byte <> 0 then
          for k = 0 to 7 do
            if byte land (1 lsl k) <> 0 then f ((b lsl 3) lor k)
          done
      done;
    w := !w + 8
  done
