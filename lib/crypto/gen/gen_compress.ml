(* Writes SHA-256's compression function (FIPS 180-2, section 6.2.2) to
   standard output as one straight-line OCaml function, the private
   module [Sha256_compress]; lib/crypto's dune rule runs it at build
   time.

   Every word is an [int64] let.  ocamlopt keeps such a let unboxed when
   each use is an [int64] primitive, so the 16 message words, the 48
   schedule words and the 64 rounds' working variables live in registers
   and stack slots, and a call allocates nothing.  The rounds rename
   instead of shifting: round [t] makes [a(t + 4)] and [e(t + 4)], and
   reads b, c, d as [a(t + 2)], [a(t + 1)], [a t] (f, g, h likewise from
   e), so a3 to a0 and e3 to e0 are the chaining value's words 0 to 3
   and 4 to 7.  Each rotation is one shift of the doubled word
   [x lor (x lsl 32)], whose bits [n] to [n + 31] are [x] rotated right
   by [n].  That needs [x] below 2^32, so the message and schedule words
   and each new a and e are masked to 32 bits; the sums and sigmas in
   between only need their low 32 bits right. *)

(* Round constants: first 32 bits of the fractional parts of the cube roots
   of the first 64 primes (FIPS 180-2, section 4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* The big-endian 32-bit word at byte [i] of [b], sign-extended, and the
   statement storing [x]'s low 32 bits there. *)
let load b i =
  let w = Printf.sprintf "get32 %s %s" b i in
  Printf.sprintf "of_int32 (%s)" (if Sys.big_endian then w else "bswap32 (" ^ w ^ ")")

let store b i x =
  let w = Printf.sprintf "to_int32 (%s)" x in
  Printf.sprintf "set32 %s %d (%s)" b i (if Sys.big_endian then w else "bswap32 (" ^ w ^ ")")

(* [x] rotated right by [r1] and [r2], xored with [x] rotated (or, with
   [shift], shifted) right by [r3], in its low 32 bits. *)
let sigma x (r1, r2, r3) ~shift =
  Printf.sprintf "(let d = %s lor (%s lsl 32) in (d lsr %d) lxor (d lsr %d) lxor (%s lsr %d))" x x r1
    r2 (if shift then x else "d") r3

let () =
  let p fmt = Printf.printf (fmt ^^ "\n") in
  p "(* Generated by lib/crypto/gen/gen_compress.exe; edit that instead. *)";
  p "";
  p "module I = struct";
  List.iter
    (fun (op, prim) -> p "  external ( %s ) : int64 -> int64 -> int64 = \"%%int64_%s\"" op prim)
    [ ("+", "add"); ("land", "and"); ("lor", "or"); ("lxor", "xor") ];
  p "  external ( lsl ) : int64 -> int -> int64 = \"%%int64_lsl\"";
  p "  external ( lsr ) : int64 -> int -> int64 = \"%%int64_lsr\"";
  p "  external of_int32 : int32 -> int64 = \"%%int64_of_int32\"";
  p "  external to_int32 : int64 -> int32 = \"%%int64_to_int32\"";
  p "  external get32 : bytes -> int -> int32 = \"%%caml_bytes_get32\"";
  p "  external set32 : bytes -> int -> int32 -> unit = \"%%caml_bytes_set32\"";
  p "  external bswap32 : int32 -> int32 = \"%%bswap_int32\"";
  p "end";
  p "";
  p "let compress h b pos =";
  for t = 0 to 15 do
    p "  let w%d = I.(%s land 0xFFFFFFFFL) in" t (load "b" (Printf.sprintf "Stdlib.(pos + %d)" (4 * t)))
  done;
  for i = 0 to 3 do
    p "  let a%d = I.(%s land 0xFFFFFFFFL) in" (3 - i) (load "h" (string_of_int (4 * i)));
    p "  let e%d = I.(%s land 0xFFFFFFFFL) in" (3 - i) (load "h" (string_of_int (16 + (4 * i))))
  done;
  for t = 0 to 63 do
    let a n = Printf.sprintf "a%d" (t + n) and e n = Printf.sprintf "e%d" (t + n) in
    let w n = Printf.sprintf "w%d" (t - n) in
    if t >= 16 then
      p "  let w%d = I.((%s + %s + %s + %s) land 0xFFFFFFFFL) in" t (w 16)
        (sigma (w 15) (7, 18, 3) ~shift:true)
        (w 7)
        (sigma (w 2) (17, 19, 10) ~shift:true);
    p "  let t1 = I.(%s + %s + (%s lxor (%s land (%s lxor %s))) + 0x%08xL + w%d) in" (e 0)
      (sigma (e 3) (6, 11, 25) ~shift:false)
      (e 1) (e 3) (e 2) (e 1) k.(t) t;
    p "  let %s = I.((%s + t1) land 0xFFFFFFFFL) in" (e 4) (a 0);
    p "  let %s = I.((t1 + %s + ((%s land %s) lor (%s land (%s lor %s)))) land 0xFFFFFFFFL) in"
      (a 4)
      (sigma (a 3) (2, 13, 22) ~shift:false)
      (a 3) (a 2) (a 1) (a 3) (a 2)
  done;
  for i = 0 to 7 do
    let x = Printf.sprintf "%s%d" (if i < 4 then "a" else "e") (67 - (i mod 4)) in
    p "  I.(%s)%s"
      (store "h" (4 * i) (Printf.sprintf "%s + %s" (load "h" (string_of_int (4 * i))) x))
      (if i = 7 then "" else ";")
  done
