(* Tests for eric_crypto: SHA-256 against FIPS/NIST vectors, HMAC against
   RFC 4231, keystream and keystream-XOR properties. *)

open Eric_crypto

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
let hex b = Eric_util.Bytesx.to_hex b

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-2 and NIST CAVS vectors                           *)
(* ------------------------------------------------------------------ *)

let sha_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
    ("message digest", "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650") ]

let sha256_incremental =
  qtest "incremental = one-shot" QCheck.(pair string (small_list small_nat)) (fun (s, cuts) ->
      let data = Bytes.of_string s in
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (Bytes.length data - !pos) in
          Sha256.feed_sub ctx data ~pos:!pos ~len;
          pos := !pos + len)
        cuts;
      Sha256.feed_sub ctx data ~pos:!pos ~len:(Bytes.length data - !pos);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest data))

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "second finalize"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha256_feed_after_finalize () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "feed after finalize"
    (Invalid_argument "Sha256.feed: context already finalized") (fun () ->
      Sha256.feed ctx (Bytes.of_string "x"))

let test_sha256_feed_sub_range () =
  (* [pos + len] wraps past [max_int]: the range check must not, or the
     compression reads far outside [data]. *)
  let bad = Invalid_argument "Sha256.feed_sub: bad range" in
  let data = Bytes.make 16 'a' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises (Printf.sprintf "pos %d len %d" pos len) bad (fun () ->
          Sha256.feed_sub (Sha256.init ()) data ~pos ~len))
    [ (max_int - 10, 100); (1, max_int); (-1, 4); (4, -1); (10, 7) ];
  Sha256.feed_sub (Sha256.init ()) data ~pos:16 ~len:0

(* The byte-at-a-time implementation that the word-at-a-time compression
   replaced, kept as its reference model: big-endian words assembled from
   single bytes, and each rotation as two shifts, masked. *)
module Ref_sha256 = struct
  let mask32 = 0xFFFFFFFF
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
       0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
       0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
       0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
       0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
       0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
       0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
       0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
       0xc67178f2 |]

  let compress h block pos =
    let w = Array.make 64 0 in
    for t = 0 to 15 do
      let byte i = Char.code (Bytes.get block (pos + (4 * t) + i)) in
      w.(t) <- (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
    done;
    for t = 16 to 63 do
      let x15 = w.(t - 15) and x2 = w.(t - 2) in
      let s0 = rotr x15 7 lxor rotr x15 18 lxor (x15 lsr 3) in
      let s1 = rotr x2 17 lxor rotr x2 19 lxor (x2 lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
    done;
    let v = Array.copy h in
    for t = 0 to 63 do
      let a = v.(0) and b = v.(1) and c = v.(2) and e = v.(4) in
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = e land v.(5) lxor (lnot e land mask32 land v.(6)) in
      let t1 = (v.(7) + s1 + ch + k.(t) + w.(t)) land mask32 in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = a land b lxor (a land c) lxor (b land c) in
      let t2 = (s0 + maj) land mask32 in
      Array.blit v 0 v 1 7;
      v.(4) <- (v.(4) + t1) land mask32;
      v.(0) <- (t1 + t2) land mask32
    done;
    Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask32) v

  let pad msg =
    let n = Bytes.length msg in
    let padded = Bytes.make ((n + 9 + 63) / 64 * 64) '\000' in
    Bytes.blit msg 0 padded 0 n;
    Bytes.set padded n '\x80';
    let bits = 8 * n and len = Bytes.length padded in
    for i = 0 to 7 do
      Bytes.set padded (len - 1 - i) (Char.chr ((bits lsr (8 * i)) land 0xFF))
    done;
    padded

  let iv =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
       0x5be0cd19 |]

  (* Eight words as the digest's 32 big-endian bytes. *)
  let to_bytes h =
    Bytes.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

  let digest msg =
    let h = Array.copy iv in
    let padded = pad msg in
    for b = 0 to (Bytes.length padded / 64) - 1 do
      compress h padded (64 * b)
    done;
    to_bytes h
end

(* The two compressions [Sha256] can run: the one it selected for this
   host, and the generated OCaml one, which is the only one on hosts
   without the x86 SHA extensions (there both names run the same code). *)
let paths = [ ("selected", Sha256.compress); ("portable", Sha256.portable_compress) ]

(* SHA-256 and HMAC-SHA-256 with every block through [compress]: the
   reference model's padding, from the initial hash value. *)
let digest_with compress msg =
  let h = Ref_sha256.to_bytes Ref_sha256.iv and padded = Ref_sha256.pad msg in
  for b = 0 to (Bytes.length padded / 64) - 1 do
    compress h padded (64 * b)
  done;
  h

let hmac_with compress ~key msg =
  let key = if Bytes.length key > 64 then digest_with compress key else key in
  let pad c =
    Bytes.init 64 (fun i ->
        Char.chr (c lxor if i < Bytes.length key then Char.code (Bytes.get key i) else 0))
  in
  digest_with compress
    (Bytes.cat (pad 0x5c) (digest_with compress (Bytes.cat (pad 0x36) msg)))

let test_sha256_vectors () =
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string msg expected (hex (Sha256.digest_string msg));
      List.iter
        (fun (path, compress) ->
          check Alcotest.string (path ^ " " ^ msg) expected
            (hex (digest_with compress (Bytes.of_string msg))))
        paths)
    sha_vectors

let test_sha256_million_a () =
  (* FIPS long vector: one million 'a'. *)
  let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" in
  let ctx = Sha256.init () in
  let chunk = Bytes.make 10_000 'a' in
  for _ = 1 to 100 do
    Sha256.feed ctx chunk
  done;
  check Alcotest.string "1M x 'a'" expected (hex (Sha256.finalize ctx));
  List.iter
    (fun (path, compress) ->
      check Alcotest.string (path ^ " 1M x 'a'") expected
        (hex (digest_with compress (Bytes.make 1_000_000 'a'))))
    paths

let test_ref_sha256_vectors () =
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string msg expected (hex (Ref_sha256.digest (Bytes.of_string msg))))
    sha_vectors

(* A midstate taken at word [w] of a message that differs from the
   vector's from byte [4 w] on still finishes the vector's digest: the
   blocks before [w]'s read nothing past it. *)
let test_sha256_resume () =
  List.iter
    (fun (msg, expected) ->
      let padded = Ref_sha256.pad (Bytes.of_string msg) in
      for word = 0 to (Bytes.length padded / 4) - 1 do
        let other = Bytes.copy padded in
        for i = 4 * word to Bytes.length other - 1 do
          Bytes.set other i (Char.chr ((i * 37) land 0xFF))
        done;
        let s = Sha256.midstate other ~word in
        let dst = Bytes.make 40 '.' in
        Sha256.resume s padded ~dst;
        check Alcotest.string (Printf.sprintf "%S from word %d" msg word) expected
          (hex (Bytes.sub dst 0 32));
        check Alcotest.string "bytes past the digest untouched" "........"
          (Bytes.sub_string dst 32 8)
      done)
    sha_vectors;
  let whole = Invalid_argument "Sha256.midstate: not a whole number of blocks" in
  Alcotest.check_raises "empty" whole (fun () -> ignore (Sha256.midstate Bytes.empty ~word:0));
  Alcotest.check_raises "65 bytes" whole (fun () ->
      ignore (Sha256.midstate (Bytes.create 65) ~word:0));
  let range = Invalid_argument "Sha256.midstate: word out of range" in
  Alcotest.check_raises "word past the message" range (fun () ->
      ignore (Sha256.midstate (Bytes.create 64) ~word:16));
  Alcotest.check_raises "negative word" range (fun () ->
      ignore (Sha256.midstate (Bytes.create 64) ~word:(-1)));
  let s = Sha256.midstate (Bytes.create 64) ~word:3 in
  Alcotest.check_raises "other length"
    (Invalid_argument "Sha256.resume: message length differs from the midstate's") (fun () ->
      Sha256.resume s (Bytes.create 128) ~dst:(Bytes.create 32));
  Alcotest.check_raises "short destination"
    (Invalid_argument "Sha256.resume: short destination") (fun () ->
      Sha256.resume s (Bytes.create 64) ~dst:(Bytes.create 31))

let gen_bytes max_len =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (int_bound max_len)))

let sha256_matches_reference =
  qtest ~count:500 "compression = reference on random feed_sub splits"
    QCheck.(
      make
        ~print:(fun (m, cuts) ->
          Printf.sprintf "%s cuts=[%s]" (hex m) (String.concat ";" (List.map string_of_int cuts)))
        Gen.(pair (gen_bytes 300) (small_list (int_bound 130))))
    (fun (msg, cuts) ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (Bytes.length msg - !pos) in
          Sha256.feed_sub ctx msg ~pos:!pos ~len;
          pos := !pos + len)
        cuts;
      Sha256.feed_sub ctx msg ~pos:!pos ~len:(Bytes.length msg - !pos);
      let expected = Ref_sha256.digest msg in
      Bytes.equal (Sha256.finalize ctx) expected
      && List.for_all (fun (_, compress) -> Bytes.equal (digest_with compress msg) expected) paths)

(* The kernel against the OCaml compression, block by block: random
   chaining values, and blocks at random (mostly unaligned) offsets of a
   larger buffer, which neither may write. *)
let compressions_agree =
  qtest ~count:500 "selected = portable compression"
    QCheck.(
      make
        ~print:(fun (h, b, pos) -> Printf.sprintf "h=%s pos=%d b=%s" (hex h) pos (hex b))
        Gen.(
          pair (string_size ~gen:char (return 32)) (string_size ~gen:char (int_range 64 264))
          >>= fun (h, b) ->
          map
            (fun pos -> (Bytes.of_string h, Bytes.of_string b, pos))
            (int_bound (String.length b - 64))))
    (fun (h, b, pos) ->
      let b0 = Bytes.copy b and hs = Bytes.copy h and hp = Bytes.copy h in
      Sha256.compress hs b pos;
      Sha256.portable_compress hp b pos;
      let words =
        Array.init 8 (fun i -> Int32.to_int (Bytes.get_int32_be h (4 * i)) land 0xFFFFFFFF)
      in
      Ref_sha256.compress words b pos;
      Bytes.equal hs hp && Bytes.equal hp (Ref_sha256.to_bytes words) && Bytes.equal b b0)

(* Both compressions keep [Sha256_compress]'s contract: a block outside
   [b] or a short chaining value raises before [h] is written, so the
   kernel never reads out of range. *)
let test_compress_bounds () =
  let b = Bytes.init 100 (fun i -> Char.chr i) in
  List.iter
    (fun (path, compress) ->
      let raises name h pos =
        let before = Bytes.copy h in
        (match compress h b pos with
        | () -> Alcotest.failf "%s, %s: no Invalid_argument" path name
        | exception Invalid_argument _ -> ());
        check Alcotest.string (Printf.sprintf "%s, %s: h unchanged" path name) (hex before) (hex h)
      in
      raises "block past the end" (Bytes.make 32 'h') 37;
      raises "negative pos" (Bytes.make 32 'h') (-1);
      raises "pos near max_int" (Bytes.make 32 'h') (max_int - 10);
      raises "31-byte h" (Bytes.make 31 'h') 0;
      (* the last block that fits *)
      let h = Bytes.make 32 'h' in
      compress h b 36;
      check Alcotest.bool (path ^ ", last block written") false (Bytes.equal h (Bytes.make 32 'h')))
    paths

(* ------------------------------------------------------------------ *)
(* HMAC-SHA-256: RFC 4231 vectors                                      *)
(* ------------------------------------------------------------------ *)

(* The library's HMAC, then HMAC through each compression. *)
let check_hmac name ~key data expected =
  check Alcotest.string name expected (hex (Hmac_sha256.mac ~key data));
  List.iter
    (fun (path, compress) ->
      check Alcotest.string (path ^ " " ^ name) expected (hex (hmac_with compress ~key data)))
    paths

let test_hmac_rfc4231_case1 () =
  check_hmac "case 1" ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"

let test_hmac_rfc4231_case2 () =
  check_hmac "case 2" ~key:(Bytes.of_string "Jefe")
    (Bytes.of_string "what do ya want for nothing?")
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"

let test_hmac_rfc4231_case3 () =
  check_hmac "case 3" ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"

let test_hmac_rfc4231_long_key () =
  (* case 6: 131-byte key, exercising the hash-the-key path *)
  check_hmac "case 6" ~key:(Bytes.make 131 '\xaa')
    (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let hmac_key_sensitivity =
  qtest "distinct keys give distinct macs" QCheck.(pair string string) (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      let m = Bytes.of_string "fixed message" in
      not
        (Bytes.equal
           (Hmac_sha256.mac ~key:(Bytes.of_string k1) m)
           (Hmac_sha256.mac ~key:(Bytes.of_string k2) m)))

(* ------------------------------------------------------------------ *)
(* Keystream                                                           *)
(* ------------------------------------------------------------------ *)

let key = Bytes.of_string "0123456789abcdef0123456789abcdef"

let test_keystream_deterministic () =
  let a = Keystream.create ~key and b = Keystream.create ~key in
  check Alcotest.string "same stream" (hex (Keystream.take a 100)) (hex (Keystream.take b 100))

let test_keystream_offset_consistency () =
  (* Reading at an absolute offset equals skipping to it. *)
  let full = Keystream.take (Keystream.create ~key) 300 in
  let tail = Keystream.take (Keystream.at ~key ~offset:113) 187 in
  check Alcotest.string "offset view" (hex (Bytes.sub full 113 187)) (hex tail)

let test_keystream_position_tracking () =
  let t = Keystream.create ~key in
  ignore (Keystream.take t 33);
  check Alcotest.int "offset" 33 (Keystream.offset t);
  ignore (Keystream.take t 0);
  check Alcotest.int "offset unchanged by empty take" 33 (Keystream.offset t)

let test_keystream_key_sensitivity () =
  let other = Bytes.of_string "0123456789abcdef0123456789abcdeg" in
  let a = Keystream.take (Keystream.create ~key) 64 in
  let b = Keystream.take (Keystream.create ~key:other) 64 in
  check Alcotest.bool "differs" false (Bytes.equal a b)

(* Golden pins recorded before the keystream was reworked: packages
   already shipped must keep decrypting.  The 48-byte key pads to two
   SHA-256 blocks per keystream block, the 32-byte one to a single
   block. *)
let key48 = Bytes.of_string "0123456789abcdef0123456789abcdef0123456789abcdef"

let keystream_golden =
  [ ( "32-byte key",
      key,
      "cc83be6c1f2f91efe65809fee0c0e48053cb627e0cb43dda1144150262a4b83a30790bc1c9bbdf8a7fee34b26d369766131527b611d60c0e403edb4fa72ba7b15179b6e6597d39bf6eeb4feba6517df4be9dfb73ffe2a43b2aed49c0ba83bee4",
      "45932f98dca4ddfe914db0a05b97132749bce4fd13bf44ad61d762a2b493e790f91af73b46ef9b93" );
    ( "48-byte key",
      key48,
      "559895883a5d7baaea04ff43f2cd3525a63616c13e6e7ad2badcb3b14dc293f6852d2979eab47d6258d57f5c3bc87f003dabceac15146d591e82ae0f626cd836535d2a9b34cd5f6e7aeeadaae9c74c9ce281abdda540c34fd528726d9fa35a9d",
      "9259b51e71a865252df305cbae4092ef1b52d0802f54778d0bba2f19787d0d552e10ca729d50367c" ) ]

let test_keystream_golden () =
  List.iter
    (fun (name, key, take96, at1000) ->
      check Alcotest.string (name ^ " take 96") take96
        (hex (Keystream.take (Keystream.create ~key) 96));
      check Alcotest.string (name ^ " at 1000, 40 bytes") at1000
        (hex (Keystream.take (Keystream.at ~key ~offset:1000) 40)))
    keystream_golden

let test_keystream_blocks_allocate_nothing () =
  List.iter
    (fun k ->
      let t = Keystream.create ~key:k in
      ignore (Keystream.take t 1);
      let before = Gc.minor_words () in
      let out = Keystream.take t 1024 in
      let words = Gc.minor_words () -. before in
      (* 33 blocks; the 1 KiB result (128 words, a padding word and a
         header) is the only allocation *)
      check Alcotest.int (Printf.sprintf "%d-byte key" (Bytes.length k)) 1024 (Bytes.length out);
      check Alcotest.(float 0.) "words allocated" 130. words;
      (* XORing 1 KiB in place, from an unaligned offset: 33 blocks, no
         allocation at all *)
      let buf = Bytes.make 1024 'x' in
      let before = Gc.minor_words () in
      Keystream.xor_in_place t ~offset:5000 buf;
      let words = Gc.minor_words () -. before in
      check Alcotest.(float 0.) "in-place words allocated" 0. words)
    [ key; key48 ];
  (* The compression itself: feeding 64 blocks allocates nothing, and a
     one-shot digest only its pad block (64 bytes: 8 words, a padding
     word and a header) and its 32-byte result (4 words, a padding word
     and a header).  Each compression, called directly, allocates
     nothing: a boxed word in the OCaml one fails its own pin on every
     host, and the stream's pins too where it is the selected one. *)
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let ctx = Sha256.init () and h = Bytes.make 32 'h' in
  let before = Gc.minor_words () in
  Sha256.feed ctx data;
  let words = Gc.minor_words () -. before in
  check Alcotest.(float 0.) "feed 4 KiB words allocated" 0. words;
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Sha256.digest data));
  let words = Gc.minor_words () -. before in
  check Alcotest.(float 0.) "digest 4 KiB words allocated" 16. words;
  List.iter
    (fun (path, compress) ->
      let before = Gc.minor_words () in
      for b = 0 to 63 do
        compress h data (64 * b)
      done;
      let words = Gc.minor_words () -. before in
      check Alcotest.(float 0.) (path ^ " compression, 64 blocks, words allocated") 0. words)
    paths

(* Reference stream: block [i] is SHA-256(key || le64 i), hashed one shot. *)
let reference_stream ~key ~offset ~len =
  let first = offset / 32 and last = (offset + len + 31) / 32 in
  let blocks =
    List.init (last - first) (fun i ->
        let ctr = Bytes.create 8 in
        Bytes.set_int64_le ctr 0 (Int64.of_int (first + i));
        Sha256.digest (Bytes.cat key ctr))
  in
  Bytes.sub (Bytes.concat Bytes.empty blocks) (offset - (32 * first)) len

(* Keys of 0 to 120 bytes pad to one, two or three blocks, with every
   length mod 4, so the chaining value saved per stream is taken after
   zero, one or two blocks, and the counter starts at every word of a
   block.  Some offsets lie around block 2^32, where the counter's high
   word turns non-zero. *)
let high_counter = 32 lsl 32

let keystream_matches_reference =
  let gen_offset =
    QCheck.Gen.(
      frequency
        [ (3, int_bound 2000); (1, map (fun o -> high_counter - 1000 + o) (int_bound 2000)) ])
  in
  qtest ~count:300 "take/at = concatenated SHA-256(key || le64 i)"
    QCheck.(
      make
        ~print:(fun (k, (o, l)) -> Printf.sprintf "key=%s offset=%d len=%d" (hex k) o l)
        Gen.(pair (gen_bytes 120) (pair gen_offset (int_bound 300))))
    (fun (key, (offset, len)) ->
      let split = len / 3 in
      let s = Keystream.at ~key ~offset in
      let a = Keystream.take s split in
      let b = Keystream.take s (len - split) in
      let expected = reference_stream ~key ~offset ~len in
      (* the same bytes from the start of the stream, for low offsets *)
      let from_start () =
        Bytes.sub (Keystream.take (Keystream.create ~key) (offset + len)) offset len
      in
      let mask = Bytes.init len (fun i -> Char.chr ((i * 73) land 0xFF)) in
      let masked = Bytes.make len '\xA5' in
      Keystream.xor_in_place ~mask s ~offset masked;
      let masked_ref =
        Bytes.init len (fun i ->
            Char.chr (0xA5 lxor (Char.code (Bytes.get expected i) land Char.code (Bytes.get mask i))))
      in
      Bytes.equal (Bytes.cat a b) expected
      && (offset >= 2000 || Bytes.equal (from_start ()) expected)
      && Keystream.offset s = offset + len
      && Bytes.equal masked masked_ref
      && (len < 2 || Keystream.half s offset = Bytes.get_uint16_le expected 0))

let keystream_xor_involution =
  qtest "xor twice is identity" QCheck.(pair string small_nat) (fun (s, offset) ->
      let data = Bytes.of_string s in
      let once = Keystream.xor ~key ~offset data in
      Bytes.equal data (Keystream.xor ~key ~offset once))

(* ------------------------------------------------------------------ *)
(* Constant-time compare                                               *)
(* ------------------------------------------------------------------ *)

let test_ct_equal () =
  check Alcotest.bool "equal" true (Ct.equal (Bytes.of_string "abc") (Bytes.of_string "abc"));
  check Alcotest.bool "differs" false (Ct.equal (Bytes.of_string "abc") (Bytes.of_string "abd"));
  check Alcotest.bool "length mismatch" false (Ct.equal (Bytes.of_string "ab") (Bytes.of_string "abc"));
  check Alcotest.bool "empty" true (Ct.equal Bytes.empty Bytes.empty)

let ct_matches_structural =
  qtest "ct.equal = Bytes.equal" QCheck.(pair string string) (fun (a, b) ->
      Ct.equal (Bytes.of_string a) (Bytes.of_string b) = (a = b))


(* ------------------------------------------------------------------ *)
(* Bignum                                                              *)
(* ------------------------------------------------------------------ *)

let bn = Bignum.of_int
let nat = QCheck.map abs QCheck.int

let bignum_int_ops =
  qtest ~count:500 "add/sub/mul/divmod agree with int" QCheck.(pair nat nat) (fun (a, b) ->
      (* 30-bit operands keep the native-int product below 2^60 *)
      let a = a land 0x3FFFFFFF and b = b land 0x3FFFFFFF in
      let ok_add = Bignum.to_int_opt (Bignum.add (bn a) (bn b)) = Some (a + b) in
      let hi = max a b and lo = min a b in
      let ok_sub = Bignum.to_int_opt (Bignum.sub (bn hi) (bn lo)) = Some (hi - lo) in
      let ok_mul = Bignum.to_int_opt (Bignum.mul (bn a) (bn b)) = Some (a * b) in
      let ok_div =
        b = 0
        ||
        let q, r = Bignum.divmod (bn a) (bn b) in
        Bignum.to_int_opt q = Some (a / b) && Bignum.to_int_opt r = Some (a mod b)
      in
      ok_add && ok_sub && ok_mul && ok_div)

let bignum_modexp_reference =
  qtest ~count:200 "modexp agrees with int reference" QCheck.(triple nat nat nat)
    (fun (b, e, m) ->
      let b = b land 0xFFFF and e = e land 0xFFF and m = 2 + (m land 0xFFFF) in
      let rec pow_mod b e acc = if e = 0 then acc else pow_mod (b * b mod m) (e / 2) (if e land 1 = 1 then acc * b mod m else acc) in
      Bignum.to_int_opt (Bignum.modexp (bn b) (bn e) ~m:(bn m)) = Some (pow_mod (b mod m) e 1))

let bignum_bytes_roundtrip =
  qtest "bytes_be roundtrip" QCheck.string (fun s ->
      let v = Bignum.of_bytes_be (Bytes.of_string s) in
      Bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be v)))

let bignum_hex_roundtrip =
  qtest "hex roundtrip" nat (fun v ->
      Bignum.to_int_opt (Bignum.of_hex (Bignum.to_hex (bn v))) = Some v)

let bignum_shift_roundtrip =
  qtest "shift left then right" QCheck.(pair nat (int_bound 100)) (fun (v, k) ->
      Bignum.equal (bn v) (Bignum.shift_right (Bignum.shift_left (bn v) k) k))

let bignum_modmul_vs_mul =
  qtest ~count:200 "modmul = mul then rem" QCheck.(triple nat nat nat) (fun (a, b, m) ->
      let m = 1 + (m land 0xFFFFFF) in
      Bignum.equal
        (Bignum.modmul (bn a) (bn b) ~m:(bn m))
        (Bignum.rem (Bignum.mul (bn a) (bn b)) (bn m)))

let test_bignum_modinv () =
  let m = bn 1000000007 in
  List.iter
    (fun a ->
      match Bignum.modinv (bn a) ~m with
      | Some inv ->
        check Alcotest.bool (Printf.sprintf "inv %d" a) true
          (Bignum.to_int_opt (Bignum.modmul (bn a) inv ~m) = Some 1)
      | None -> Alcotest.failf "no inverse for %d mod prime" a)
    [ 1; 2; 12345; 999999999 ];
  check Alcotest.bool "no inverse when not coprime" true
    (Bignum.modinv (bn 6) ~m:(bn 9) = None)

let test_bignum_primality_knowns () =
  let rng = Eric_util.Prng.create ~seed:9L in
  List.iter
    (fun p -> check Alcotest.bool (string_of_int p) true (Bignum.is_probable_prime rng (bn p)))
    [ 2; 3; 5; 97; 7919; 1000000007 ];
  List.iter
    (fun c ->
      check Alcotest.bool (string_of_int c) false (Bignum.is_probable_prime rng (bn c)))
    [ 0; 1; 4; 100; 7917; 561 (* Carmichael *); 1000000007 * 3 ];
  (* 2^64 - 59 is prime *)
  check Alcotest.bool "large prime" true
    (Bignum.is_probable_prime rng (Bignum.of_hex "ffffffffffffffc5"))

let test_bignum_random_prime () =
  let rng = Eric_util.Prng.create ~seed:21L in
  let p = Bignum.random_prime rng ~bits:96 in
  check Alcotest.int "width" 96 (Bignum.num_bits p);
  check Alcotest.bool "odd" false (Bignum.is_even p)

let test_bignum_guards () =
  Alcotest.check_raises "negative of_int" (Invalid_argument "Bignum.of_int: negative") (fun () ->
      ignore (bn (-1)));
  Alcotest.check_raises "negative sub" (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)));
  check Alcotest.bool "division by zero" true
    (try ignore (Bignum.divmod (bn 1) Bignum.zero); false with Division_by_zero -> true)

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

let rsa_key = lazy (Rsa.generate ~bits:384 (Eric_util.Prng.create ~seed:77L))

let test_rsa_roundtrip () =
  let key = Lazy.force rsa_key in
  let rng = Eric_util.Prng.create ~seed:1L in
  List.iter
    (fun msg ->
      match Rsa.encrypt (Rsa.public_of key) rng (Bytes.of_string msg) with
      | Error e -> Alcotest.fail e
      | Ok cipher -> (
        check Alcotest.bool "ciphertext differs from message" false
          (Bytes.equal cipher (Bytes.of_string msg));
        match Rsa.decrypt key cipher with
        | Ok plain -> check Alcotest.string "roundtrip" msg (Bytes.to_string plain)
        | Error e -> Alcotest.fail e))
    [ ""; "k"; "0123456789abcdef0123456789abcdef" ]

let test_rsa_wrong_key_fails () =
  let key = Lazy.force rsa_key in
  let other = Rsa.generate ~bits:384 (Eric_util.Prng.create ~seed:78L) in
  let rng = Eric_util.Prng.create ~seed:2L in
  match Rsa.encrypt (Rsa.public_of key) rng (Bytes.of_string "secret key bytes") with
  | Error e -> Alcotest.fail e
  | Ok cipher -> (
    match Rsa.decrypt other cipher with
    | Error _ -> ()
    | Ok plain ->
      check Alcotest.bool "wrong key never recovers plaintext" false
        (Bytes.to_string plain = "secret key bytes"))

let test_rsa_tamper_fails () =
  let key = Lazy.force rsa_key in
  let rng = Eric_util.Prng.create ~seed:3L in
  match Rsa.encrypt (Rsa.public_of key) rng (Bytes.of_string "payload") with
  | Error e -> Alcotest.fail e
  | Ok cipher -> (
    Bytes.set cipher 5 (Char.chr (Char.code (Bytes.get cipher 5) lxor 1));
    match Rsa.decrypt key cipher with
    | Error _ -> ()
    | Ok plain ->
      check Alcotest.bool "tampered ciphertext never matches" false
        (Bytes.to_string plain = "payload"))

let test_rsa_too_long () =
  let key = Lazy.force rsa_key in
  let rng = Eric_util.Prng.create ~seed:4L in
  let big = Bytes.make (Rsa.max_message_bytes (Rsa.public_of key) + 1) 'x' in
  check Alcotest.bool "rejected" true (Result.is_error (Rsa.encrypt (Rsa.public_of key) rng big))

let test_rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let msg = Bytes.of_string "firmware package v7" in
  let signature = Rsa.sign key msg in
  check Alcotest.bool "verifies" true (Rsa.verify (Rsa.public_of key) ~message:msg ~signature);
  check Alcotest.bool "other message fails" false
    (Rsa.verify (Rsa.public_of key) ~message:(Bytes.of_string "firmware package v8") ~signature);
  let bad = Bytes.copy signature in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 4));
  check Alcotest.bool "tampered signature fails" false
    (Rsa.verify (Rsa.public_of key) ~message:msg ~signature:bad);
  let other = Rsa.generate ~bits:384 (Eric_util.Prng.create ~seed:79L) in
  check Alcotest.bool "other key fails" false
    (Rsa.verify (Rsa.public_of other) ~message:msg ~signature)

let () =
  Alcotest.run "eric_crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          sha256_incremental;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "no feed after finalize" `Quick test_sha256_feed_after_finalize;
          Alcotest.test_case "feed_sub range" `Quick test_sha256_feed_sub_range;
          Alcotest.test_case "reference model vectors" `Quick test_ref_sha256_vectors;
          Alcotest.test_case "resume" `Quick test_sha256_resume;
          sha256_matches_reference;
          compressions_agree;
          Alcotest.test_case "compression bounds" `Quick test_compress_bounds ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 long key" `Quick test_hmac_rfc4231_long_key;
          hmac_key_sensitivity ] );
      ( "keystream",
        [ Alcotest.test_case "deterministic" `Quick test_keystream_deterministic;
          Alcotest.test_case "offset consistency" `Quick test_keystream_offset_consistency;
          Alcotest.test_case "position tracking" `Quick test_keystream_position_tracking;
          Alcotest.test_case "key sensitivity" `Quick test_keystream_key_sensitivity;
          Alcotest.test_case "golden" `Quick test_keystream_golden;
          Alcotest.test_case "blocks allocate nothing" `Quick test_keystream_blocks_allocate_nothing;
          keystream_matches_reference;
          keystream_xor_involution ] );
      ("ct", [ Alcotest.test_case "basics" `Quick test_ct_equal; ct_matches_structural ]);
      ( "bignum",
        [ bignum_int_ops;
          bignum_modexp_reference;
          bignum_bytes_roundtrip;
          bignum_hex_roundtrip;
          bignum_shift_roundtrip;
          bignum_modmul_vs_mul;
          Alcotest.test_case "modinv" `Quick test_bignum_modinv;
          Alcotest.test_case "primality knowns" `Quick test_bignum_primality_knowns;
          Alcotest.test_case "random prime" `Slow test_bignum_random_prime;
          Alcotest.test_case "guards" `Quick test_bignum_guards ] );
      ( "rsa",
        [ Alcotest.test_case "roundtrip" `Slow test_rsa_roundtrip;
          Alcotest.test_case "wrong key" `Slow test_rsa_wrong_key_fails;
          Alcotest.test_case "tamper" `Slow test_rsa_tamper_fails;
          Alcotest.test_case "too long" `Quick test_rsa_too_long;
          Alcotest.test_case "sign/verify" `Slow test_rsa_sign_verify ] ) ]
