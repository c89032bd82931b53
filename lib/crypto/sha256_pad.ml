(* SHA-256 message padding (FIPS 180-2, section 5.1.1), shared by
   [Sha256.finalize], which pads the buffered end of a stream, and
   [Keystream], which pads its fixed-length block message once per
   stream.  Private to the library. *)

(* [blocks ~len ~total] is a zeroed buffer of whole 64-byte blocks with
   room for [len] message bytes, the end of a [total]-byte message,
   followed by that message's padding: 0x80, zeros, then the 64-bit
   big-endian message length in bits.  The caller writes the message
   bytes at offset 0. *)
let blocks ~len ~total =
  let out = Bytes.make ((len + 9 + 63) / 64 * 64) '\000' in
  Bytes.set out len '\x80';
  Bytes.set_int64_be out (Bytes.length out - 8) (Int64.mul (Int64.of_int total) 8L);
  out
