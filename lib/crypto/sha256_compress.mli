(* SHA-256's compression function, written by gen/gen_compress.ml at
   build time.  Private to the library. *)

val compress : bytes -> bytes -> int -> unit
(** [compress h b pos] absorbs the 64-byte block at [pos] of [b] into the
    chaining value [h], eight big-endian 32-bit words (the digest's
    layout) in its first 32 bytes.  It allocates nothing.  Raises
    [Invalid_argument] before writing [h] if the block is not inside [b]
    or [h] is shorter than 32 bytes. *)
