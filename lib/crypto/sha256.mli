(** SHA-256 (FIPS 180-2), implemented from scratch.

    This is the paper's signature function: the ERIC compiler hashes the
    plaintext program to produce a 256-bit signature, and the Signature
    Generator unit in the HDE recomputes it on the decrypted instruction
    stream.  The incremental interface below mirrors the hardware unit, which
    absorbs instruction words as they leave the Decryption Unit. *)

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes (one 512-bit block). *)

type ctx
(** Streaming hash state. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context (finalized or not) to the [init] state, reusing its
    buffers. *)

val feed : ctx -> bytes -> unit
val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit
val finalize : ctx -> bytes
(** [finalize] pads, produces the 32-byte digest, and invalidates the context
    (further [feed] raises). *)

val digest_padded : ctx -> bytes -> dst:bytes -> unit
(** [digest_padded ctx m ~dst] writes into the first 32 bytes of [dst] the
    digest of the message that [m] holds followed by its SHA-256 padding,
    [m] being a whole number of blocks.  [ctx] serves as scratch and is
    left finalized.  Hashing many messages of one length (keystream blocks
    in counter mode) this way pads once instead of once per message, and
    allocates nothing.  Raises [Invalid_argument] if [m] is empty or not
    whole blocks, or [dst] is shorter than 32 bytes. *)

val digest : bytes -> bytes
(** One-shot hash. *)

val digest_string : string -> bytes

val hex : bytes -> string
(** Convenience: hash and render lowercase hex. *)
