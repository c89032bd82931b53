(** SHA-256 (FIPS 180-2), implemented from scratch.

    This is the paper's signature function: the ERIC compiler hashes the
    plaintext program to produce a 256-bit signature, and the Signature
    Generator unit in the HDE recomputes it on the decrypted instruction
    stream.  The incremental interface below mirrors the hardware unit, which
    absorbs instruction words as they leave the Decryption Unit.

    Every function below runs one compression, {!compress}.  On a host
    whose CPUID reports the x86 SHA extensions (with SSSE3 and SSE4.1) it
    is a C kernel on those instructions, as the paper's HDE hashes in
    hardware; everywhere else it is {!portable_compress}, OCaml generated
    at build time.  The CPU makes the choice, once, when the module is
    initialised: no option, variable or configuration field selects it.
    The two give the same bytes on every input, and the portable one is
    the reference the tests hold the kernel to. *)

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes (one 512-bit block). *)

type ctx
(** Streaming hash state. *)

val init : unit -> ctx

val feed : ctx -> bytes -> unit
val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit
val finalize : ctx -> bytes
(** [finalize] pads, produces the 32-byte digest, and invalidates the context
    (further [feed] raises). *)

type midstate
(** The hash state partway through one padded message: the chaining
    value after every block before the one that holds a given message
    word.  Those blocks read nothing from the word on, so the state
    serves every message that agrees on the words before it:
    counter-mode keystream blocks share their key's words and differ only
    from the counter on.  A midstate is never written after it is made. *)

val midstate : bytes -> word:int -> midstate
(** [midstate m ~word] compresses the blocks of the padded message [m]
    (a whole number of 64-byte blocks: the message then its padding)
    that lie wholly before message word [word], the blocks before block
    [word / 16].  Raises [Invalid_argument] if [m] is empty or not whole
    blocks, or [word] is not a word of [m]. *)

val resume : midstate -> bytes -> dst:bytes -> unit
(** [resume s m ~dst] writes into the first 32 bytes of [dst] the digest
    of the padded message [m], which has the length of the message [s]
    was taken from and agrees with it on every word before [s]'s.  It
    compresses the block that holds [s]'s word, in full, and every later
    one, and allocates nothing.  Raises [Invalid_argument] if [m]'s
    length differs or [dst] is shorter than 32 bytes. *)

val digest : bytes -> bytes
(** One-shot hash. *)

val compress : bytes -> bytes -> int -> unit
(** [compress h b pos] absorbs the 64-byte block at [pos] of [b] into the
    chaining value [h], eight big-endian 32-bit words (the digest's
    layout) in its first 32 bytes.  It allocates nothing.  Raises
    [Invalid_argument], with [h] unchanged, if the block is not inside [b]
    or [h] is shorter than 32 bytes. *)

val portable_compress : bytes -> bytes -> int -> unit
(** {!compress} in OCaml, with the same contract: the only compression on
    hosts without the SHA extensions, and the reference for the one that
    uses them. *)

val sha_extensions : bool
(** Whether {!compress} runs on the x86 SHA extensions on this host. *)

val digest_string : string -> bytes

val hex : bytes -> string
(** Convenience: hash and render lowercase hex. *)
