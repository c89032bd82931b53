(** Deterministic keystream expansion for the XOR cipher.

    The paper's Key Management Unit turns a single PUF-based key into "keys
    in the appropriate formats for the Encryption Unit", so that "multiple
    encryption iterations continue with a single PUF-based key".  We realise
    this as SHA-256 in counter mode: block [i] of the stream is
    [SHA-256(key || le64 i)], one compression per 32 bytes for keys of up
    to 47 bytes.  The same stream is regenerated independently on the
    software source and inside the HDE.

    A stream compresses the message blocks that hold only key bytes once,
    when it is created, and keeps the last block it produced: consecutive
    reads of one block hash it once.  That saved state is key material;
    it lives only inside {!t}. *)

type t
(** One key's stream: a positioned reader ({!take}) over an addressable
    stream ({!xor_in_place}, {!half}). *)

val create : key:bytes -> t
(** Stream positioned at offset 0. *)

val at : key:bytes -> offset:int -> t
(** Stream positioned at an absolute byte [offset]. *)

val take : t -> int -> bytes
(** [take t n] returns the next [n] keystream bytes, advancing the stream. *)

val offset : t -> int
(** Current absolute position in bytes. *)

val xor_in_place : ?mask:bytes -> t -> offset:int -> bytes -> unit
(** [xor_in_place ?mask t ~offset buf] XORs stream bytes [offset],
    [offset + 1], ... into every byte of [buf], each first ANDed with
    [mask]'s byte at the same index when a mask is given.  Each 32-byte
    block is XORed as it is produced; nothing is allocated.  Leaves the
    {!take} position alone.  Raises [Invalid_argument] on a negative
    [offset] or a mask whose length differs from [buf]'s. *)

val half : t -> int -> int
(** [half t offset] is stream bytes [offset] and [offset + 1] as a
    little-endian 16-bit value, read from the block it lies in (the HDE's
    parcel-by-parcel walk).  Leaves the {!take} position alone.  Raises
    [Invalid_argument] on a negative [offset]. *)

val xor : key:bytes -> ?offset:int -> bytes -> bytes
(** One-shot: XOR a copy of a buffer against the stream starting at
    [offset] (default 0).  Symmetric, so it both encrypts and decrypts. *)
