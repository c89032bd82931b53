(** Byte-buffer helpers shared across the framework: hex conversion and
    little-endian fixed-width codecs (RISC-V and ERIC's package format are
    little-endian throughout). *)

val to_hex : bytes -> string
(** Lowercase hex, two characters per byte. *)

val of_hex : string -> bytes
(** Inverse of [to_hex]; accepts upper or lower case.  Raises
    [Invalid_argument] on odd length or non-hex characters. *)

val get_u16 : bytes -> int -> int
(** Little-endian 16-bit read at byte offset. *)

val set_u16 : bytes -> int -> int -> unit

val get_u32 : bytes -> int -> int32
val set_u32 : bytes -> int -> int32 -> unit

val get_u64 : bytes -> int -> int64
val set_u64 : bytes -> int -> int64 -> unit

val append : bytes -> bytes -> bytes

val concat : bytes list -> bytes
