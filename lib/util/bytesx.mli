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

val xor_range : src:bytes -> key:bytes -> dst:bytes -> pos:int -> len:int -> unit
(** [xor_range ~src ~key ~dst ~pos ~len] writes [src XOR key] into [dst]
    over the bytes [pos] to [pos + len - 1] of all three ([dst] may be
    [src]).  Processes 8 bytes per step as little-endian 64-bit words with
    a scalar tail, so keystream personalization runs at word speed.
    Raises [Invalid_argument] if the range does not fit all three. *)

val xor_into : src:bytes -> key:bytes -> dst:bytes -> unit
(** [xor_into ~src ~key ~dst] is [xor_range] over the whole of [src];
    all three must have equal length. *)

val append : bytes -> bytes -> bytes

val concat : bytes list -> bytes
