(** Hex conversion of byte buffers.  Fixed-width codecs are the
    stdlib's ([Bytes.get_uint16_le], ...) and {!Wire}'s. *)

val to_hex : bytes -> string
(** Lowercase hex, two characters per byte. *)

val of_hex : string -> bytes
(** Inverse of [to_hex]; accepts upper or lower case.  Raises
    [Invalid_argument] on odd length or non-hex characters. *)
