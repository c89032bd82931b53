(** Growable bit vectors.

    Used for ERIC's encryption maps (one bit per instruction parcel, per the
    paper's partial-encryption packaging), for PUF response streams, and as
    the compiler's dense temp sets over [[0, f_temp_count)] (see "Sets"
    below). *)

type t

val create : int -> t
(** [create n] is an all-zero bit vector of length [n]. *)

val length : t -> int

val get : t -> int -> bool
(** Raises [Invalid_argument] when out of bounds. *)

val set : t -> int -> bool -> unit

val append : t -> bool -> t
(** Functional append (copies); handy for building maps incrementally. *)

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val popcount : t -> int
(** Number of set bits. *)

val to_bytes : t -> bytes
(** Little-endian bit packing: bit [i] lives in byte [i/8], bit position
    [i mod 8].  The final partial byte is zero-padded. *)

val of_bytes : len:int -> bytes -> t
(** Inverse of [to_bytes] given the original bit [len].  Raises
    [Invalid_argument] if [bytes] is too short for [len]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Sets}

    A bit vector of length [n] read as a subset of [[0, n)].  The
    two-operand operations work a 64-bit word at a time, write into their
    first argument, and raise [Invalid_argument] when the lengths
    differ. *)

val mem : t -> int -> bool
(** [get] that answers [false] outside [[0, length)]. *)

val add : t -> int -> unit
(** [set t i true]; raises [Invalid_argument] when out of bounds. *)

val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src]: [dst] becomes [dst ∪ src]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src]: [dst] becomes [dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src]: [dst] becomes [dst \ src]. *)

val iter : (int -> unit) -> t -> unit
(** The members, in ascending order. *)
