(** Arbitrary-precision unsigned integers, from scratch.

    Substrate for the RSA key-delivery extension (the paper's stated future
    work: "bring RSA-based key generation and usage to ERIC").  Numbers are
    little-endian arrays of 24-bit limbs; all operations are purely
    functional.  Modular multiplication is interleaved shift-and-add (one
    conditional subtraction per step), so [modexp] needs no general
    division on its hot path; general [divmod] (binary long division)
    exists for the extended Euclid used by key generation.

    This is educational cryptography: no blinding, no constant-time
    guarantees, demo-grade sizes.  The XOR-cipher core of ERIC does not
    depend on it. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** Raises [Invalid_argument] on negatives. *)

val to_int_opt : t -> int option
(** [None] when the value exceeds [max_int]. *)

val of_bytes_be : bytes -> t
val to_bytes_be : ?len:int -> t -> bytes
(** Big-endian; [len] left-pads with zeros (raises if the value needs more
    than [len] bytes). *)

val of_hex : string -> t
val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_even : t -> bool
val num_bits : t -> int
val bit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] when the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [(q, r)] with [a = q*b + r], [r < b].  Raises [Division_by_zero]. *)

val rem : t -> t -> t

val modmul : t -> t -> m:t -> t
(** [(a * b) mod m] without forming the double-width product. *)

val modexp : t -> t -> m:t -> t
(** [base^exp mod m], square-and-multiply over {!modmul}. *)

val gcd : t -> t -> t

val modinv : t -> m:t -> t option
(** Multiplicative inverse mod [m] when [gcd a m = 1]. *)

val is_probable_prime : ?rounds:int -> Eric_util.Prng.t -> t -> bool
(** Miller-Rabin after trial division by small primes; [rounds] defaults
    to 20. *)

val random_prime : Eric_util.Prng.t -> bits:int -> t
(** An odd probable prime with exactly [bits] bits. *)

val pp : Format.formatter -> t -> unit
