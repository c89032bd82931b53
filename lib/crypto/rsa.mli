(** Textbook RSA with PKCS#1-v1.5-style padding, built on {!Bignum}.

    Implements the paper's stated future work ("bring RSA-based key
    generation and usage to ERIC"): with an RSA keypair at the software
    source, a device can deliver its PUF-based key *in band* over the
    untrusted network (see [Protocol.provision_over_network]) instead of
    the paper's assumed out-of-band handshake, and the source can sign
    packages so devices can pin a vendor key.

    Demo-grade: default 512-bit modulus, no blinding, not constant time —
    fine for the simulation, not for production. *)

type public_key = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public_key;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
}

val generate : ?bits:int -> Eric_util.Prng.t -> private_key
(** [bits] is the modulus size (default 512, minimum 128); e = 65537. *)

val public_of : private_key -> public_key

val max_message_bytes : public_key -> int
(** Modulus bytes minus the 11-byte padding minimum. *)

val encrypt : public_key -> Eric_util.Prng.t -> bytes -> (bytes, string) result
(** EB = 00 02 <nonzero random, >= 8 bytes> 00 <message>; errors when the
    message exceeds {!max_message_bytes}. *)

val decrypt : private_key -> bytes -> (bytes, string) result
(** Errors on wrong length, bad padding, or garbage (wrong key). *)

val sign : private_key -> bytes -> bytes
(** EB = 00 01 FF..FF 00 <SHA-256 of message>, exponentiated with [d]. *)

val verify : public_key -> message:bytes -> signature:bytes -> bool
