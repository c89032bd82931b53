(** Program encryption and decryption (the compiler's Encryption Unit and
    the HDE's Decryption Unit).

    Keystream bytes are addressed by text-section byte offset; the
    signature trailer uses the stream at offset [text_len].  Decryption of
    a partially encrypted package is *streaming*, exactly as the hardware
    works: the parcel framing of an encrypted text section is discovered
    by decrypting each parcel's low half first and reading its length
    bits — which is why a 1-bit-per-parcel map suffices and no parcel-size
    table travels with the package.  A fully encrypted text is XORed
    whole, then its framing is checked in one count with the same errors
    in the same order.  Every path XORs each keystream block as it is
    produced, into a buffer of its own: no result shares a buffer with an
    argument's text. *)

type stats = {
  parcels : int;
  encrypted_parcels : int;
  encrypted_bytes : int;  (** bytes that needed keystream (for the HDE model) *)
}

val encrypt :
  ?obf:int * int64 -> key:bytes -> mode:Config.mode -> Eric_rv.Program.t -> Package.t * stats
(** Sign (over plaintext) then encrypt per [mode].  [obf] is the
    obfuscation provenance (pass mask, build seed) to record in the
    package header; it is authenticated along with the rest. *)

type prepared
(** The key-independent part of an encryption: package skeleton, the
    plaintext signature and the keystream mask (which text bits the
    selected parcels encrypt).  [prepare] runs once per (image, mode);
    [personalize] then derives a device's package with nothing but one
    masked keystream XOR pass — the fleet's compile-once/encrypt-many fast
    path.  [encrypt ~key ~mode image] is exactly
    [personalize ~key (prepare ~mode image)]. *)

val prepare : ?obf:int * int64 -> mode:Config.mode -> Eric_rv.Program.t -> prepared
(** Select parcels, lay the package out over a copy of the image's text,
    build the keystream mask, and sign the plaintext (counts one
    [build.signatures_total]). *)

val personalize : key:bytes -> prepared -> Package.t * stats
(** XOR the prepared layout against [key]'s keystream: text ⊕ (keystream
    ∧ mask) in one pass over a copy, so the prepared skeleton and image
    stay as they were (counts one [build.personalizations_total]). *)

val prepared_stats : prepared -> stats
(** Selection statistics, available before any key is seen. *)

type error =
  | Framing_failure of string
      (** the decrypted stream does not tile into parcels — wrong device,
          corrupted map, or truncation *)
  | Signature_mismatch
      (** decryption succeeded structurally but the recomputed signature
          disagrees: tampering, soft error, or wrong device *)

val pp_error : Format.formatter -> error -> unit

val decrypt : key:bytes -> Package.t -> (Eric_rv.Program.t * stats, error) result
(** Decrypt, recompute the signature over the decrypted content and
    validate it against the package's (decrypted) signature.  The image's
    text is the decrypted buffer itself, a copy of the package's, framed
    by the decryption; its data is the package's. *)

val decrypt_text_only : key:bytes -> Package.t -> bytes
(** Just run the keystream over the text section without framing or
    validation — what a naive attacker with a guessed key obtains; used by
    the analysis module. *)
