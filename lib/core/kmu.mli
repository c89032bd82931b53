(** Key Management Unit: derives working "PUF-based keys" from the raw PUF
    key, the abstraction layer the paper insists on — the PUF key itself is
    immutable silicon and must never be handed to software sources, while
    derived keys can be rotated (epochs) and scoped (labels), and the same
    derivation runs inside the HDE and at the software source.

    Derivation is HMAC-SHA-256 with a context string, so distinct contexts
    yield independent keys and the software source learns nothing about
    the PUF key from the derived key it is given. *)

type context = {
  epoch : int;  (** rotating this revokes every previously issued key *)
  label : string;  (** deployment scope, e.g. "firmware-v2" *)
}

val default_context : context

val derive : puf_key:bytes -> context -> bytes
(** 32-byte PUF-based key. *)

val device_key : ?context:context -> Eric_puf.Device.t -> bytes
(** Convenience: read the device's PUF key (majority-voted) and derive.
    Assumes nominal conditions; production boots should prefer
    {!boot_key}, which survives environmental corners. *)

type boot =
  | Key_ready of bytes  (** derived working key, reconstruction verified *)
  | Key_reconstruction_failed of Eric_puf.Fuzzy.failure
      (** the extractor refused; the HDE must refuse to load, never run
          with a guessed key *)

val boot_key :
  ?context:context -> ?fuzzy:Eric_puf.Fuzzy.config -> ?env:Eric_puf.Env.t ->
  Eric_puf.Device.t -> Eric_puf.Enroll.helper -> boot
(** Boot-time key derivation through the fuzzy extractor: reconstruct the
    PUF key from helper data at the current operating point, then derive.
    Every failure is explicit — there is no wrong-key success path. *)
