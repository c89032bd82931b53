(** Key-rotation campaigns.

    A rotation bumps every enrolled device to a new {!Eric.Kmu.context}
    epoch (optionally changing the derivation label too) and re-provisions
    the per-device PUF-based key — either via the out-of-band handshake
    ({!Local}, the paper's baseline) or in-band over the hostile channel
    under RSA ({!Rsa}, the paper's future-work path).  Successfully
    re-keyed devices are reactivated if they had been quarantined: a fresh
    key is a fresh start, and the next campaign decides their fate on the
    new evidence.

    Rotation touches only keys.  Re-deploying firmware after a rotation
    hits the artifact cache and re-encrypts from the cached plaintext
    without recompiling — see {!Campaign}.

    Telemetry: [fleet.rotate.runs_total],
    [fleet.rotate.rotated_total{method}], [fleet.rotate.reactivated_total],
    [fleet.rotate.failed_total]. *)

type method_ =
  | Local  (** out-of-band: read the derived key at enrolment distance *)
  | Rsa of { source_key : Eric_crypto.Rsa.private_key; seed : int64 }
      (** in-band: device encrypts its key under the source's RSA key;
          [seed] derives each device's handshake randomness *)

val rsa : bits:int -> seed:int64 -> method_
(** [Rsa] under a [bits]-bit source key generated from [seed].  The
    source's RSA identity is one key per command: build the method once
    and pass it to every {!rotate} of that command, one per shard. *)

type report = {
  epoch : int;
  label : string option;  (** [None] = each device kept its label *)
  method_ : method_;
  rotated : int;
  reactivated : int;
  failed : (Eric_puf.Device.id * string) list;
}

val rotate :
  ?scheduler:Eric_engine.Engine.scheduler -> ?method_:method_ -> ?label:string ->
  epoch:int -> Registry.t -> report
(** Mutates the registry in place; persist with {!Registry.save}.
    Per-device provisioning runs as {!Eric_engine.Engine} jobs
    ([scheduler], default deterministic); under {!Rsa} each device draws
    handshake randomness from its own seed-and-id-derived stream, so the
    domain scheduler produces the same keys as the deterministic one.  A
    device whose helper data no longer reconstructs a key, or whose
    in-band handshake fails, is listed in [failed] with its entry left
    unchanged; the rest of the fleet still rotates. *)

val pp_report : Format.formatter -> report -> unit
