(** One shard of the software source's device registry, and the EFRG
    codec every on-disk registry is made of ({!Registry_shard} owns the
    files and their layout).

    Each enrolled device carries the KMU context it was provisioned under,
    the PUF-based key the provisioning handshake produced (never the PUF
    key itself — see {!Eric.Kmu}), the firmware epoch of its last
    successful deployment, and a quarantine flag set by the shipper when a
    device repeatedly refuses validly signed packages.

    The registry serialises to a strict, versioned binary format
    (magic ["EFRG"], version 2; version-1 files still parse) documented
    in [docs/fleet.md]; parsing rejects truncation, reserved bytes,
    duplicate ids and trailing garbage, so a corrupt file is refused
    rather than half-loaded. *)

type status = Active | Quarantined of string  (** reason *)

type entry = {
  device_id : Eric_puf.Device.id;
  epoch : int;  (** KMU key epoch the stored key was derived under *)
  label : string;  (** KMU deployment-scope label *)
  key : bytes;  (** provisioned PUF-based key for that context *)
  firmware_epoch : int;  (** last campaign successfully deployed (0 = never) *)
  status : status;
  helper : Eric_puf.Enroll.helper option;
      (** fuzzy-extractor helper data (public) from reliability-aware
          enrollment; [None] on legacy v1 entries, which keep the plain
          majority-vote boot *)
  instability_ppm : int;
      (** worst per-bit instability at enrollment or last survey, ppm *)
}

type t

val create : unit -> t
val entries : t -> entry list
(** Enrolment order. *)

val count : t -> int
val find : t -> Eric_puf.Device.id -> entry option
val mem : t -> Eric_puf.Device.id -> bool
val active : t -> entry list
val quarantined : t -> entry list

val context : entry -> Eric.Kmu.context

val device : t -> Eric_puf.Device.id -> Eric_puf.Device.t
(** The simulated silicon, manufactured once per registry and memoized —
    the stand-in for the hardware simply existing in the field. *)

val target : ?env:Eric_puf.Env.t -> t -> entry -> Eric.Target.t
(** Address the device under its enrolled KMU context.  When the entry
    carries helper data the target boots through the fuzzy extractor
    (at [env], default nominal) — a boot that can {e fail}, leaving the
    target refusing every load with [Key_unavailable].  Memoized per
    (device, context): the PUF key derivation happens once per boot on
    real silicon, so the model pays it once per registry, not per packet. *)

val target_for :
  ?env:Eric_puf.Env.t -> t -> context:Eric.Kmu.context -> Eric_puf.Device.id ->
  Eric.Target.t
(** Same memoized addressing under an arbitrary context (key rotation). *)

val set_hde : t -> Eric_hw.Hde.config -> unit
(** Provision every device this registry boots with the given HDE
    configuration — how the serve layer turns on the runtime integrity
    guard ({!Eric_hw.Hde.config.guard}) fleet-wide.  Drops all memoized
    boots, so already-addressed devices re-boot under the new silicon
    config on next use. *)

val enroll :
  ?epoch:int -> ?label:string -> ?enrollment:Eric_puf.Enroll.enrollment ->
  t -> Eric_puf.Device.id -> (entry, string) result
(** Manufacture the device, run reliability-aware enrollment
    ({!Eric_puf.Enroll.enroll}) and record the entry — helper data, the
    context-derived key and the measured instability included.  Pass
    [enrollment] to record a factory enrollment already performed.  Fails
    on a duplicate id or a die that cannot field enough stable chains. *)

val enroll_legacy : ?epoch:int -> ?label:string -> t -> Eric_puf.Device.id ->
  (entry, string) result
(** The fast factory path: derive the context key from a plain
    majority-vote PUF read at nominal conditions and record the entry
    with no helper data ([helper = None]) — exactly what a version-1
    provisioning line produced.  Roughly 5x cheaper per device than
    {!enroll}'s full reliability screening, which is what makes
    enrolling 10^5-device fleets for benches and CI tractable.  The
    device keeps the plain majority-vote boot; {!Reenroll} upgrades
    legacy entries to helper-data boots in the field. *)

val add : t -> entry -> (entry, string) result
(** Record an externally provisioned entry verbatim. *)

val update : t -> entry -> unit
(** Replace the entry with the same [device_id].  The device's memoized
    boots are invalidated only when a boot-relevant field changed (KMU
    epoch, label, key, or helper data) — firmware-epoch bookkeeping and
    quarantine flips keep the booted target, so warm redeployments do
    not re-pay key reconstruction per device.
    @raise Invalid_argument if the device is not enrolled. *)

val serialize : t -> bytes
val parse : bytes -> (t, string) result

val serialize_entry : Buffer.t -> entry -> unit
(** Append one wire-format (version-2) entry record to [buf].  With
    {!header} this lets shard writers stream entries to disk without
    building a whole-registry buffer. *)

val header : count:int -> bytes
(** The 12-byte file header (magic, version, reserved, entry count).
    Writers that stream entries can emit a [count:0] header first and
    rewrite it once the true count is known. *)

val fold_file :
  string -> init:'acc -> f:('acc -> entry -> ('acc, string) result) ->
  ('acc, string) result
(** Stream a registry file entry by entry without materializing a
    registry (or the file) in memory: each entry is decoded from a
    {!Eric_util.Wire} file cursor, handed to [f], and dropped.  Strictness
    matches {!parse} — bad magic, truncation and trailing bytes all fail
    — except duplicate device ids, which the caller must track if it
    cares.  [f] can stop the fold by returning [Error]. *)

val save : t -> string -> (unit, string) result
val load : string -> (t, string) result
(** [save] writes a temp file and renames it over [path]; [load] parses
    the file as a stream.  I/O failures are [Error], not exceptions. *)

val pp_entry : Format.formatter -> entry -> unit
