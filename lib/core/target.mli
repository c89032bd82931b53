(** The target-hardware side of ERIC: a device with a PUF, a Key Management
    Unit and an HDE in front of its Rocket-class core — steps 5-6 of the
    paper's workflow.

    [receive*] runs the whole HDE path (streaming decrypt, signature
    regeneration, validation) and accounts its load-time cycles with the
    {!Eric_hw.Hde} model; [execute] then runs the validated program on the
    simulated SoC, so [Eric_sim.Soc.total_cycles] is the end-to-end time
    Fig 7 compares against a plain load of the same program. *)

type t

val create :
  ?context:Kmu.context -> ?hde:Eric_hw.Hde.config -> Eric_puf.Device.t -> t
(** Plain majority-vote key path (assumes nominal conditions; always
    yields a key). *)

val of_id : ?context:Kmu.context -> ?hde:Eric_hw.Hde.config -> Eric_puf.Device.id -> t
(** Manufacture the device on the fly. *)

val create_with_helper :
  ?context:Kmu.context ->
  ?hde:Eric_hw.Hde.config ->
  ?fuzzy:Eric_puf.Fuzzy.config ->
  ?env:Eric_puf.Env.t ->
  Eric_puf.Device.t ->
  Eric_puf.Enroll.helper ->
  t
(** Production boot: reconstruct the PUF key through the fuzzy extractor
    at the given operating point and derive the working key.  The HDE
    key-setup budget is re-costed from the actual challenge reads and
    attempts ({!Eric_hw.Hde.reconstruction_cycles}).  On reconstruction
    failure the target is still built, but {!key_state} is [Error] and
    every load refuses with {!Key_unavailable} — graceful degradation,
    never a wrong key. *)

val device : t -> Eric_puf.Device.t

val key_state : t -> (bytes, Eric_puf.Fuzzy.failure) result
(** The boot outcome: the derived working key, or the typed
    reconstruction failure this target is refusing loads with. *)

val derived_key : t -> bytes
(** The device's PUF-based key for its current KMU context (what
    provisioning would hand to a trusted software source).
    @raise Invalid_argument when {!key_state} is [Error] — provisioning
    flows should check {!key_state} on helper-booted targets. *)

type load_error =
  | Malformed of string  (** the bytes are not a well-formed package *)
  | Rejected of Encrypt.error  (** the Validation Unit said no *)
  | Key_unavailable of Eric_puf.Fuzzy.failure
      (** key reconstruction failed at boot; the HDE refuses every load
          (distinct from a validation refusal: the package may be fine,
          the silicon could not rebuild its key) *)

val pp_load_error : Format.formatter -> load_error -> unit

val refusal_reason : load_error -> string
(** Stable label for the telemetry family
    [ingest.refused_total{reason=...}]: ["malformed"], ["framing"],
    ["signature"] or ["key-reconstruction"]. *)

type loaded = {
  image : Eric_rv.Program.t;
  stats : Encrypt.stats;
  load : Eric_hw.Hde.breakdown;  (** HDE ingest cycle accounting *)
}

val receive : t -> Package.t -> (loaded, load_error) result
val receive_bytes : t -> bytes -> (loaded, load_error) result

val run :
  ?timing:Eric_sim.Cpu.timing ->
  ?fuel:int ->
  ?corrupt:(Eric_util.Memory.t -> Eric_rv.Program.t -> unit) ->
  t ->
  loaded ->
  Eric_sim.Soc.result
(** Load a received image into SoC memory and run it under the device's
    integrity guard ({!Eric_hw.Hde.config.guard}), accounting the HDE's
    load cycles.  [corrupt], applied after the load and before the first
    instruction, injects post-validation memory faults (soft-error
    campaigns); the guard enrolled its reference digests during the HDE
    load, so such corruption diverges from them.  The result's status is
    [Integrity_fault] when the guard caught it. *)

val execute :
  ?timing:Eric_sim.Cpu.timing ->
  ?fuel:int ->
  t ->
  Package.t ->
  (Eric_sim.Soc.result, load_error) result
(** Receive, load into SoC memory and run to completion; the result's
    [load_cycles] is the HDE total. *)
