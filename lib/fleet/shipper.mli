(** Deliver one personalized package to one device over a lossy or
    hostile channel, retrying with exponential (simulated-time) backoff.

    Every shipment terminates in exactly one of two states — [Delivered]
    (the Validation Unit accepted an attempt) or [Quarantined] (attempts
    exhausted, the device hit the policy's signature-refusal threshold,
    or its key reconstruction failed at boot) — so a campaign can never
    silently drop a device.  Quarantine causes are a closed variant, not
    strings: long-running callers (the serve subsystem's SLO accounting)
    bucket "signature refused" vs "key reconstruction failed" vs their
    own "queue shed" without string matching.  A [Key_reconstruction_failed]
    quarantine is immediate and distinct: the package may be fine, but
    the silicon could not rebuild its key, so the cure is re-enrollment
    ({!Reenroll}), not re-shipping.

    Telemetry: [fleet.ship.attempts_total], [fleet.ship.retries_total],
    [fleet.ship.refused_total{reason}], [fleet.ship.delivered_total],
    [fleet.ship.retries_recovered_total], [fleet.ship.quarantined_total],
    [fleet.ship.backoff_ns] and the [fleet.ship.attempts] histogram. *)

type quarantine_reason =
  | Key_reconstruction_failed
      (** the device's fuzzy extractor refused at boot; re-enroll, don't re-ship *)
  | Signature_refusals of int
      (** the device refused [n] validly-signed packages — stale or hostile key *)
  | Exhausted of int  (** undeliverable after [n] attempts (transit noise won) *)
  | Integrity_faults of int
      (** the device's runtime guard faulted [n] executions in a row —
          re-shipping clean memory did not stick, so the hardware (or an
          attacker with memory access) needs investigation *)

val quarantine_label : quarantine_reason -> string
(** Stable human string, also what {!Campaign} records into
    {!Registry.status} (the registry wire format stores strings). *)

type outcome =
  | Delivered of {
      load_cycles : int64;  (** HDE ingest cycles of the accepted attempt *)
      exec : Eric_sim.Soc.result option;  (** when shipped with [~execute:true] *)
    }
  | Quarantined of { reason : quarantine_reason }

type delivery = {
  device_id : Eric_puf.Device.id;
  attempts : int;  (** total tries, including the successful one *)
  refusals : (int * Eric.Target.load_error) list;
      (** (attempt, typed refusal); render with {!Eric.Target.refusal_reason} *)
  integrity_faults : int;
      (** executions the runtime guard aborted across all attempts; a
          [Delivered] outcome with a non-zero count means re-shipping
          recovered the device *)
  backoff_ns : int64;  (** total simulated backoff *)
  wire_bytes : int;  (** serialized package size per attempt *)
  outcome : outcome;
}

val delivered : delivery -> bool
val retried : delivery -> bool
(** Delivered, but only after at least one refusal. *)

type fault_injector = attempt:int -> Eric_util.Memory.t -> Eric_rv.Program.t -> unit
(** Corrupts device memory between load and execution — the soft-error
    model of the serve scenarios.  Called once per executing attempt
    with the attempt number, so an injector can fault some attempts and
    spare others. *)

val ship :
  ?policy:Backoff.policy ->
  ?channel:Channel.t ->
  ?execute:bool ->
  ?fuel:int ->
  ?clock:Eric_util.Sim_clock.t ->
  ?soft_errors:fault_injector ->
  build:Eric.Source.build ->
  target:Eric.Target.t ->
  unit ->
  delivery
(** [execute] (default [false]) also runs the validated program on the
    device's SoC — under the device's integrity guard
    ({!Eric.Target.run}); the default stops after HDE validation, which
    is what a mass deployment campaign measures.  An execution the guard
    aborts counts toward [integrity_faults] and is retried with backoff
    (the artifact re-ships from cache and re-enrolls clean memory);
    [policy.quarantine_refusals] consecutive guard faults quarantine the
    device with {!Integrity_faults}.  [soft_errors] (requires [execute])
    injects memory corruption before each run.  [clock] is advanced by
    every retry delay, so a long-running caller (the serve loop) and the
    shipper account backoff on one shared simulated timeline. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_delivery : Format.formatter -> delivery -> unit
