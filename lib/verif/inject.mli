(** Fault-injection campaigns: flip bits, see who notices.

    DESIGN §5 makes failure injection a first-class obligation: the
    signature must detect tampering and soft errors in transit, and
    wrong-key decryptions must never validate.  This engine turns those
    claims into measured coverage.  Each injection flips one bit in a
    chosen region and classifies the result:

    - {b wire regions} ([Header], [Map], [Payload], [Data], [Signature]):
      the flip happens to the serialized package between source and
      device, i.e. in transit.  Everything here is covered by the
      signature (the signature itself travels encrypted), so single-bit
      detection must be 100%.
    - {b Dram}: the flip happens in simulated main memory {e after} the
      HDE validated the load — the paper's protection explicitly ends
      here.  Without a guard this region measures the residual exposure
      window (a CPU trap counts as detected); with
      {!config.guard} enabled the runtime integrity guard re-checks the
      resident image as the program runs, and a flip it catches is
      credited as [Detected "integrity-guard"].
    - {b Key}: the flip happens in the device's KMU-derived key (HDE/KMU
      state upset).  A wrong key must never produce a validating
      decryption.

    Classification: {e detected} (refused, guard-faulted, or trapped for
    [Dram]), {e masked} (accepted, behaviour identical to baseline) and
    {e silent} (accepted, behaviour differs) — a silent corruption in a
    signed region is a security bug and ships as a replayable escape. *)

type region = Header | Map | Payload | Data | Signature | Dram | Key

val region_name : region -> string
val region_of_string : string -> (region, string) result

val wire_regions : region list
(** The signed, in-transit regions (no [Dram]/[Key]). *)

val all_regions : region list

type outcome = Detected of string | Masked | Silent

type row = {
  region : region;
  injections : int;
  detected : int;
  masked : int;
  silent : int;
}

type escape = {
  e_region : region;
  e_bit : int;  (** bit offset within the region *)
  e_seed : int64;  (** the campaign seed the escape was drawn under *)
  e_iter : int;
      (** 1-based iteration that produced it: re-running the same
          campaign ([e_seed], same region list) with [count = e_iter]
          makes this escape the final shot — the PRNG draws are strictly
          sequential, so the replay is exact *)
}

type report = {
  rows : row list;  (** one per requested region, in request order *)
  escapes : escape list;
  baseline : Oracle.behaviour;  (** the uninjected program's behaviour *)
  seed : int64;
  count : int;
  dram_overhead : float;
      (** mean guard_cycles / exec_cycles over the campaign's [Dram]
          runs — the cycle price of the configured guard; 0 when no
          [Dram] injections ran or the guard is off *)
}

val detection_coverage : report -> float
(** detected / (detected + silent) over all rows pooled: the fraction of
    consequential faults that were caught.  1.0 when every fault was
    detected or masked. *)

val silent_total : report -> int

type config = {
  fuel : int;
  mode : Eric.Config.mode;  (** default partial/select-all, so a map exists *)
  device_id : int64;
  seed : int64;
  count : int;
  regions : region list;
  guard : Eric_hw.Guard.config;
      (** runtime integrity guard active during [Dram] runs (default
          {!Eric_hw.Guard.disabled}); ignored by other regions, whose
          flips never reach resident memory *)
}

val default_config : config

val default_source : string
(** The workload [eric verif inject] runs when given no source: a small
    program with both string data and computed output, so every package
    region (map, payload, data) is non-empty for injections. *)

val campaign : ?config:config -> string -> (report, string) result
(** [campaign source] compiles, packages and baselines [source] once,
    then runs [config.count] single-bit injections spread uniformly over
    [config.regions].  [Error] on a source that does not compile, a
    clean package that does not validate, or a requested region that is
    empty for this package (e.g. [Map] under full encryption).
    Each injection lands on the [verif.injections_total{region,outcome}]
    telemetry family. *)

val replay_command : regions:region list -> escape -> string
(** The [eric verif inject] invocation that reproduces an escape as its
    final injection ([regions] must be the original campaign's region
    list — the draw sequence depends on it). *)

type sweep_point = {
  sp_mechanism : Eric_hw.Guard.mechanism;
  sp_injections : int;
  sp_detected : int;
  sp_silent : int;
  sp_coverage : float;
  sp_overhead : float;  (** mean guard_cycles / exec_cycles *)
}

val dram_sweep :
  ?config:config ->
  mechanisms:Eric_hw.Guard.mechanism list ->
  string ->
  (sweep_point list, string) result
(** Run one [Dram]-only campaign per guard mechanism (same seed and
    count, so the same flips land each time) and report the residual-
    exposure-vs-cycle-overhead curve.  [config.regions] is ignored. *)

val report_to_json : config -> report -> Eric_telemetry.Json.t
(** Stable JSON rendering (per-region rows, pooled coverage, replayable
    escapes) following the serve/fleet report convention. *)

val sweep_to_json : sweep_point list -> Eric_telemetry.Json.t

val pp_report : Format.formatter -> report -> unit
