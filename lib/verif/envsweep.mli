(** Environmental-sweep campaign: key failure rate per operating corner,
    with and without the fuzzy extractor.

    Enrolls a small population ({!Eric_puf.Enroll.enroll}), then boots
    every device [boots] times at every corner and counts, per corner:

    - {e plain failures} — the legacy 15-vote majority key differing from
      its nominal enrollment (what a fleet without helper data would
      suffer);
    - {e fuzzy failures} — typed {!Eric_puf.Fuzzy.reconstruct} refusals;
    - {e wrong keys} — reconstructions that verified yet produced a key
      other than the enrolled one.  The extractor's tag check makes this
      a 2^-256 event; observing even one fails the campaign outright,
      because a silent wrong key is the one failure mode the design must
      never have.

    The campaign passes when every corner's post-extractor failure rate
    is within [max_kfr] and no wrong key was seen.  [to_json] renders the
    per-corner table for [eric verif env --out].

    Telemetry: [verif.envsweep.boots_total{corner}],
    [.plain_failures_total{corner}], [.fuzzy_failures_total{corner}],
    [.wrong_keys_total{corner}]. *)

type corner_row = {
  corner : string;
  env : Eric_puf.Env.t;
  boots : int;  (** devices x boots-per-device *)
  plain_failures : int;
  fuzzy_failures : int;
  wrong_keys : int;
  attempts_total : int;
}

val mean_attempts : corner_row -> float
(** Mean extractor attempts per {e successful} boot. *)

type report = {
  devices : int;
  boots_per_device : int;
  max_kfr : float;
  rows : corner_row list;
}

type config = {
  devices : int;
  boots : int;  (** per device per corner *)
  seed : int64;  (** base device id of the population *)
  corners : (string * Eric_puf.Env.t) list;
  enroll : Eric_puf.Enroll.config;
  fuzzy : Eric_puf.Fuzzy.config;
  max_kfr : float;
}

val default_config : config
(** 6 devices, 25 boots each, every {!Eric_puf.Env.corners} entry,
    default enrollment/extractor configs, 1e-3 budget. *)

val campaign : ?config:config -> unit -> (report, string) result
(** [Error] only on a setup failure (empty sweep, a die failing
    enrollment); measured failures land in the report. *)

val breaches : report -> corner_row list
(** Corners over the post-extractor budget or with wrong keys. *)

val passed : report -> bool

val to_json : report -> Eric_telemetry.Json.t
val pp_report : Format.formatter -> report -> unit
