(** Field re-enrollment campaign: keep helper data ahead of silicon drift.

    Surveys every registered device's enrolled challenges at a stress
    corner ({!Eric_puf.Enroll.survey} — key-free, so it runs without
    reconstructing anything) and re-enrolls the ones whose worst-bit
    instability exceeds the threshold, plus every device quarantined with
    ["key reconstruction failed"] (which is {e reactivated} on success).
    Legacy entries without helper data are upgraded to the
    fuzzy-extractor boot path.

    Re-enrollment replaces the entry's helper blob, re-derives its key
    under the {e existing} KMU context and invalidates the memoized boot,
    so the next shipment personalizes against the new key.

    Telemetry: [fleet.reenroll.runs_total], [.surveyed_total],
    [.healthy_total], [.reenrolled_total], [.upgraded_total],
    [.reactivated_total], [.failed_total]. *)

type config = {
  threshold_ppm : int;  (** re-enroll above this surveyed instability *)
  survey_votes : int;  (** reads per challenge during the survey *)
  survey_env : Eric_puf.Env.t;  (** survey operating point *)
  enroll : Eric_puf.Enroll.config;  (** config for the re-enrollment pass *)
  reactivate : bool;  (** clear key-reconstruction quarantines on success *)
}

val default_config : config
(** 50 000 ppm (5 %) threshold, 15-vote survey at {!Eric_puf.Env.stress},
    default enrollment config, reactivation on. *)

type outcome =
  | Healthy of { ppm : int }  (** under threshold; registry figure refreshed *)
  | Reenrolled of { before_ppm : int; after_ppm : int }
  | Upgraded of { ppm : int }  (** legacy entry given helper data *)
  | Failed of string  (** enrollment refused (die below the chain floor) *)

type report = {
  surveyed : int;
  healthy : int;
  reenrolled : int;
  upgraded : int;
  reactivated : int;
  failed : (Eric_puf.Device.id * string) list;
  devices : (Eric_puf.Device.id * outcome) list;  (** registry order *)
}

val run : ?scheduler:Eric_engine.Engine.scheduler -> ?config:config -> Registry.t -> report
(** Surveys and enrollment passes run as {!Eric_engine.Engine} jobs
    ([scheduler], default deterministic); registry writes are applied
    after the run in device order, so both schedulers report
    identically. *)

val all_accounted : report -> bool
(** Every surveyed device landed in exactly one outcome bucket. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
