(** Deployment campaigns: one workload, the whole registry.

    A campaign compiles + signs + lays out the workload {e once} (through
    the {!Artifact_cache}, so a repeat campaign skips even that), then
    personalizes and ships a package per active device, retrying over the
    configured channel per the backoff policy.  Devices that were
    quarantined before the campaign are skipped (and reported as such);
    devices the shipper quarantines are flagged in the registry; every
    device appears in the report — none is silently dropped
    ({!all_accounted}).

    Successful devices have their [firmware_epoch] stamped.

    Per-device work runs as {!Eric_engine.Engine} jobs ([config.scheduler]
    picks the scheduler); registry updates are applied after the run in
    device order on the calling thread, so the deterministic and domain
    schedulers produce identical reports.

    Telemetry: [fleet.campaign.runs_total], [fleet.campaign.devices_total],
    [fleet.campaign.delivered_total], [fleet.campaign.retried_total],
    [fleet.campaign.quarantined_total], [fleet.campaign.skipped_total] and
    the [fleet.campaign.personalize_ns] histogram, on top of the
    [fleet.cache.*], [fleet.ship.*] and [engine.*] families recorded by
    the stages. *)

type config = {
  options : Eric_cc.Driver.options;
  mode : Eric.Config.mode;
  policy : Backoff.policy;
  channel : Channel.t;
  execute : bool;  (** run each validated package on its device's SoC *)
  fuel : int option;
  firmware_epoch : int option;
      (** epoch stamped on delivered devices; default: 1 + the registry's
          highest firmware epoch *)
  scheduler : Eric_engine.Engine.scheduler;  (** runs the per-device jobs *)
}

val default_config : config

type device_result =
  | Shipped of Shipper.delivery
  | Skipped of string  (** quarantine reason recorded before the campaign *)

type report = {
  digest : string;  (** artifact-cache key of the campaign input *)
  cache : Artifact_cache.outcome;
  firmware_epoch : int;
  scheduler_used : string;  (** {!Eric_engine.Engine.report}'s [scheduler_used] *)
  devices : (Registry.entry * device_result) list;  (** entry state {e before} the campaign *)
  delivered : int;
  retried : int;  (** delivered, but needing at least one retry *)
  quarantined : int;  (** newly quarantined by this campaign *)
  skipped : int;
  wire_bytes : int;
  load_cycles : int64;
  backoff_ns : int64;
  personalize_ns : int64;
  campaign_ns : int64;
}

val deploy :
  ?config:config ->
  cache:Artifact_cache.t ->
  registry:Registry.t ->
  string ->
  (report, string) result
(** [Error] only for compilation failure of the source; per-device
    failures land in the report, not in [Error]. *)

val deploy_sharded :
  ?config:config ->
  cache:Artifact_cache.t ->
  shards:Registry_shard.t ->
  string ->
  (report, string) result
(** The same campaign over an on-disk registry of either layout, through
    {!Registry_shard.walk}: each shard is deployed, written back and
    released before the next opens, so peak memory is one shard
    regardless of fleet size.  The firmware epoch is fixed across shards
    from the walk's scan, before any shard deploys; the merged report
    lists devices in shard-major order.
    [Error] also for a shard that does not parse, before any is
    rewritten. *)

val all_accounted : report -> bool
(** delivered + quarantined + skipped = every device in the registry. *)

val report_to_json : report -> Eric_telemetry.Json.t
(** The canonical report: simulation-deterministic fields only (no wall
    clock, no scheduler name) and devices in ascending id order, so the
    same campaign compares byte for byte across schedulers and registry
    layouts. *)

val pp_report : Format.formatter -> report -> unit
val pp_devices : Format.formatter -> report -> unit
