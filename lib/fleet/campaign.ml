module Engine = Eric_engine.Engine

type config = {
  options : Eric_cc.Driver.options;
  mode : Eric.Config.mode;
  policy : Backoff.policy;
  channel : Channel.t;
  execute : bool;
  fuel : int option;
  firmware_epoch : int option;
  scheduler : Engine.scheduler;
}

let default_config =
  {
    options = Eric_cc.Driver.default_options;
    mode = Eric.Config.Full;
    policy = Backoff.default;
    channel = Channel.clean;
    execute = false;
    fuel = None;
    firmware_epoch = None;
    scheduler = Engine.Deterministic;
  }

type device_result =
  | Shipped of Shipper.delivery
  | Skipped of string  (** already quarantined before the campaign *)

type report = {
  digest : string;
  cache : Artifact_cache.outcome;
  firmware_epoch : int;
  scheduler_used : string;
  devices : (Registry.entry * device_result) list;
  delivered : int;
  retried : int;
  quarantined : int;
  skipped : int;
  wire_bytes : int;
  load_cycles : int64;
  backoff_ns : int64;
  personalize_ns : int64;
  campaign_ns : int64;
}

let next_firmware_epoch registry =
  1 + List.fold_left (fun m e -> max m e.Registry.firmware_epoch) 0 (Registry.entries registry)

(* One device's engine job: skip a device quarantined before the
   campaign, else boot it, personalize its package and ship it under the
   shipper's own retry/quarantine policy.  Jobs are pure per device —
   the only shared state they touch is the registry's mutex-guarded
   memo tables — so the domain scheduler commutes with the deterministic
   one.  Registry updates happen after the run, on the calling thread,
   in device-index order. *)
let device_job ~config ~registry ~prepared (entry : Registry.entry) =
  match entry.Registry.status with
  | Registry.Quarantined reason -> Engine.Skipped reason
  | Registry.Active ->
    let target = Registry.target registry entry in
    let t0 = Eric_telemetry.Clock.now_ns () in
    let build = Eric.Source.personalize ~key:entry.Registry.key prepared in
    let dt = Int64.sub (Eric_telemetry.Clock.now_ns ()) t0 in
    Engine.Done
      ( Shipper.ship ~policy:config.policy ~channel:config.channel ~execute:config.execute
          ?fuel:config.fuel ~build ~target (),
        dt )

let deploy ?(config = default_config) ~cache ~registry source =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.campaign" (fun () ->
      let t_start = Eric_telemetry.Clock.now_ns () in
      match
        Artifact_cache.get_or_compile cache ~options:config.options ~mode:config.mode source
      with
      | Error _ as e -> e
      | Ok (prepared, cache_outcome) ->
        let firmware_epoch =
          match config.firmware_epoch with
          | Some e -> e
          | None -> next_firmware_epoch registry
        in
        Eric_telemetry.Registry.inc "fleet.campaign.runs_total";
        let items = Array.of_list (Registry.entries registry) in
        let er =
          Engine.run ~scheduler:config.scheduler ~name:"fleet.campaign"
            (device_job ~config ~registry ~prepared)
            items
        in
        let personalize_ns = ref 0L in
        let rev_devices = ref [] in
        let commit i (c : _ Engine.completion) =
          let entry = items.(i) in
          Eric_telemetry.Registry.inc "fleet.campaign.devices_total";
          match c.Engine.c_outcome with
          | Engine.Skipped reason | Engine.Faulted reason ->
            Eric_telemetry.Registry.inc "fleet.campaign.skipped_total";
            rev_devices := (entry, Skipped reason) :: !rev_devices
          | Engine.Done (delivery, dt) ->
            personalize_ns := Int64.add !personalize_ns dt;
            if Eric_telemetry.Control.is_enabled () then
              Eric_telemetry.Registry.observe "fleet.campaign.personalize_ns"
                (Int64.to_float dt);
            (match delivery.Shipper.outcome with
            | Shipper.Delivered _ ->
              Registry.update registry { entry with Registry.firmware_epoch }
            | Shipper.Quarantined { reason } ->
              Registry.update registry
                { entry with
                  Registry.status = Registry.Quarantined (Shipper.quarantine_label reason) });
            rev_devices := (entry, Shipped delivery) :: !rev_devices
        in
        Array.iteri commit er.Engine.completions;
        let devices = List.rev !rev_devices in
        let fold f init = List.fold_left f init devices in
        let delivered =
          fold (fun n -> function _, Shipped d when Shipper.delivered d -> n + 1 | _ -> n) 0
        in
        let retried =
          fold (fun n -> function _, Shipped d when Shipper.retried d -> n + 1 | _ -> n) 0
        in
        let quarantined =
          fold
            (fun n -> function
              | _, Shipped { Shipper.outcome = Shipper.Quarantined _; _ } -> n + 1
              | _ -> n)
            0
        in
        let skipped = fold (fun n -> function _, Skipped _ -> n + 1 | _ -> n) 0 in
        let wire_bytes =
          fold (fun n -> function _, Shipped d -> n + d.Shipper.wire_bytes | _ -> n) 0
        in
        let load_cycles =
          fold
            (fun n -> function
              | _, Shipped { Shipper.outcome = Shipper.Delivered { load_cycles; _ }; _ } ->
                Int64.add n load_cycles
              | _ -> n)
            0L
        in
        let backoff_ns =
          fold
            (fun n -> function _, Shipped d -> Int64.add n d.Shipper.backoff_ns | _ -> n)
            0L
        in
        Eric_telemetry.Registry.inc ~by:(Int64.of_int delivered) "fleet.campaign.delivered_total";
        Eric_telemetry.Registry.inc ~by:(Int64.of_int retried) "fleet.campaign.retried_total";
        Eric_telemetry.Registry.inc ~by:(Int64.of_int quarantined)
          "fleet.campaign.quarantined_total";
        Ok
          {
            digest = Artifact_cache.digest ~options:config.options ~mode:config.mode source;
            cache = cache_outcome;
            firmware_epoch;
            scheduler_used = er.Engine.scheduler_used;
            devices;
            delivered;
            retried;
            quarantined;
            skipped;
            wire_bytes;
            load_cycles;
            backoff_ns;
            personalize_ns = !personalize_ns;
            campaign_ns = Int64.sub (Eric_telemetry.Clock.now_ns ()) t_start;
          })

let deploy_sharded ?(config = default_config) ~cache ~shards source =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.campaign.sharded" (fun () ->
      let ( let* ) = Result.bind in
      let t_start = Eric_telemetry.Clock.now_ns () in
      (* Fix the epoch from the walk's scan, before any shard deploys:
         each shard only sees its own slice, so letting [deploy] derive
         it per shard would skew. *)
      let newest = ref 0 in
      let epoch () = Option.value config.firmware_epoch ~default:(succ !newest) in
      let* reports =
        Registry_shard.walk shards
          ~scan:(fun e -> newest := max !newest e.Registry.firmware_epoch)
          ~f:(fun registry ->
            deploy ~config:{ config with firmware_epoch = Some (epoch ()) } ~cache ~registry source)
      in
      let firmware_epoch = epoch () in
      let config = { config with firmware_epoch = Some firmware_epoch } in
      match reports with
      | [] -> deploy ~config ~cache ~registry:(Registry.create ()) source
      | first :: _ ->
        let sum f = List.fold_left (fun n r -> n + f r) 0 reports in
        let sum64 f = List.fold_left (fun n r -> Int64.add n (f r)) 0L reports in
        Ok
          {
            digest = first.digest;
            cache = first.cache;
            firmware_epoch;
            scheduler_used = first.scheduler_used;
            devices = List.concat_map (fun r -> r.devices) reports;
            delivered = sum (fun r -> r.delivered);
            retried = sum (fun r -> r.retried);
            quarantined = sum (fun r -> r.quarantined);
            skipped = sum (fun r -> r.skipped);
            wire_bytes = sum (fun r -> r.wire_bytes);
            load_cycles = sum64 (fun r -> r.load_cycles);
            backoff_ns = sum64 (fun r -> r.backoff_ns);
            personalize_ns = sum64 (fun r -> r.personalize_ns);
            campaign_ns = Int64.sub (Eric_telemetry.Clock.now_ns ()) t_start;
          })

let all_accounted report =
  report.delivered + report.quarantined + report.skipped = List.length report.devices

(* Only simulation-deterministic fields, devices by ascending id: the
   deterministic and domain schedulers, and a registry file and its
   sharded migration, give byte-identical reports.  Ids are strings
   because a 64-bit id does not fit a JSON number exactly. *)
let report_to_json r =
  let open Eric_telemetry.Json in
  let int n = Num (float_of_int n) and int64 n = Num (Int64.to_float n) in
  let device ((entry : Registry.entry), result) =
    let fields =
      match result with
      | Skipped reason -> [ ("result", Str "skipped"); ("reason", Str reason) ]
      | Shipped d ->
        let outcome, reason =
          match d.Shipper.outcome with
          | Shipper.Delivered _ -> ("delivered", [])
          | Shipper.Quarantined { reason } ->
            ("quarantined", [ ("reason", Str (Shipper.quarantine_label reason)) ])
        in
        [ ("result", Str outcome);
          ("attempts", int d.Shipper.attempts);
          ("wire_bytes", int d.Shipper.wire_bytes) ]
        @ reason
    in
    Obj (("id", Str (Int64.to_string entry.Registry.device_id)) :: fields)
  in
  let by_id ((a : Registry.entry), _) ((b : Registry.entry), _) =
    Int64.compare a.Registry.device_id b.Registry.device_id
  in
  Obj
    [ ("digest", Str r.digest);
      ("firmware_epoch", int r.firmware_epoch);
      ("delivered", int r.delivered);
      ("retried", int r.retried);
      ("quarantined", int r.quarantined);
      ("skipped", int r.skipped);
      ("wire_bytes", int r.wire_bytes);
      ("load_cycles", int64 r.load_cycles);
      ("backoff_ns", int64 r.backoff_ns);
      ("devices", List (List.map device (List.sort by_id r.devices))) ]

let pp_report fmt r =
  let n = List.length r.devices in
  Format.fprintf fmt
    "campaign %s (firmware epoch %d, cache %s, scheduler %s):@\n\
    \  %d device(s): %d delivered (%d after retry), %d quarantined, %d skipped@\n\
    \  %d wire bytes, %Ld HDE load cycles, %.3f ms simulated backoff@\n\
    \  personalize %.3f ms total (%.1f us/device), campaign wall %.3f ms"
    (String.sub r.digest 0 12) r.firmware_epoch
    (Artifact_cache.outcome_label r.cache)
    r.scheduler_used n r.delivered r.retried r.quarantined r.skipped r.wire_bytes
    r.load_cycles
    (Int64.to_float r.backoff_ns /. 1e6)
    (Int64.to_float r.personalize_ns /. 1e6)
    (if n = r.skipped then 0.0
     else Int64.to_float r.personalize_ns /. 1e3 /. float_of_int (n - r.skipped))
    (Int64.to_float r.campaign_ns /. 1e6)

let pp_devices fmt r =
  List.iter
    (fun ((entry : Registry.entry), result) ->
      match result with
      | Shipped d -> Format.fprintf fmt "%a@\n" Shipper.pp_delivery d
      | Skipped reason ->
        Format.fprintf fmt "device %Ld: skipped (quarantined: %s)@\n" entry.Registry.device_id
          reason)
    r.devices
