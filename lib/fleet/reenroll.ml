(* Field re-enrollment: the maintenance campaign that keeps a fleet's
   helper data ahead of silicon drift.  Survey every device's enrolled
   challenges at a stress corner; devices whose instability exceeds the
   threshold — and devices already quarantined for key-reconstruction
   failure — get a fresh enrollment pass (new helper data, new derived
   key under their existing KMU context).  Legacy entries without helper
   data are upgraded to the fuzzy-extractor boot path.

   Surveys and enrollment passes run as engine jobs (each touches only
   its own device's PUF noise stream); registry writes and counters are
   applied after the run in device order, so the deterministic and
   domain schedulers report identically. *)

module Engine = Eric_engine.Engine

type config = {
  threshold_ppm : int;
  survey_votes : int;
  survey_env : Eric_puf.Env.t;
  enroll : Eric_puf.Enroll.config;
  reactivate : bool;
}

let default_config =
  {
    threshold_ppm = 50_000 (* 5 % worst-bit instability *);
    survey_votes = 15;
    survey_env = Eric_puf.Env.stress;
    enroll = Eric_puf.Enroll.default_config;
    reactivate = true;
  }

type outcome =
  | Healthy of { ppm : int }
  | Reenrolled of { before_ppm : int; after_ppm : int }
  | Upgraded of { ppm : int }  (* legacy entry given helper data *)
  | Failed of string

type report = {
  surveyed : int;
  healthy : int;
  reenrolled : int;
  upgraded : int;
  reactivated : int;
  failed : (Eric_puf.Device.id * string) list;
  devices : (Eric_puf.Device.id * outcome) list;
}

let key_reconstruction_quarantine = function
  | Registry.Quarantined reason ->
    reason = Shipper.quarantine_label Shipper.Key_reconstruction_failed
  | Registry.Active -> false

let survey_ppm config registry (entry : Registry.entry) helper =
  let worst =
    Eric_puf.Enroll.survey ~votes:config.survey_votes ~env:config.survey_env
      (Registry.device registry entry.Registry.device_id)
      helper
  in
  int_of_float (Float.round (worst *. 1_000_000.0))

(* One device's engine job: survey its enrolled challenges (helper
   entries only) and re-enroll when the survey or a standing quarantine
   says so.  It returns the entry to write and the device's outcome
   without writing anything — [run]'s commit owns registry mutation. *)
let device_job config registry (entry : Registry.entry) =
  let was_quarantined = key_reconstruction_quarantine entry.Registry.status in
  let before_ppm = Option.map (survey_ppm config registry entry) entry.Registry.helper in
  match before_ppm with
  | Some ppm when ppm <= config.threshold_ppm && not was_quarantined ->
    (* keep the registry's health figure current even when no action is needed *)
    Engine.Done ({ entry with Registry.instability_ppm = ppm }, Healthy { ppm })
  | _ -> (
    let device = Registry.device registry entry.Registry.device_id in
    match Eric_puf.Enroll.enroll ~config:config.enroll device with
    | Error e -> Engine.Faulted e
    | Ok e ->
      let key = Eric.Kmu.derive ~puf_key:e.Eric_puf.Enroll.key (Registry.context entry) in
      let status =
        if was_quarantined && config.reactivate then Registry.Active else entry.Registry.status
      in
      let after_ppm =
        int_of_float (Float.round (e.Eric_puf.Enroll.worst_instability *. 1_000_000.0))
      in
      let entry' =
        {
          entry with
          Registry.key;
          helper = Some e.Eric_puf.Enroll.helper;
          instability_ppm = after_ppm;
          status;
        }
      in
      Engine.Done
        ( entry',
          match before_ppm with
          | None -> Upgraded { ppm = after_ppm }
          | Some before_ppm -> Reenrolled { before_ppm; after_ppm } ))

let run ?scheduler ?(config = default_config) registry =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.reenroll" (fun () ->
      Eric_telemetry.Registry.inc "fleet.reenroll.runs_total";
      let items = Array.of_list (Registry.entries registry) in
      let report =
        Engine.run ?scheduler ~name:"fleet.reenroll" (device_job config registry) items
      in
      let healthy = ref 0 and reenrolled = ref 0 and upgraded = ref 0 in
      let reactivated = ref 0 and failed = ref [] and rev_devices = ref [] in
      let commit i (c : _ Engine.completion) =
        let entry = items.(i) in
        let id = entry.Registry.device_id in
        Eric_telemetry.Registry.inc "fleet.reenroll.surveyed_total";
        let outcome =
          match c.Engine.c_outcome with
          | Engine.Done (entry', outcome) ->
            Registry.update registry entry';
            outcome
          | Engine.Faulted e | Engine.Skipped e -> Failed e
        in
        (match outcome with
        | Healthy _ ->
          incr healthy;
          Eric_telemetry.Registry.inc "fleet.reenroll.healthy_total"
        | Upgraded _ ->
          incr upgraded;
          Eric_telemetry.Registry.inc "fleet.reenroll.upgraded_total"
        | Reenrolled _ ->
          incr reenrolled;
          Eric_telemetry.Registry.inc "fleet.reenroll.reenrolled_total";
          if key_reconstruction_quarantine entry.Registry.status && config.reactivate then begin
            incr reactivated;
            Eric_telemetry.Registry.inc "fleet.reenroll.reactivated_total"
          end
        | Failed e ->
          Eric_telemetry.Registry.inc "fleet.reenroll.failed_total";
          failed := (id, e) :: !failed);
        rev_devices := (id, outcome) :: !rev_devices
      in
      Array.iteri commit report.Engine.completions;
      let devices = List.rev !rev_devices in
      {
        surveyed = List.length devices;
        healthy = !healthy;
        reenrolled = !reenrolled;
        upgraded = !upgraded;
        reactivated = !reactivated;
        failed = List.rev !failed;
        devices;
      })

let all_accounted r =
  r.healthy + r.reenrolled + r.upgraded + List.length r.failed = r.surveyed

let pp_outcome fmt = function
  | Healthy { ppm } -> Format.fprintf fmt "healthy (%d ppm)" ppm
  | Reenrolled { before_ppm; after_ppm } ->
    Format.fprintf fmt "re-enrolled (%d -> %d ppm)" before_ppm after_ppm
  | Upgraded { ppm } -> Format.fprintf fmt "upgraded to helper boot (%d ppm)" ppm
  | Failed e -> Format.fprintf fmt "failed: %s" e

let pp_report fmt r =
  Format.fprintf fmt
    "re-enrollment: %d surveyed, %d healthy, %d re-enrolled, %d upgraded, %d reactivated, %d failed"
    r.surveyed r.healthy r.reenrolled r.upgraded r.reactivated (List.length r.failed);
  List.iter
    (fun (id, outcome) -> Format.fprintf fmt "@\n  device %Ld: %a" id pp_outcome outcome)
    r.devices
