module Engine = Eric_engine.Engine

type method_ = Local | Rsa of { bits : int; seed : int64 }

type report = {
  epoch : int;
  label : string option;
  method_ : method_;
  rotated : int;
  reactivated : int;
  failed : (Eric_puf.Device.id * string) list;
}

let count ?labels name =
  if Eric_telemetry.Control.is_enabled () then Eric_telemetry.Registry.inc ?labels name

let method_label = function Local -> "local" | Rsa _ -> "rsa"

let rotate ?(engine = Engine.default_config) ?(method_ = Local) ?label ~epoch registry =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.rotate" (fun () ->
      count "fleet.rotate.runs_total";
      let provision =
        match method_ with
        | Local -> fun (_ : Registry.entry) target -> Ok (Eric.Protocol.provision target)
        | Rsa { bits; seed } ->
          (* the source's RSA identity is one key for the whole rotation;
             only the per-handshake randomness is per-device *)
          let source_key = Eric_crypto.Rsa.generate ~bits (Eric_util.Prng.create ~seed) in
          fun (entry : Registry.entry) target ->
            (* every device provisions from its own RNG stream, so domain
               workers never contend on (or reorder draws from) a shared
               generator and both schedulers see identical ciphertexts *)
            let rng =
              Eric_util.Prng.create
                ~seed:(Eric_util.Prng.mix64 (Int64.logxor seed entry.Registry.device_id))
            in
            Eric.Protocol.provision_over_network ~rng ~source_key target
      in
      let items = Array.of_list (Registry.entries registry) in
      (* A device whose helper data no longer reconstructs a key has
         nothing to hand over: it fails its own rotation. *)
      let job (entry : Registry.entry) =
        let label = match label with Some l -> l | None -> entry.Registry.label in
        let target =
          Registry.target_for registry ~context:{ Eric.Kmu.epoch; label } entry.Registry.device_id
        in
        match Eric.Target.key_state target with
        | Error f -> Engine.Faulted (Eric_puf.Fuzzy.failure_to_string f)
        | Ok _ -> (
          match provision entry target with
          | Ok key -> Engine.Done (label, key)
          | Error e -> Engine.Faulted e)
      in
      let rotated = ref 0 and reactivated = ref 0 and failed = ref [] in
      let commit (c : _ Engine.completion) =
        let entry = items.(c.Engine.c_index) in
        match c.Engine.c_outcome with
        | Engine.Done (label, key) ->
          incr rotated;
          count ~labels:[ ("method", method_label method_) ] "fleet.rotate.rotated_total";
          (match entry.Registry.status with
          | Registry.Quarantined _ ->
            incr reactivated;
            count "fleet.rotate.reactivated_total"
          | Registry.Active -> ());
          Registry.update registry
            { entry with Registry.epoch; label; key; status = Registry.Active }
        | Engine.Faulted e | Engine.Skipped e ->
          count "fleet.rotate.failed_total";
          failed := (entry.Registry.device_id, e) :: !failed
      in
      let (_ : _ Engine.report) = Engine.run ~config:engine ~commit ~name:"fleet.rotate" job items in
      {
        epoch;
        label;
        method_;
        rotated = !rotated;
        reactivated = !reactivated;
        failed = List.rev !failed;
      })

let pp_report fmt r =
  Format.fprintf fmt
    "rotation to epoch %d (%s%s): %d device(s) re-keyed, %d reactivated, %d failed"
    r.epoch (method_label r.method_)
    (match r.label with None -> "" | Some l -> ", label " ^ l)
    r.rotated r.reactivated (List.length r.failed);
  List.iter
    (fun (id, e) -> Format.fprintf fmt "@\n  device %Ld: %s" id e)
    r.failed
