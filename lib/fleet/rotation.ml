module Engine = Eric_engine.Engine

type method_ = Local | Rsa of { source_key : Eric_crypto.Rsa.private_key; seed : int64 }

type report = {
  epoch : int;
  label : string option;
  method_ : method_;
  rotated : int;
  reactivated : int;
  failed : (Eric_puf.Device.id * string) list;
}

let method_label = function Local -> "local" | Rsa _ -> "rsa"

let rsa ~bits ~seed =
  Rsa { source_key = Eric_crypto.Rsa.generate ~bits (Eric_util.Prng.create ~seed); seed }

let rotate ?scheduler ?(method_ = Local) ?label ~epoch registry =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.rotate" (fun () ->
      Eric_telemetry.Registry.inc "fleet.rotate.runs_total";
      let provision =
        match method_ with
        | Local -> fun (_ : Registry.entry) target -> Ok (Eric.Protocol.provision target)
        | Rsa { source_key; seed } ->
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
      let report = Engine.run ?scheduler ~name:"fleet.rotate" job items in
      let rotated = ref 0 and reactivated = ref 0 and failed = ref [] in
      let commit i (c : _ Engine.completion) =
        let entry = items.(i) in
        match c.Engine.c_outcome with
        | Engine.Done (label, key) ->
          incr rotated;
          Eric_telemetry.Registry.inc
            ~labels:[ ("method", method_label method_) ]
            "fleet.rotate.rotated_total";
          (match entry.Registry.status with
          | Registry.Quarantined _ ->
            incr reactivated;
            Eric_telemetry.Registry.inc "fleet.rotate.reactivated_total"
          | Registry.Active -> ());
          Registry.update registry
            { entry with Registry.epoch; label; key; status = Registry.Active }
        | Engine.Faulted e | Engine.Skipped e ->
          Eric_telemetry.Registry.inc "fleet.rotate.failed_total";
          failed := (entry.Registry.device_id, e) :: !failed
      in
      Array.iteri commit report.Engine.completions;
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
