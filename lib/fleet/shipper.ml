type quarantine_reason =
  | Key_reconstruction_failed
  | Signature_refusals of int
  | Exhausted of int
  | Integrity_faults of int

let quarantine_label = function
  | Key_reconstruction_failed -> "key reconstruction failed"
  | Signature_refusals n -> Printf.sprintf "%d signature refusals" n
  | Exhausted n -> Printf.sprintf "undeliverable after %d attempts" n
  | Integrity_faults n -> Printf.sprintf "%d integrity faults" n

type outcome =
  | Delivered of { load_cycles : int64; exec : Eric_sim.Soc.result option }
  | Quarantined of { reason : quarantine_reason }

type delivery = {
  device_id : Eric_puf.Device.id;
  attempts : int;
  refusals : (int * Eric.Target.load_error) list;
  integrity_faults : int;
  backoff_ns : int64;
  wire_bytes : int;
  outcome : outcome;
}

type fault_injector = attempt:int -> Eric_util.Memory.t -> Eric_rv.Program.t -> unit

let delivered d = match d.outcome with Delivered _ -> true | Quarantined _ -> false
let retried d = delivered d && d.attempts > 1

let ship ?(policy = Backoff.default) ?(channel = Channel.clean) ?(execute = false) ?fuel
    ?clock ?soft_errors ~(build : Eric.Source.build) ~target () =
  let device = Eric_puf.Device.id (Eric.Target.device target) in
  let wire = Eric.Package.serialize build.Eric.Source.package in
  let wire_bytes = Bytes.length wire in
  let finish ~attempts ~refusals ~integrity_faults ~backoff_ns outcome =
    (match outcome with
    | Delivered _ ->
      Eric_telemetry.Registry.inc "fleet.ship.delivered_total";
      if attempts > 1 then Eric_telemetry.Registry.inc "fleet.ship.retries_recovered_total"
    | Quarantined _ -> Eric_telemetry.Registry.inc "fleet.ship.quarantined_total");
    {
      device_id = device;
      attempts;
      refusals = List.rev refusals;
      integrity_faults;
      backoff_ns;
      wire_bytes;
      outcome;
    }
  in
  let rec attempt_loop attempt refusals sig_refusals integ_faults backoff_ns =
    Eric_telemetry.Registry.inc "fleet.ship.attempts_total";
    if attempt > 1 then Eric_telemetry.Registry.inc "fleet.ship.retries_total";
    let retry_or ~refusals ~sig_refusals ~integ_faults reason =
      if attempt >= policy.Backoff.max_attempts then
        finish ~attempts:attempt ~refusals ~integrity_faults:integ_faults ~backoff_ns
          (Quarantined { reason })
      else begin
        let delay = Backoff.delay_ns policy ~retry:attempt in
        Option.iter (fun c -> Eric_util.Sim_clock.advance c delay) clock;
        attempt_loop (attempt + 1) refusals sig_refusals integ_faults
          (Int64.add backoff_ns delay)
      end
    in
    let attacked =
      Eric.Protocol.apply_attack (Channel.attack channel ~device ~attempt) wire
    in
    match Eric.Target.receive_bytes target attacked with
    | Ok loaded -> (
      let exec =
        if not execute then None
        else
          let corrupt = Option.map (fun f -> f ~attempt) soft_errors in
          Some (Eric.Target.run ?fuel ?corrupt target loaded)
      in
      match exec with
      | Some { Eric_sim.Soc.status = Eric_sim.Cpu.Integrity_fault _; _ } ->
        (* The guard caught resident corruption after a valid load: the
           artifact is fine, the device's memory is not.  Re-shipping
           from the cached build re-loads (and re-enrolls) clean memory,
           so this is retryable — only a device that keeps faulting gets
           quarantined for investigation. *)
        Eric_telemetry.Registry.inc "fleet.ship.integrity_faults_total";
        let integ_faults = integ_faults + 1 in
        if integ_faults >= policy.Backoff.quarantine_refusals then
          finish ~attempts:attempt ~refusals ~integrity_faults:integ_faults ~backoff_ns
            (Quarantined { reason = Integrity_faults integ_faults })
        else retry_or ~refusals ~sig_refusals ~integ_faults (Integrity_faults integ_faults)
      | _ ->
        finish ~attempts:attempt ~refusals ~integrity_faults:integ_faults ~backoff_ns
          (Delivered
             { load_cycles = loaded.Eric.Target.load.Eric_hw.Hde.total_cycles; exec }))
    | Error e ->
      Eric_telemetry.Registry.inc
        ~labels:[ ("reason", Eric.Target.refusal_reason e) ]
        "fleet.ship.refused_total";
      let refusals = (attempt, e) :: refusals in
      let sig_refusals =
        sig_refusals
        + match e with Eric.Target.Rejected Eric.Encrypt.Signature_mismatch -> 1 | _ -> 0
      in
      (match e with
      | Eric.Target.Key_unavailable _ ->
        (* The device could not rebuild its own key at boot: no retry or
           re-signing can help, and it must not be lumped in with
           signature refusals — re-enrollment, not re-shipping, fixes it. *)
        finish ~attempts:attempt ~refusals ~integrity_faults:integ_faults ~backoff_ns
          (Quarantined { reason = Key_reconstruction_failed })
      | _ ->
        if sig_refusals >= policy.Backoff.quarantine_refusals then
          finish ~attempts:attempt ~refusals ~integrity_faults:integ_faults ~backoff_ns
            (Quarantined { reason = Signature_refusals sig_refusals })
        else retry_or ~refusals ~sig_refusals ~integ_faults (Exhausted attempt))
  in
  let d = attempt_loop 1 [] 0 0 0L in
  if Eric_telemetry.Control.is_enabled () then begin
    Eric_telemetry.Registry.inc ~by:d.backoff_ns "fleet.ship.backoff_ns";
    Eric_telemetry.Registry.observe "fleet.ship.attempts" (float_of_int d.attempts)
  end;
  d

let pp_outcome fmt = function
  | Delivered { load_cycles; exec = None } ->
    Format.fprintf fmt "delivered (validated, %Ld load cycles)" load_cycles
  | Delivered { load_cycles; exec = Some r } ->
    Format.fprintf fmt "delivered (%Ld load + %Ld exec cycles)" load_cycles
      r.Eric_sim.Soc.exec_cycles
  | Quarantined { reason } -> Format.fprintf fmt "quarantined: %s" (quarantine_label reason)

let pp_delivery fmt d =
  Format.fprintf fmt "device %Ld: %a after %d attempt(s), %d refusal(s), %.3f ms backoff"
    d.device_id pp_outcome d.outcome d.attempts (List.length d.refusals)
    (Int64.to_float d.backoff_ns /. 1e6)
