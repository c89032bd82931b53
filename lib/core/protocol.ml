type attack =
  | No_attack
  | Bit_flips of { count : int; seed : int64 }
  | Truncate of int
  | Splice of { payload : bytes; at : int }
  | Replay of bytes

let apply_attack attack bytes =
  match attack with
  | No_attack -> bytes
  | Bit_flips { count; seed } ->
    let out = Bytes.copy bytes in
    let rng = Eric_util.Prng.create ~seed in
    for _ = 1 to count do
      let pos = Eric_util.Prng.int rng ~bound:(Bytes.length out) in
      let bit = Eric_util.Prng.int rng ~bound:8 in
      Bytes.set out pos (Char.chr (Char.code (Bytes.get out pos) lxor (1 lsl bit)))
    done;
    out
  | Truncate n -> Bytes.sub bytes 0 (max 0 (Bytes.length bytes - n))
  | Splice { payload; at } ->
    let out = Bytes.copy bytes in
    let len = min (Bytes.length payload) (max 0 (Bytes.length out - at)) in
    if len > 0 then Bytes.blit payload 0 out at len;
    out
  | Replay captured -> captured

type outcome = Executed of Eric_sim.Soc.result | Refused of Target.load_error

let pp_outcome fmt = function
  | Executed r ->
    Format.fprintf fmt "executed (%a, %Ld cycles)"
      (fun f (s : Eric_sim.Cpu.status) ->
        match s with
        | Eric_sim.Cpu.Exited c -> Format.fprintf f "exit %d" c
        | Eric_sim.Cpu.Faulted m -> Format.fprintf f "fault: %s" m
        | Eric_sim.Cpu.Integrity_fault m -> Format.fprintf f "integrity fault: %s" m
        | Eric_sim.Cpu.Running -> Format.pp_print_string f "running")
      r.Eric_sim.Soc.status
      (Eric_sim.Soc.total_cycles r)
  | Refused e -> Format.fprintf fmt "refused (%a)" Target.pp_load_error e

let provision = Target.derived_key

let provision_over_network ?(attack = No_attack) ~rng ~source_key target =
  let pub = Eric_crypto.Rsa.public_of source_key in
  match Eric_crypto.Rsa.encrypt pub rng (Target.derived_key target) with
  | Error _ as e -> e
  | Ok wire -> Eric_crypto.Rsa.decrypt source_key (apply_attack attack wire)

let transmit ?(attack = No_attack) ?fuel ~(source : Source.build) ~target () =
  Eric_telemetry.Span.with_ ~cat:"core" ~name:"transit.transmit" (fun () ->
      let serialized =
        Eric_telemetry.Span.with_ ~cat:"core" ~name:"build.serialize" (fun () ->
            Package.serialize source.Source.package)
      in
      if Eric_telemetry.Control.is_enabled () then begin
        Eric_telemetry.Registry.inc "transit.messages_total";
        Eric_telemetry.Registry.inc ~by:(Int64.of_int (Bytes.length serialized))
          "transit.bytes_out"
      end;
      match Target.receive_bytes target (apply_attack attack serialized) with
      | Error e -> Refused e
      | Ok loaded -> Executed (Target.run ?fuel target loaded))

let cross_check ~builds ~targets =
  List.concat_map
    (fun (bname, build) ->
      List.map
        (fun (tname, target) ->
          let ok =
            match transmit ~source:build ~target () with
            | Executed _ -> true
            | Refused _ -> false
          in
          (bname, tname, ok))
        targets)
    builds
