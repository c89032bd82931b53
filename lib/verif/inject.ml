type region = Header | Map | Payload | Data | Signature | Dram | Key

let region_name = function
  | Header -> "header"
  | Map -> "map"
  | Payload -> "payload"
  | Data -> "data"
  | Signature -> "signature"
  | Dram -> "dram"
  | Key -> "key"

let region_of_string = function
  | "header" -> Ok Header
  | "map" -> Ok Map
  | "payload" -> Ok Payload
  | "data" -> Ok Data
  | "signature" -> Ok Signature
  | "dram" -> Ok Dram
  | "key" -> Ok Key
  | s ->
    Error
      (Printf.sprintf "unknown region %S (expected header|map|payload|data|signature|dram|key)" s)

let wire_regions = [ Header; Map; Payload; Data; Signature ]
let all_regions = wire_regions @ [ Dram; Key ]

type outcome = Detected of string | Masked | Silent

let outcome_label = function Detected _ -> "detected" | Masked -> "masked" | Silent -> "silent"

type row = {
  region : region;
  injections : int;
  detected : int;
  masked : int;
  silent : int;
}

type escape = { e_region : region; e_bit : int; e_seed : int64; e_iter : int }

type report = {
  rows : row list;
  escapes : escape list;
  baseline : Oracle.behaviour;
  seed : int64;
  count : int;
  dram_overhead : float;
}

let coverage row =
  let consequential = row.detected + row.silent in
  if consequential = 0 then 1.0 else float_of_int row.detected /. float_of_int consequential

let pooled f report =
  List.fold_left (fun acc row -> acc + f row) 0 report.rows

let detection_coverage report =
  let detected = pooled (fun r -> r.detected) report in
  let silent = pooled (fun r -> r.silent) report in
  if detected + silent = 0 then 1.0
  else float_of_int detected /. float_of_int (detected + silent)

let silent_total report = pooled (fun r -> r.silent) report

type config = {
  fuel : int;
  mode : Eric.Config.mode;
  device_id : int64;
  seed : int64;
  count : int;
  regions : region list;
  guard : Eric_hw.Guard.config;
}

let default_source =
  "int g0[4] = {3, 1, 4, 1};\n\
   int main() {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < 4; i++) { acc += g0[i] * (i + 1); }\n\
  \  print_str(\"acc=\");\n\
  \  println_int(acc);\n\
  \  return acc & 255;\n\
   }\n"

let default_config =
  {
    fuel = Oracle.default_fuel;
    mode = Eric.Config.Partial Eric.Config.Select_all;
    device_id = 0xD07L;
    seed = 0x1A7EC7L;
    count = 1000;
    regions = wire_regions;
    guard = Eric_hw.Guard.disabled;
  }

let flip_bit buf ~bit =
  let byte = bit / 8 and pos = bit mod 8 in
  Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl pos)))

let replay_command ~regions escape =
  Printf.sprintf "eric verif inject --regions %s --seed 0x%Lx --count %d"
    (String.concat "," (List.map region_name regions))
    escape.e_seed escape.e_iter

let campaign ?(config = default_config) source =
  let ( let* ) = Result.bind in
  let* () = if config.regions = [] then Error "no injection regions requested" else Ok () in
  let* image = Eric_cc.Driver.compile source in
  let target = Eric.Target.of_id config.device_id in
  let key = Eric.Protocol.provision target in
  let build = Eric.Source.package_image ~mode:config.mode ~key image in
  let pkg = build.Eric.Source.package in
  let wire = Eric.Package.serialize pkg in
  let map_len =
    match pkg.Eric.Package.map with
    | None -> 0
    | Some m -> Bytes.length (Eric_util.Bitvec.to_bytes m)
  in
  let text_len = Bytes.length pkg.Eric.Package.enc_text in
  let data_len = Bytes.length pkg.Eric.Package.data in
  let sig_len = Bytes.length pkg.Eric.Package.enc_signature in
  let header_len = Eric.Package.header_size in
  let wire_span = function
    | Header -> (0, header_len)
    | Map -> (header_len, map_len)
    | Payload -> (header_len + map_len, text_len)
    | Data -> (header_len + map_len + text_len, data_len)
    | Signature -> (header_len + map_len + text_len + data_len, sig_len)
    | Dram | Key -> invalid_arg "wire_span"
  in
  let region_bits = function
    | Dram -> (Eric_rv.Program.text_size image + Bytes.length image.Eric_rv.Program.data) * 8
    | Key -> Bytes.length key * 8
    | r -> snd (wire_span r) * 8
  in
  let* () =
    match List.find_opt (fun r -> region_bits r = 0) config.regions with
    | Some r ->
      Error
        (Printf.sprintf "region %s is empty for this package (mode %s)" (region_name r)
           (Format.asprintf "%a" Eric.Config.pp_mode config.mode))
    | None -> Ok ()
  in
  (* Baseline: the clean package must validate, and its behaviour anchors
     the masked/silent classification. *)
  let* () =
    match Eric.Target.receive_bytes target wire with
    | Ok _ -> Ok ()
    | Error e ->
      Error (Format.asprintf "clean package refused: %a" Eric.Target.pp_load_error e)
  in
  let baseline = Oracle.of_result (Eric_sim.Soc.run_program ~fuel:config.fuel image) in
  let* () =
    match baseline with
    | Oracle.Exhausted -> Error "baseline run exhausted its fuel; raise config.fuel"
    | _ -> Ok ()
  in
  let classify_run behaviour ~trap_is_detection =
    match behaviour with
    | (Oracle.Trap _ | Oracle.Exhausted) when trap_is_detection ->
      (* a fault that wedges or traps the core is caught by the trap
         handler / watchdog, not silently computed through *)
      Detected "cpu-trap"
    | b -> if Oracle.behaviour_equal b baseline then Masked else Silent
  in
  let guard_cycle_sum = ref 0L and exec_cycle_sum = ref 0L in
  let inject_once rng region =
    let bit = Eric_util.Prng.int rng ~bound:(region_bits region) in
    let outcome =
      match region with
      | Header | Map | Payload | Data | Signature ->
        let off, _ = wire_span region in
        let mutated = Bytes.copy wire in
        flip_bit mutated ~bit:((off * 8) + bit);
        (match Eric.Target.receive_bytes target mutated with
        | Error e -> Detected (Eric.Target.refusal_reason e)
        | Ok loaded ->
          classify_run ~trap_is_detection:false
            (Oracle.of_result
               (Eric_sim.Soc.run_program ~fuel:config.fuel loaded.Eric.Target.image)))
      | Dram ->
        (* post-validation soft error in main memory: outside the HDE's
           load-time protection window — exactly what the runtime guard
           exists to cover *)
        let memory = Eric_sim.Soc.load image in
        let text_len = Eric_rv.Program.text_size image in
        let byte = bit / 8 in
        let addr =
          if byte < text_len then Eric_rv.Program.Layout.text_base + byte
          else Eric_rv.Program.Layout.data_base image + (byte - text_len)
        in
        Eric_sim.Memory.write_u8 memory addr
          (Eric_sim.Memory.read_u8 memory addr lxor (1 lsl (bit mod 8)));
        let r =
          Eric_sim.Soc.run_loaded ~fuel:config.fuel ~guard:config.guard ~load_cycles:0L image
            memory
        in
        guard_cycle_sum := Int64.add !guard_cycle_sum r.Eric_sim.Soc.guard_cycles;
        exec_cycle_sum := Int64.add !exec_cycle_sum r.Eric_sim.Soc.exec_cycles;
        (match r.Eric_sim.Soc.status with
        | Eric_sim.Cpu.Integrity_fault _ -> Detected "integrity-guard"
        | _ -> classify_run ~trap_is_detection:true (Oracle.of_result r))
      | Key ->
        let flipped = Bytes.copy key in
        flip_bit flipped ~bit;
        (match Eric.Encrypt.decrypt ~key:flipped pkg with
        | Error (Eric.Encrypt.Framing_failure _) -> Detected "framing"
        | Error Eric.Encrypt.Signature_mismatch -> Detected "signature"
        | Ok (img, _) ->
          classify_run ~trap_is_detection:false
            (Oracle.of_result (Eric_sim.Soc.run_program ~fuel:config.fuel img)))
    in
    Eric_telemetry.Registry.inc "verif.injections_total"
      ~labels:[ ("region", region_name region); ("outcome", outcome_label outcome) ];
    (bit, outcome)
  in
  let rng = Eric_util.Prng.create ~seed:config.seed in
  let regions = Array.of_list config.regions in
  let nregions = Array.length regions in
  let counts =
    Array.map (fun r -> ref { region = r; injections = 0; detected = 0; masked = 0; silent = 0 })
      regions
  in
  let escapes = ref [] in
  for iter = 1 to config.count do
    let idx = Eric_util.Prng.int rng ~bound:nregions in
    let region = regions.(idx) in
    let bit, outcome = inject_once rng region in
    let cell = counts.(idx) in
    let row = !cell in
    cell :=
      {
        row with
        injections = row.injections + 1;
        detected = (row.detected + match outcome with Detected _ -> 1 | _ -> 0);
        masked = (row.masked + match outcome with Masked -> 1 | _ -> 0);
        silent = (row.silent + match outcome with Silent -> 1 | _ -> 0);
      };
    match outcome with
    | Silent ->
      escapes :=
        { e_region = region; e_bit = bit; e_seed = config.seed; e_iter = iter } :: !escapes
    | Detected _ | Masked -> ()
  done;
  let overhead =
    if Int64.compare !exec_cycle_sum 0L > 0 then
      Int64.to_float !guard_cycle_sum /. Int64.to_float !exec_cycle_sum
    else 0.0
  in
  Ok
    {
      rows = Array.to_list (Array.map (fun cell -> !cell) counts);
      escapes = List.rev !escapes;
      baseline;
      seed = config.seed;
      count = config.count;
      dram_overhead = overhead;
    }

type sweep_point = {
  sp_mechanism : Eric_hw.Guard.mechanism;
  sp_injections : int;
  sp_detected : int;
  sp_silent : int;
  sp_coverage : float;
  sp_overhead : float;
}

let dram_sweep ?(config = default_config) ~mechanisms source =
  let ( let* ) = Result.bind in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | mechanism :: rest ->
      let guard = { config.guard with Eric_hw.Guard.mechanism } in
      let* report = campaign ~config:{ config with regions = [ Dram ]; guard } source in
      let injections = pooled (fun r -> r.injections) report in
      let detected = pooled (fun r -> r.detected) report in
      let point =
        {
          sp_mechanism = mechanism;
          sp_injections = injections;
          sp_detected = detected;
          sp_silent = silent_total report;
          sp_coverage = detection_coverage report;
          sp_overhead = report.dram_overhead;
        }
      in
      loop (point :: acc) rest
  in
  loop [] mechanisms

let report_to_json config (report : report) =
  let open Eric_telemetry.Json in
  let row_json row =
    Obj
      [
        ("region", Str (region_name row.region));
        ("injections", Num (float_of_int row.injections));
        ("detected", Num (float_of_int row.detected));
        ("masked", Num (float_of_int row.masked));
        ("silent", Num (float_of_int row.silent));
        ("coverage", Num (coverage row));
      ]
  in
  let escape_json e =
    Obj
      [
        ("region", Str (region_name e.e_region));
        ("bit", Num (float_of_int e.e_bit));
        ("seed", Str (Printf.sprintf "0x%Lx" e.e_seed));
        ("iter", Num (float_of_int e.e_iter));
        ("replay", Str (replay_command ~regions:config.regions e));
      ]
  in
  Obj
    [
      ("seed", Str (Printf.sprintf "0x%Lx" report.seed));
      ("count", Num (float_of_int report.count));
      ("regions", List (List.map (fun r -> Str (region_name r)) config.regions));
      ("guard", Str (Eric_hw.Guard.mechanism_name config.guard.Eric_hw.Guard.mechanism));
      ("baseline", Str (Format.asprintf "%a" Oracle.pp_behaviour report.baseline));
      ("coverage", Num (detection_coverage report));
      ("silent_total", Num (float_of_int (silent_total report)));
      ("dram_overhead", Num report.dram_overhead);
      ("rows", List (List.map row_json report.rows));
      ("escapes", List (List.map escape_json report.escapes));
    ]

let sweep_to_json points =
  let open Eric_telemetry.Json in
  List
    (List.map
       (fun p ->
         Obj
           [
             ("guard", Str (Eric_hw.Guard.mechanism_name p.sp_mechanism));
             ("injections", Num (float_of_int p.sp_injections));
             ("detected", Num (float_of_int p.sp_detected));
             ("silent", Num (float_of_int p.sp_silent));
             ("coverage", Num p.sp_coverage);
             ("overhead", Num p.sp_overhead);
           ])
       points)

let pp_report fmt report =
  Format.fprintf fmt "@[<v>%-10s %10s %9s %7s %7s %9s@," "region" "injections" "detected"
    "masked" "silent" "coverage";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-10s %10d %9d %7d %7d %8.1f%%@," (region_name row.region)
        row.injections row.detected row.masked row.silent (100.0 *. coverage row))
    report.rows;
  Format.fprintf fmt "overall detection coverage: %.2f%% (%d silent escapes)@]"
    (100.0 *. detection_coverage report)
    (silent_total report)
