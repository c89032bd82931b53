type behaviour =
  | Exit of { code : int; output : string }
  | Trap of string
  | Exhausted
  | Refused of string

type report = { interp : behaviour; plain : behaviour; encrypted : behaviour }

let behaviour_equal a b =
  match (a, b) with
  | Exit a, Exit b -> a.code = b.code && String.equal a.output b.output
  | Trap _, Trap _ -> true (* messages are layer-specific *)
  | Exhausted, Exhausted -> true
  | Refused a, Refused b -> String.equal a b
  | (Exit _ | Trap _ | Exhausted | Refused _), _ -> false

let agree r = behaviour_equal r.interp r.plain && behaviour_equal r.plain r.encrypted

let exhausted r =
  r.interp = Exhausted || r.plain = Exhausted || r.encrypted = Exhausted

let diverges r = (not (agree r)) && not (exhausted r)

let pp_behaviour fmt = function
  | Exit { code; output } ->
    Format.fprintf fmt "exit %d, %d output bytes (%S)" code (String.length output)
      (if String.length output > 40 then String.sub output 0 40 ^ "..." else output)
  | Trap msg -> Format.fprintf fmt "trap: %s" msg
  | Exhausted -> Format.pp_print_string fmt "out of fuel"
  | Refused msg -> Format.fprintf fmt "refused: %s" msg

let pp_report fmt r =
  Format.fprintf fmt "@[<v>interp    : %a@,plain     : %a@,encrypted : %a@]" pp_behaviour
    r.interp pp_behaviour r.plain pp_behaviour r.encrypted

let default_fuel = 2_000_000

(* The interpreter counts IR steps, the SoC counts retired RV
   instructions, and one IR step (a call with its prologue, a runtime
   print loop iteration, ...) expands to a bounded handful of
   instructions.  The SoC paths therefore get [soc_fuel_factor] times
   the interpreter's budget: a program whose interpretation completes
   within [fuel] steps can then never exhaust the machine paths, so a
   genuine [Exhausted] asymmetry means runaway compiled code, not a
   unit mismatch. *)
let soc_fuel_factor = 32

let of_result (r : Eric_sim.Soc.result) =
  match r.Eric_sim.Soc.status with
  | Eric_sim.Cpu.Exited code -> Exit { code; output = r.Eric_sim.Soc.output }
  | Eric_sim.Cpu.Faulted "out of fuel" -> Exhausted
  | Eric_sim.Cpu.Faulted msg -> Trap msg
  (* Behaviourally an abort; Inject inspects the raw status before this
     folding when it needs to credit the guard specifically. *)
  | Eric_sim.Cpu.Integrity_fault msg -> Trap ("integrity: " ^ msg)
  | Eric_sim.Cpu.Running -> Exhausted

(* Booted devices and their keys, by id: a boot manufactures the die
   and votes its key, and every run for one device would repeat it.  A
   [Target.t] is immutable, so runs on any domain share one. *)
let targets : (int64, Eric.Target.t * bytes) Hashtbl.t = Hashtbl.create 4
let targets_lock = Mutex.create ()

let target_of_id device_id =
  Mutex.lock targets_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock targets_lock) @@ fun () ->
  match Hashtbl.find_opt targets device_id with
  | Some booted -> booted
  | None ->
    let target = Eric.Target.of_id device_id in
    let booted = (target, Eric.Protocol.provision target) in
    Hashtbl.replace targets device_id booted;
    booted

let run ?(fuel = default_fuel) ?(mode = Eric.Config.Full) ?(device_id = 0xE51CL)
    ?(options = Eric_cc.Driver.default_options) source =
  let ( let* ) = Result.bind in
  (* One front-end run feeds all three paths.  The interpreter executes
     the pristine program, before any transform touches it, while the
     machine paths run the transformed one.  A transform that changes
     observable behaviour therefore shows up as an interp/plain
     divergence — this is how obfuscation passes are proven
     semantics-preserving.  Transforms mutate functions in place, but the
     interpreter only mutates its own state, so no copy is needed. *)
  let* ir =
    Eric_cc.Driver.compile_to_ir ~options:{ options with Eric_cc.Driver.transform = None } source
  in
  let interp =
    Eric_telemetry.Span.with_ ~cat:"verif" ~name:"verif.interp" @@ fun () ->
    match Eric_cc.Ir_interp.run ~max_steps:fuel ir with
    | outcome ->
      Exit
        { code = outcome.Eric_cc.Ir_interp.exit_code; output = outcome.Eric_cc.Ir_interp.output }
    | exception Eric_cc.Ir_interp.Runtime_error msg
      when msg = "interpreter out of fuel" || msg = Eric_cc.Ir_interp.globals_too_large ->
      Exhausted
    | exception Eric_cc.Ir_interp.Runtime_error msg -> Trap msg
  in
  let* ir = Eric_cc.Driver.apply_transform options.Eric_cc.Driver.transform ir in
  let* image = Eric_cc.Driver.compile_ir ~options ir in
  let fuel = fuel * soc_fuel_factor in
  let plain = of_result (Eric_sim.Soc.run_program ~fuel image) in
  let target, key =
    Eric_telemetry.Span.with_ ~cat:"verif" ~name:"verif.target_setup" @@ fun () ->
    target_of_id device_id
  in
  let build = Eric.Source.package_image ~mode ~key image in
  let wire = Eric.Package.serialize build.Eric.Source.package in
  let encrypted =
    match Eric.Package.parse wire with
    | Error msg -> Refused ("serialized package does not parse: " ^ msg)
    | Ok pkg -> (
      match Eric.Target.execute ~fuel target pkg with
      | Error e -> Refused (Format.asprintf "%a" Eric.Target.pp_load_error e)
      | Ok r -> of_result r)
  in
  Ok { interp; plain; encrypted }
