(** The differential oracle: one program, three independent execution
    paths, any observable difference is a toolchain bug.

    - {b interp}: lower to IR and run {!Eric_cc.Ir_interp} — shares
      nothing with the backend below the IR;
    - {b plain}: the back end on the same IR (codegen, regalloc, RVC,
      layout) and a plain load onto the simulated SoC;
    - {b encrypted}: the whole ERIC path — sign, encrypt, serialize,
      parse, HDE decrypt, signature validation — then the same SoC.

    Behaviour is the pair (observable output, exit code), or the fact of
    trapping; trap {e messages} are layer-specific and deliberately not
    compared.  A validation refusal of a clean package is its own
    behaviour class ([Refused]) and always disagrees with an execution. *)

type behaviour =
  | Exit of { code : int; output : string }
  | Trap of string  (** CPU fault / interpreter runtime error *)
  | Exhausted
      (** the harness's fuel limit, not a program behaviour: the
          interpreter and the SoC count different units (IR steps vs
          retired instructions), so exhaustion in one path and not
          another is incomparable rather than a divergence.  The
          interpreter's refusal of globals that do not fit in its smaller
          memory ({!Eric_cc.Ir_interp.globals_too_large}) counts here
          too.  {!diverges}
          skips exhausted reports; {!agree} still reports them as
          disagreement so nothing silently equates a completed run with
          a truncated one. *)
  | Refused of string  (** the HDE refused a legitimate package *)

type report = { interp : behaviour; plain : behaviour; encrypted : behaviour }

val agree : report -> bool
val behaviour_equal : behaviour -> behaviour -> bool

val exhausted : report -> bool
(** Some path hit its fuel or memory limit — the report is not evidence
    of a bug. *)

val diverges : report -> bool
(** The paths disagree and none was {!exhausted}: evidence of a bug.
    The one predicate the fuzz loop, [verif shrink] and
    [verif corpus --replay] call a divergence. *)

val pp_behaviour : Format.formatter -> behaviour -> unit
val pp_report : Format.formatter -> report -> unit

val of_result : Eric_sim.Soc.result -> behaviour
(** Classify a SoC run (used by the fault-injection engine too). *)

val default_fuel : int
(** Generous for anything {!Gen} emits (bounded loops), small enough that
    a wrongly-looping program is flagged quickly. *)

val soc_fuel_factor : int
(** The SoC paths run with [fuel * soc_fuel_factor] instructions so that
    a program whose interpretation fits in [fuel] IR steps cannot
    exhaust the machine paths merely because one IR step expands to
    several instructions. *)

val run :
  ?fuel:int ->
  ?mode:Eric.Config.mode ->
  ?device_id:int64 ->
  ?options:Eric_cc.Driver.options ->
  string ->
  (report, string) result
(** [run source] compiles once and drives all three paths ([fuel] is in
    IR steps for the interpreter; see {!soc_fuel_factor}).  [Error] means
    the program did not compile — for generated programs that is a
    generator or compiler-frontend bug and is treated as a finding by the
    fuzz loop, not silently skipped.

    [options] applies to the machine paths.  The interpreter runs the IR
    before [options.transform] is applied, so an IR transform (e.g. an
    {!Eric_obf.Obf} pass set) that alters observable behaviour registers
    as an interp/plain divergence rather than being compared against
    itself.  The interpreter and the target set-up run under the
    [verif.interp] and [verif.target_setup] telemetry spans.  The target
    for [device_id] is booted on the first run that names it and shared
    by every later run in the process (its set-up span is then a table
    lookup). *)
