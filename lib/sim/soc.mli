(** The target SoC: memory + Rocket-class core, plus the plain program
    loader.

    [run_program] is the baseline execution path of the Fig-7 experiment:
    load a *plaintext* image into main memory over the DMA path and execute
    it to completion.  ERIC's encrypted path (decrypt + hash + validate
    while loading) lives in the [eric] core library and reuses this SoC for
    the execution half. *)

type result = {
  status : Cpu.status;
  output : string;
  exec_cycles : int64;  (** core cycles from entry to exit *)
  load_cycles : int64;  (** cycles spent loading the image into memory *)
  guard_cycles : int64;
      (** cycles the runtime integrity guard spent re-checking resident
          granules (scrub passes + fetch checks); 0 when no guard runs.
          Already included in [exec_cycles] — reported separately so the
          overhead curve can be read off directly. *)
  instructions : int64;
  icache_hit_rate : float;
  dcache_hit_rate : float;
}
(** What a run reports.  {!run_program} and {!run_loaded} also publish
    these counters as telemetry gauges ([sim.exec_cycles],
    [sim.instructions], [sim.cpi], [sim.icache_hit_rate], ...) while
    telemetry is enabled. *)

val total_cycles : result -> int64
(** Load + execute: the end-to-end time Fig 7 compares. *)

val plain_load_cycles : Eric_rv.Program.t -> int64
(** Cycles to DMA the plain image (header + text + data) into memory:
    {!Eric_hw.Hde.load_plain} under the default HDE configuration. *)

val load : Eric_rv.Program.t -> Eric_util.Memory.t
(** Fresh memory with text, data and zeroed BSS placed per
    {!Eric_rv.Program.Layout}. *)

val boot :
  ?timing:Cpu.timing ->
  ?branch_predictor:bool ->
  Eric_rv.Program.t ->
  Eric_util.Memory.t ->
  Cpu.t
(** A CPU with pc at the image entry and sp at the top of the stack. *)

val run_program :
  ?timing:Cpu.timing -> ?branch_predictor:bool -> ?fuel:int -> Eric_rv.Program.t -> result
(** Load and run a plaintext image end-to-end. *)

val run_loaded :
  ?timing:Cpu.timing ->
  ?fuel:int ->
  ?guard:Eric_hw.Guard.config ->
  ?trace:(pc:int -> Eric_rv.Inst.t -> unit) ->
  load_cycles:int64 ->
  Eric_rv.Program.t ->
  Eric_util.Memory.t ->
  result
(** Run an image that something else (e.g. the HDE) already placed in
    memory, accounting its loading cost as [load_cycles].

    When [guard] (default {!Eric_hw.Guard.disabled}) enables a mechanism,
    an {!Integrity} runtime is enrolled over the resident image before the
    first instruction and its checks run as the program executes: scrub
    passes between instructions whenever the interval elapses, fetch
    checks on I-cache misses.  A mismatch ends the run with
    {!Cpu.Integrity_fault}; all checking cycles are charged to
    [exec_cycles] and reported in [guard_cycles].

    [trace] is installed as the core's {!Cpu.set_trace} hook. *)
