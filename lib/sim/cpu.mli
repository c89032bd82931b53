(** Cycle-approximate model of the paper's target core: an in-order 6-stage
    RV64 pipeline (Rocket-class) with L1 instruction and data caches.

    Architectural execution is exact (every supported instruction's RV64
    semantics, including the M extension's division corner cases).  Timing
    is approximate but shaped like the real pipeline: one instruction per
    cycle, plus stalls for load-use hazards, taken control flow, long-latency
    multiply/divide, and cache misses.  Fig 7 only needs relative execution
    times, for which this class of model is standard. *)

type timing = {
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  writeback_penalty : int;
  load_use_stall : int;
  taken_branch_penalty : int;
  jump_penalty : int;  (** jal: target known at decode *)
  jalr_penalty : int;  (** indirect: target known at execute *)
  mul_extra : int;
  div_extra : int;
}

val default_timing : timing

type syscall_result =
  | Sys_continue
  | Sys_exit of int

type t

val create :
  ?timing:timing ->
  ?icache:Cache.config ->
  ?dcache:Cache.config ->
  ?branch_predictor:bool ->
  memory:Eric_util.Memory.t ->
  pc:int ->
  sp:int ->
  unit ->
  t
(** [branch_predictor] (default false, matching the fixed-penalty model the
    evaluation uses) enables a bimodal 2-bit predictor: conditional
    branches pay [taken_branch_penalty] only on a misprediction. *)

val reg : t -> Eric_rv.Reg.t -> int64
val set_reg : t -> Eric_rv.Reg.t -> int64 -> unit
val pc : t -> int

val cycles : t -> int
(** Core cycles so far; a native [int], so that a caller polling it
    between instructions (the scrub engine) allocates nothing. *)

val instructions : t -> int64

val icache : t -> Cache.t
(** The I-cache.  A fetch from the line of the previous fetch in the same
    {!step} or {!run_until} call is a repeat-line hit, which the core
    counts itself instead of calling {!Cache.access}; it credits the
    count ({!Cache.credit_hits}) before {!step}, {!run_until} and this
    function return, so the cache's stats are whole whenever a caller
    can read them.  Entering {!step} or {!run_until} forgets that line,
    so a {!Cache.flush} or {!Cache.access} between calls is seen; one
    made from a hook during a call is not. *)

val dcache : t -> Cache.t
(** The D-cache.  Only loads and stores touch it, so a read from the
    line of the previous access in the same {!step} or {!run_until}
    call, and a write to that line once a write in the call has made it
    dirty, are repeat-line hits, which the core counts itself; it
    credits them as {!icache} does.  Any other access, every write to a
    line not known dirty included, goes to {!Cache.access}, which sets
    the dirty bit. *)

val output : t -> string
(** Everything the program wrote to stdout via the write syscall. *)

type status =
  | Running
  | Exited of int
  | Faulted of string  (** invalid instruction, bus error, ... *)
  | Integrity_fault of string
      (** the runtime integrity guard found resident code or data that
          no longer matches its load-time reference digest — distinct
          from {!Faulted}: the fault is raised by dedicated checking
          hardware, not by the corrupted program happening to trap *)

val status : t -> status

exception Integrity_violation of string
(** Raised by guard hooks mid-step; {!step} and {!run_until} convert it
    into the {!Integrity_fault} status. *)

val set_trace : t -> (pc:int -> Eric_rv.Inst.t -> unit) option -> unit
(** Install (or clear) a per-instruction hook, called after fetch/decode
    and before execution — the basis of the CLI's [--trace] mode and of
    instruction-level debugging. *)

val set_store_hook : t -> (addr:int -> len:int -> unit) option -> unit
(** Called after every architecturally executed store — how the
    integrity guard tracks granules the program legitimately wrote. *)

val set_ifetch_miss_hook : t -> (addr:int -> int) option -> unit
(** Called on every I-cache miss with the fetch address; returns extra
    fill-path cycles to charge and may raise {!Integrity_violation}
    (the re-validate-on-fetch guard mechanism). *)

val charge : t -> int -> unit
(** Charge extra cycles to the core's cycle counter — used by external
    agents (the scrub engine) that steal memory bandwidth. *)

val fault_integrity : t -> string -> unit
(** Force the {!Integrity_fault} status from outside {!step} (the
    periodic scrub engine runs between instructions). *)

val step : t -> unit
(** Execute one instruction (no-op once not [Running]).  A fault raised
    mid-instruction (an invalid instruction, a memory
    {!Eric_util.Memory.Trap}, an {!Integrity_violation}) becomes the
    {!Faulted} or {!Integrity_fault} status.

    Syscall ABI (a7 selects, as in the Linux RV64 convention):
    - 64 (write): a0=fd (ignored), a1=buffer address, a2=length; appends the
      bytes to {!output}; returns a2 in a0.
    - 93 (exit): terminates with code a0. *)

val run_until : t -> fuel:int -> cycles:int -> int
(** Step until the core is no longer [Running], [fuel] steps have been
    taken or the cycle count has reached [cycles]; returns the steps
    taken.  Sets no status of its own: a core stopped by the fuel or the
    cycle bound is still [Running].  An agent that acts between
    instructions at cycle deadlines (the scrub engine) runs the core to
    each deadline with one call, not one {!step} at a time.

    The steps, status and counts are those of calling {!step} the same
    number of times.  The loop runs inside one exception handler: a fault
    raised mid-instruction, {!Integrity_violation} included, becomes the
    core's status as in {!step}, and the faulting step counts. *)

val run : ?fuel:int -> t -> status
(** {!run_until} with [fuel] (default 50M) and no cycle bound.  Never
    returns [Running]: a core still running when the fuel is spent is
    set to, and returns, [Faulted "out of fuel"]. *)
