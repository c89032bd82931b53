(** A reference interpreter for the IR.

    Executes {!Ir.program} directly — no code generation, no register
    allocation, no RISC-V.  Globals, string literals and frame slots live
    in a 4 MiB {!Eric_util.Memory}: the paged, bounds-checked byte store
    the simulated SoC also uses, which [test_sim] checks against flat
    bytes.  It shares nothing else with the back end below the IR, so
    comparing its observable behaviour (output + exit code) with the
    compiled program running on the simulated SoC checks code
    generation, register allocation, layout and the CPU model as one
    differential unit. *)

type outcome = {
  output : string;  (** everything written via the __write intrinsic *)
  exit_code : int;  (** from __exit or main's return value *)
}

exception Runtime_error of string
(** Out-of-bounds access (with {!Eric_util.Memory.Trap}'s message),
    missing function, call-depth explosion. *)

val globals_too_large : string
(** The {!Runtime_error} message of a program whose globals reach past
    the interpreter stack's floor, 2 MiB.  The interpreter refuses it
    before running anything: it has a quarter of the SoC's memory, so
    such a program says nothing about the machine paths. *)

val run : ?max_steps:int -> Ir.program -> outcome
(** Interpret from [main] (default fuel 100M IR instructions).  Raises
    {!Runtime_error} with ["interpreter out of fuel"] when the fuel runs
    out, and with {!globals_too_large} for a program whose data and BSS
    do not fit below the stack. *)
