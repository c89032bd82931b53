(** A reference interpreter for the IR.

    Executes {!Ir.program} directly — no code generation, no register
    allocation, no RISC-V — with its own 4 MiB memory for globals, string
    literals and frame slots (held in pages allocated on first write).  Because it shares nothing with the back end
    below the IR, comparing its observable behaviour (output + exit code)
    with the compiled program running on the simulated SoC checks
    code generation, register allocation, layout and the CPU model as one
    differential unit. *)

type outcome = {
  output : string;  (** everything written via the __write intrinsic *)
  exit_code : int;  (** from __exit or main's return value *)
}

exception Runtime_error of string
(** Out-of-bounds access, missing function, call-depth explosion. *)

val run : ?max_steps:int -> Ir.program -> outcome
(** Interpret from [main] (default fuel 100M IR instructions). *)
