(** The catalogue of lint check ids: one entry per diagnostic the
    checker families can emit, with its family, default severity and a
    one-line summary.  docs/static-analysis.md is the prose rendering of
    this table; [eric_cli lint --checks] prints it. *)

type family = Ir | Machine | Leakage | Taint

type info = {
  id : string;
  family : family;
  severity : Diag.severity;  (** default severity (leakage checks escalate
                                 to [Error] past the [--max-leakage] gate) *)
  summary : string;
}

val all : info list
(** Stable order: IR checks, then machine-code, then leakage, then taint. *)

val find : string -> info option

val pp_catalogue : Format.formatter -> unit -> unit
