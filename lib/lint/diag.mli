(** The unified diagnostics currency of the lint subsystem.

    Every checker — the IR verifier in [Eric_cc.Ir_verify], the
    machine-code verifier in {!Mc_verify}, the encryption-policy leakage
    lint in {!Leakage} — speaks this one type, so renderers, severity
    gates, telemetry and tests treat all three families uniformly.

    Creating a diagnostic increments the [lint.diagnostics] counter
    family, labelled by severity and check id, so [--telemetry] runs show
    findings alongside the pipeline metrics. *)

type severity = Note | Warning | Error

val severity_name : severity -> string
(** ["note"], ["warning"], ["error"]. *)

val severity_rank : severity -> int
(** [Note] = 0, [Warning] = 1, [Error] = 2. *)

type location =
  | Ir_loc of { func : string; block : int; index : int option }
      (** IR position: function, block label, instruction index within the
          block ([None] = the terminator). *)
  | Mc_loc of { offset : int }  (** byte offset into the text section *)
  | Parcel_loc of { index : int; offset : int }
      (** parcel index + byte offset (leakage lint) *)
  | No_loc

type t = {
  severity : severity;
  check : string;  (** check id, e.g. ["mc.cfg.target-misaligned"] *)
  loc : location;
  message : string;
}

val make : ?loc:location -> severity -> check:string -> string -> t
(** Build a diagnostic and record it in telemetry. *)

val errorf :
  ?loc:location -> check:string -> ('a, unit, string, t) format4 -> 'a

val warningf :
  ?loc:location -> check:string -> ('a, unit, string, t) format4 -> 'a

val notef : ?loc:location -> check:string -> ('a, unit, string, t) format4 -> 'a

val pp : Format.formatter -> t -> unit
(** One line: [error[mc.decode.invalid] text+0x1a2: message]. *)

val to_string : t -> string

val sort : t list -> t list
(** Most severe first; ties broken by location (text order), then check. *)

val counts : t list -> int * int * int
(** (errors, warnings, notes). *)

val max_severity : t list -> severity option

val to_json : t -> Eric_telemetry.Json.t
(** Object with [severity], [check], [message] and location fields
    ([func]/[block]/[index], [offset], or [parcel]); see
    docs/static-analysis.md for the schema. *)

val to_jsonl : t list -> string
(** One {!to_json} object per line. *)

val pp_table : Format.formatter -> t list -> unit
(** Aligned severity / check / location / message columns plus a summary
    line; empty input prints only the summary. *)
