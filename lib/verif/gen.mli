(** Structured MiniC program generator.

    Emits closed, well-typed, always-terminating MiniC programs with
    deterministic observable behaviour, so the differential oracle can
    compare the IR interpreter, the plain compiled image and the full
    encrypted path without false positives:

    - every loop is bounded by a compile-time constant (counters are
      read-only inside their own bodies; [continue] can never skip a
      decrement);
    - division and remainder are generated with divisors forced into
      [1, 16], so neither divide-by-zero nor [INT64_MIN / -1] can occur;
    - shifts use constant amounts in [0, 63];
    - array indices are masked to the (power-of-two) array length;
    - every variable is initialised before it can be read — reading stale
      stack memory would make the compiled and interpreted paths diverge
      for reasons that are not bugs;
    - the call graph is acyclic (functions only call earlier functions);
    - [main]'s return value is masked to [0, 255] so the process exit code
      is the same on every path;
    - output happens only through [print_str]/[println_int].

    The generator is {e total} over decision traces (see {!Trace}): any
    integer array produces a program with the properties above, which is
    what the mutation engine and the shrinker rely on. *)

type t = {
  source : string;  (** MiniC source text *)
  trace : int array;  (** canonical decision trace that regenerates it *)
}

val generate : ?size:int -> seed:int64 -> unit -> t
(** A fresh program; [size] (default 26) scales the statement budget.
    Records one [verif.gen] telemetry span, as does {!of_trace}. *)

val of_trace : ?size:int -> int array -> t
(** Replay a recorded, mutated or shrunk decision trace. *)
