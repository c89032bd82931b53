(** Generic parallel campaign engine.

    Maps one job function over an array of items, keeps every item's
    outcome in its slot and records [engine.*] telemetry.  The engine
    runs each job exactly once: a job that can recover from a transient
    fault (the fleet shipper's backoff loop, say) does so inside itself.

    {2 Schedulers}

    Two schedulers share one signature and — under the determinism
    contract below — one observable behaviour:

    - {!Deterministic} runs jobs in index order on the calling thread.
      Works identically on OCaml 4.14 and 5.x; the reference semantics.
    - {!Domains} runs jobs on an OCaml-5 domain pool with chunked work
      stealing.  On a runtime without domains it degrades to sequential
      execution and the report's [scheduler_used] says
      ["domains-fallback"].

    {2 Determinism contract}

    A job's outcome may depend only on its own item and state owned by
    that item (one device's PRNG stream, say) — never on the order jobs
    execute in.  Completions land in an array slot keyed by job index,
    so both schedulers produce identical completion arrays; a caller
    that walks them in index order after the run applies its effects
    identically too.  Only wall-clock timing may differ.  Shared-state
    reads inside jobs must be thread-safe (the fleet registry's
    device/target memo tables are). *)

type scheduler = Deterministic | Domains of int  (** 0 = runtime's recommendation *)

val scheduler_of_string : string -> (scheduler, string) result
(** ["deterministic"]/["det"], ["domains"] or ["domains:N"]. *)

val scheduler_label : scheduler -> string

type 'r outcome =
  | Done of 'r
  | Faulted of string  (** the job failed; the reason is all that is kept *)
  | Skipped of string  (** the job declined its item — bookkeeping, not failure *)

type 'r completion = {
  c_outcome : 'r outcome;
  c_ns : int64;  (** wall time inside the job *)
}

type worker = { w_jobs : int; w_busy_ns : int64; w_steals : int }

type 'r report = {
  name : string;
  scheduler_used : string;
      (** ["deterministic"], ["domains:N"] or ["domains-fallback"] *)
  queued : int;
  completions : 'r completion array;  (** slot [i] is item [i]'s *)
  jobs_done : int;
  quarantined : int;  (** jobs that ended {!Faulted} *)
  skipped : int;
  workers : worker array;
  wall_ns : int64;
  utilization : float;  (** busy / (wall x workers); 0 when idle *)
}

val run : ?scheduler:scheduler -> name:string -> ('i -> 'r outcome) -> 'i array -> 'r report
(** Execute the job once on every item under [scheduler] (default
    {!Deterministic}); slot [i] of [completions] holds item [i]'s
    outcome.  Registry updates and other order-sensitive effects belong
    to the caller, which walks [completions] after the run.  Telemetry:
    [engine.runs_total], [engine.jobs.{queued,done,quarantined,skipped}_total],
    [engine.steals_total], [engine.worker.busy_ns{worker=i}],
    [engine.utilization{sched=...}], [engine.wall_ns], span
    [engine.run]. *)

val throughput_per_s : 'r report -> float
(** Queued jobs per wall-clock second (0 for an empty or instant run). *)
