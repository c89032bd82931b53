(** Generic parallel work-queue campaign engine.

    Runs one job function over an array of items under a bounded
    in-flight window, replays the outcomes in item order and records
    [engine.*] telemetry.  The engine runs each job exactly once: a job
    that can recover from a transient fault (the fleet shipper's
    backoff loop, say) does so inside itself.

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
    execute in.  Completions land in an array slot keyed by job index
    and the [commit] callback replays them in index order, so both
    schedulers produce identical completion arrays and identical
    committed state; only wall-clock timing may differ.  Shared-state
    reads inside jobs must be thread-safe (the fleet registry's
    device/target memo tables are). *)

type scheduler = Deterministic | Domains of int  (** 0 = runtime's recommendation *)

val scheduler_of_string : string -> (scheduler, string) result
(** ["deterministic"]/["det"], ["domains"] or ["domains:N"]. *)

val scheduler_label : scheduler -> string

type config = {
  scheduler : scheduler;
  window : int;
      (** max jobs in flight before their completions are committed;
          batches run back to back *)
}

val default_config : config
(** Deterministic scheduler, window 1024. *)

type 'r outcome =
  | Done of 'r
  | Faulted of string  (** the job failed; the reason is all that is kept *)
  | Skipped of string  (** the job declined its item — bookkeeping, not failure *)

type 'r completion = {
  c_index : int;  (** index of the item in the input array *)
  c_outcome : 'r outcome;
  c_ns : int64;  (** wall time inside the job *)
}

type worker = { w_jobs : int; w_busy_ns : int64; w_steals : int }

type 'r report = {
  name : string;
  scheduler_used : string;
      (** ["deterministic"], ["domains:N"] or ["domains-fallback"] *)
  queued : int;
  completions : 'r completion array;  (** by job index *)
  jobs_done : int;
  quarantined : int;  (** jobs that ended {!Faulted} *)
  skipped : int;
  workers : worker array;
  wall_ns : int64;
  utilization : float;  (** busy / (wall x workers); 0 when idle *)
}

val run :
  ?config:config ->
  ?commit:('r completion -> unit) ->
  name:string ->
  ('i -> 'r outcome) ->
  'i array ->
  'r report
(** Execute the job on every item.  [commit] is invoked exactly once per
    item in item-index order (windowed: after each batch of [window]
    jobs), on the calling thread — the place to apply registry updates
    and other order-sensitive effects.  Telemetry: [engine.runs_total],
    [engine.jobs.{queued,done,quarantined,skipped}_total],
    [engine.steals_total], [engine.worker.busy_ns{worker=i}],
    [engine.utilization{sched=...}], [engine.wall_ns], span
    [engine.run].
    @raise Invalid_argument when [config.window < 1]. *)

val throughput_per_s : 'r report -> float
(** Queued jobs per wall-clock second (0 for an empty or instant run). *)
