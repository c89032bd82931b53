(** The serve loop: drive one scenario's request stream through the
    bounded admission queue into [k] simulated servers, each request
    flowing through the fleet pipeline (artifact cache → personalize →
    ship, with key rotations via {!Eric_fleet.Registry.target_for}).

    Deterministic end to end: same (scenario, seed) → byte-identical
    {!Slo.report} (and JSON), regardless of machine or wall-clock. *)

val run :
  ?seed:int64 ->
  ?cache_dir:string ->
  ?policy:Eric_fleet.Backoff.policy ->
  scenario:Scenario.t ->
  unit ->
  (Slo.report, string) result
(** [seed] (default 1) drives traffic and channel draws; [cache_dir]
    enables the artifact cache's disk tier; [policy] (default
    {!Eric_fleet.Backoff.default}) is the shipper's retry policy.
    [Error] names the corpus workload the artifact cache could not build
    and why: it failed to compile (a build bug, not a scenario outcome),
    or its image could not be written to the disk tier. *)
