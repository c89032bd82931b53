(** One tenant of the update service: its own fleet registry (multi-source
    isolation — tenants share no keys, because each enrollment derives its
    key under the tenant's KMU label) plus an array of enrolled device ids
    for O(1) uniform picks by the traffic model. *)

type t

val provision :
  ?scheduler:Eric_engine.Engine.scheduler ->
  label:string -> first_id:Eric_puf.Device.id -> count:int -> unit -> t
(** Enroll [count] devices starting at [first_id] (unenrollable dies are
    skipped deterministically) under KMU label [label].  Reliability
    screening runs as {!Eric_engine.Engine} jobs in waves of consecutive
    candidate ids ([scheduler], default deterministic); the surviving
    population does not depend on the scheduler.
    @raise Failure when too many consecutive dies fail enrollment. *)

val label : t -> string
val registry : t -> Eric_fleet.Registry.t

val device_id : t -> int -> Eric_puf.Device.id
(** @raise Invalid_argument when the index is out of range. *)

val entry : t -> int -> Eric_fleet.Registry.entry
(** The registry entry of the [i]th device (always present). *)
