(** Content-addressed cache of prepared builds.

    Key = SHA-256 over (source text, compiler options, encryption mode —
    including selection seeds), so a campaign re-run, a rebuild for a
    rotated key epoch, or a second campaign over the same firmware all
    skip the compiler, signer and layout entirely and go straight to
    per-device personalization.

    Two tiers: an in-process table holding {!Eric.Source.prepared} values
    (full skip), and an optional directory of compiled images keyed by
    digest ([<hex>.rexe]) that survives across processes — a disk hit
    skips compilation and re-runs only the prepare step.

    Telemetry: [fleet.cache.events_total{result=hit|disk|miss}]. *)

type t

type outcome = Memory_hit | Disk_hit | Miss

val outcome_label : outcome -> string
(** ["hit"], ["disk"] or ["miss"] — the telemetry label values. *)

val create : ?dir:string -> unit -> t
(** [dir] enables the disk tier, created by its first write. *)

val digest : options:Eric_cc.Driver.options -> mode:Eric.Config.mode -> string -> string
(** The cache key (lowercase hex) for a campaign input. *)

val get_or_compile :
  t ->
  ?options:Eric_cc.Driver.options ->
  mode:Eric.Config.mode ->
  string ->
  (Eric.Source.prepared * outcome, string) result
(** [Error] also when a miss cannot be written to the disk tier. *)

val hits : t -> int
val disk_hits : t -> int
val misses : t -> int

val lookups : t -> int
(** Total [get_or_compile] calls. *)

val hit_rate : t -> float
(** (memory + disk hits) / lookups — 0.0 before any lookup.  The number
    a long-running update service reports as its cache hit rate. *)
