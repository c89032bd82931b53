(** Every on-disk device registry, whichever layout its path has.

    - A plain EFRG file is the one-shard case: the file is the shard.  It
      is parsed when opened, and no manifest is ever written next to it.
    - A sharded registry is a directory holding a tiny [MANIFEST] (magic
      ["EFRS"]: shard count and per-shard entry counts) plus one standard
      EFRG file per shard ([shard-0000.efrg], ...).  Devices map to shards
      by a stable mix of the device id ({!shard_of}), so the same id lands
      in the same shard across processes and fleet sizes.  Opening reads
      only the manifest — O(shards), not O(devices) — and each shard file
      is parsed on first touch.

    Whole-fleet jobs go through {!walk}, which holds one shard in memory
    at a time; scans go through {!fold_entries}, which streams closed
    shards through {!Registry.fold_file}'s cursor.  A shard file that
    does not parse is an [Error] from every operation that touches it.

    Layout and migration are documented in [docs/fleet.md]. *)

type t

val shard_of : shards:int -> Eric_puf.Device.id -> int
(** Stable device-id → shard mapping ({!Eric_util.Prng.mix64}, mod
    [shards]).  Pure: identical across processes and runs. *)

val is_sharded : string -> bool
(** True when [path] is a directory containing a manifest. *)

val create : shards:int -> string -> (t, string) result
(** A fresh empty registry at [path].  [shards = 0] makes it a plain
    EFRG file, written by the first {!save}; otherwise [path] becomes a
    directory of [shards] shards (1..65535) whose manifest is written
    now, and which must not already hold a manifest. *)

val load : string -> (t, string) result
(** Open either layout: a plain file is parsed whole, a directory reads
    its manifest only.  Records a [fleet.registry.open] span and observes
    [fleet.registry.open_ns{kind="file"|"manifest"}]; lazily opened
    shards observe [kind="shard"] and count
    [fleet.registry.shard.opens_total] / [.hits_total]. *)

val save : t -> (unit, string) result
(** Write every shard mutated since it was opened (and a directory's
    manifest) through a temp file renamed into place; clean shards are
    not rewritten. *)

val count : t -> int
(** Total enrolled devices, from the per-shard counts — no shard is
    opened. *)

val find : t -> Eric_puf.Device.id -> (Registry.entry option, string) result

val enroll :
  ?epoch:int -> ?label:string -> ?enrollment:Eric_puf.Enroll.enrollment ->
  t -> Eric_puf.Device.id -> (Registry.entry, string) result

val enroll_legacy :
  ?epoch:int -> ?label:string -> t -> Eric_puf.Device.id ->
  (Registry.entry, string) result

val target :
  ?env:Eric_puf.Env.t -> t -> Registry.entry -> (Eric.Target.t, string) result
(** Delegates to the owning shard's memoized boot. *)

val fold_entries :
  t -> init:'acc -> f:('acc -> Registry.entry -> 'acc) -> ('acc, string) result
(** Every entry, shard-major order.  Open shards iterate in memory;
    closed shards stream from disk entry by entry and are {e not} left
    open — a full-fleet scan at one-shard memory cost. *)

val walk :
  ?scan:(Registry.entry -> unit) ->
  t ->
  f:(Registry.t -> ('a, string) result) ->
  ('a list, string) result
(** Run [f] on each non-empty shard in index order, writing the shard
    back and releasing it before the next opens, so peak memory is one
    shard regardless of fleet size.  Every shard is scanned before any
    is rewritten: a shard that does not parse refuses the walk with every
    file unchanged.  [scan] sees each entry of that scan, shard-major,
    before [f] runs on any shard, so a fact about the whole fleet costs
    no second pass over the files.  An [Error] from [f] stops the walk
    without writing that shard. *)

val of_registry : dir:string -> shards:int -> Registry.t -> (t, string) result
(** Shard an in-memory registry into [dir]. *)

val migrate : file:string -> dir:string -> shards:int -> (t, string) result
(** Stream a single-file registry (any supported version) into a fresh
    sharded one without materializing it: entries are routed and
    appended to per-shard temp files as they decode, and each header's
    count is patched before the rename.  Duplicate device
    ids fail the migration, matching {!Registry.parse}. *)

val to_registry : t -> (Registry.t, string) result
(** Merge every shard into one in-memory registry (shard-major order) —
    the equivalence witness the property tests compare against. *)

val summary : t -> (string, string) result
(** One line: device, active and quarantined counts, plus the shard
    count for a directory.  Scans every entry, so a corrupt shard is an
    [Error]. *)
