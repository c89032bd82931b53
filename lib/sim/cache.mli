(** Set-associative cache timing model with true-LRU replacement and
    write-back/write-allocate policy.

    Only timing is modelled (data lives in {!Eric_util.Memory}); the
    model tracks tags, valid and dirty bits per way, which is all the
    Fig-7 execution experiment needs.  Defaults match the paper's Table I: 16 KiB, 4-way. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

val table1_config : config
(** 16 KiB, 4-way, 64-byte lines — both L1I and L1D in the paper. *)

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;  (** dirty evictions *)
}

type t

val create : config -> t
val config : t -> config
val stats : t -> stats

type outcome = Hit | Miss of { writeback : bool }

val access : t -> addr:int -> write:bool -> outcome
(** Look up the line containing [addr]; on miss, allocate it, evicting the
    LRU way (reporting whether the victim was dirty).  Writes mark the line
    dirty.

    The cache remembers the line of its last access and the way holding
    it.  A repeat of that line counts a hit, and a write sets the dirty
    bit, without scanning the set or updating its LRU order.  Outcomes
    and {!stats} are exactly those of a full lookup: the way is already
    the most recently used in its set, and no access came in between.
    Any other access, a negative [addr] included, replaces the remembered
    line. *)

val credit_hits : t -> int -> unit
(** [credit_hits t n] counts [n] accesses and [n] hits, which is all
    {!access} does for [n] reads that repeat the remembered line, or
    writes that repeat it once it is dirty.  The caller must know that
    they did: the core counts its fetches from the line of its previous
    fetch itself, since only fetches touch the I-cache, and its data
    accesses likewise, and credits each count with one call (see
    {!Cpu.icache} and {!Cpu.dcache}). *)

val flush : t -> unit
(** Invalidate every line, the remembered one included (keeps cumulative
    stats). *)

val hit_rate : t -> float
