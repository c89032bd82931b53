(** Functional runtime of the integrity guard modeled by {!Eric_hw.Guard}.

    At load the guard enrolls a reference digest per granule of the
    resident image (text, data and bss).  While the program runs it
    re-checks granules — periodically (scrub) and/or on I-cache fills
    (re-validate on fetch) — and any mismatch is an integrity fault.

    The region below the image's data segment (text plus its page-
    rounding slack) is treated as immutable: it is never re-enrolled, so
    a modification there always faults at the next check.  Granules from
    the data segment up are {e dirty-tracked}: a granule the program
    stored to since the last scrub is re-enrolled (its new contents
    become the reference) rather than checked — the hardware cannot
    distinguish a legitimate write from an upset it did not observe, so
    honesty costs a small exposure window that the interval sweep
    measures.

    Digests are modeled with a 64-bit FNV-1a hash standing in for the
    truncated SHA-256 the silicon computes; the cycle cost charged is
    the SHA cost from {!Eric_hw.Guard}.

    The model hashes a granule only when its bytes may differ from the
    last digest taken of them.  Each granule carries a bit meaning "the
    reference digest is the digest of the current bytes".  A check
    (scrub or fetch) that hashes a clean granule and finds a match sets
    it, a re-enrollment sets it, and a store that overlaps the granule
    clears it, text included.  A clean granule whose bit is set counts
    as checked, with the same stats and the same charged cycles, without
    being hashed.  No bit is set at enrollment, so a flip made between
    the load and the run is hashed, and faults, at the granule's first
    check; {!verify_all} always hashes.

    This rests on one invariant: between {!create} and the end of the
    run, memory changes only through the attached core's stores.  A
    caller that corrupts memory does so before {!create}. *)

type stats = {
  mutable scrub_passes : int;
  mutable granules_checked : int;
  mutable granules_reenrolled : int;  (** dirty granules re-hashed, not checked *)
  mutable fetch_checks : int;
  mutable guard_cycles : int;  (** total cycles charged for checking *)
}

type t

val create : config:Eric_hw.Guard.config -> image:Eric_rv.Program.t -> Eric_util.Memory.t -> t
(** Enroll reference digests over the image's resident span in [memory]
    (which must already be loaded).  @raise Invalid_argument on a config
    that fails {!Eric_hw.Guard.validate}. *)

val stats : t -> stats

val attach : t -> Cpu.t -> unit
(** Install the store-tracking and fetch-check hooks on the core. *)

val scrub_due : t -> now:int -> bool

val next_scrub : t -> int
(** The core cycle count at which the next pass is due ([max_int] when
    the mechanism does not scrub), so [scrub_due t ~now] is
    [now >= next_scrub t].  Right after {!create} or {!scrub} it is
    above the core's count. *)

val scrub : t -> Cpu.t -> unit
(** One full scrub pass: checks clean granules (hashing those a store
    touched since their last match), re-enrolls dirty ones, charges the
    pass cycles to the core and faults it ({!Cpu.fault_integrity}) on
    the first mismatch.  Schedules the next pass. *)

val verify_all : t -> (unit, string) result
(** Hash and check every non-dirty granule without charging cycles or
    touching any state — the audit tests use to check a scrub against a
    full re-hash. *)
