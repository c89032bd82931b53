(** Fixed log-scale histogram: geometric buckets with ratio [2^(1/4)]
    (four per octave), so quantile estimates are upper bounds at most
    ~19% above the true observation and never above the observed max.
    Accepts any non-negative value (nanoseconds, bytes, cycles);
    negatives and NaN land in bucket 0. *)

type t

val ratio : float
(** Bucket edge ratio, [2 ** 0.25].  [quantile] never overestimates by
    more than this factor. *)

val create : unit -> t
val clear : t -> unit
val observe : t -> float -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
(** Exact observed minimum (0.0 when empty). *)

val max_value : t -> float
(** Exact observed maximum (0.0 when empty). *)

val quantile : t -> float -> float
(** [quantile t p] for p in [0,1]: the upper edge of the bucket holding
    the p-quantile observation, clamped to {!max_value}.  Guaranteed
    [>=] the true quantile (so [>=] {!min_value}), [< true *. ratio] and
    [<=] {!max_value}: exact for a single observation and for the
    overflow bucket.  0.0 when empty. *)

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

val summarize : t -> summary
val merge_into : dst:t -> t -> unit
