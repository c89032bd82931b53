(** Deterministic pseudo-random number generation.

    ERIC's evaluation must be reproducible run-to-run: PUF devices are
    "manufactured" from a seed, workload inputs are generated from seeds, and
    partial-encryption selections are seeded.  This module provides a small,
    fast, splittable PRNG (SplitMix64 seeding a xoshiro256** state) together
    with the distributions the PUF model needs. *)

type t
(** Mutable generator state (32 bytes, allocated once). *)

val mix64 : int64 -> int64
(** SplitMix64's finalizer: a pure, well-mixed bijection on 64-bit
    values, for deriving seeds and stable hash buckets from structured
    inputs such as device ids. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator whose whole stream is a pure function
    of [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    stream. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]: the top 53 bits of {!bits64}, times 2{^-53}. *)

val nonzero_float : t -> float
(** {!float} drawn again while it is at most [1e-300] (that is, 0), so
    its logarithm is finite. *)

val box_muller : mu:float -> sigma:float -> float -> float -> float
(** [box_muller ~mu ~sigma u1 u2] is
    [mu +. (sigma *. sqrt (-2 ln u1) *. cos (2 pi u2))]: the Box-Muller
    transform of the uniforms [u1] in (0, 1) and [u2] in [\[0, 1)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed sample: [box_muller ~mu ~sigma u1 u2] with
    [u1 = nonzero_float t], then [u2 = float t]. *)

val uniform_pairs : t -> float array -> unit
(** [uniform_pairs t a] fills [a] with [Array.length a / 2] pairs
    [(nonzero_float t, float t)], in order: the uniforms of as many
    {!gaussian} draws, leaving [t] where those draws would.
    @raise Invalid_argument if [a]'s length is odd. *)

val bytes : t -> len:int -> bytes
(** [len] uniformly random bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose_subset : t -> n:int -> k:int -> bool array
(** [choose_subset t ~n ~k] marks exactly [min k n] of [n] positions true,
    uniformly at random. *)
