(** Reliability-aware PUF enrollment.

    One factory pass per device: oversample a wide challenge pool, screen
    every candidate at a stress corner ({!Env.stress}), keep only
    challenges whose noiseless race margin clears a noise + aging floor,
    and mask whole chains ("dark bits") that cannot field a full
    repetition group of stable challenges.  The output is a helper-data
    blob — a repetition-code secure sketch plus keyed integrity tag —
    that the {!Fuzzy} extractor consumes at every boot, and the enrolled
    key the sketch protects.

    Helper data is {e public by construction}: each sketch bit is the XOR
    of two response bits of the same chain, so it reveals response
    {e correlations} but never a response bit, and the tag is keyed by a
    key derived from the enrolled key itself (it authenticates, it does
    not hide). *)

type config = {
  rep : int;  (** challenges per kept chain; odd (default 7) *)
  screen_votes : int;  (** noisy reads per instability estimate *)
  screen_env : Env.t;  (** screening corner (default {!Env.stress}) *)
  margin_sigmas : float;  (** margin floor, in accumulated-noise sigmas *)
  drift_allowance_ps : float;  (** extra floor for lifetime aging drift *)
  max_instability : float;  (** mask chains flipping more often than this *)
  min_chains : int;  (** refuse enrollment below this many kept chains *)
}

val default_config : config
(** rep 7, 9 screen votes at {!Env.stress}, 2.5 sigma + 4 ps floor,
    0.2 max instability, 16-chain floor. *)

type helper = {
  version : int;
  device_id : Device.id;
  chains : int;  (** chains on the enrolled device *)
  rep : int;
  mask : Eric_util.Bitvec.t;  (** length [chains]; set = chain kept *)
  challenges : int array;  (** kept x rep, chain-major over kept chains *)
  sketch : Eric_util.Bitvec.t;  (** kept x rep repetition-code helper bits *)
  tag : bytes;  (** 32-byte HMAC over the serialized prefix, keyed by
                    HMAC(enrolled key, domain string) *)
}

type enrollment = {
  helper : helper;
  key : bytes;  (** the enrolled PUF key the sketch reconstructs *)
  instability : float array;  (** per kept chain, worst over its group *)
  worst_instability : float;
}

val enroll : ?config:config -> Device.t -> (enrollment, string) result
(** Enroll a device.  [Error] when fewer than [min_chains] chains survive
    dark-bit masking — a die that bad must be scrapped, not shipped. *)

val kept_chains : helper -> int

val serialize : helper -> bytes
(** Versioned wire blob ("EHLP" magic); see docs/puf-reliability.md. *)

val parse : bytes -> (helper, string) result
(** Strict inverse of {!serialize}: wrong magic, version, length, an
    inconsistent mask/kept count or a set padding bit all refuse.  The
    tag is {e not} checked here — only reconstruction can check it
    ({!Fuzzy.reconstruct}). *)

val tag_matches : key:bytes -> helper -> bool
(** Constant-time check that [key] reproduces [helper]'s tag. *)

val survey : ?votes:int -> ?env:Env.t -> Device.t -> helper -> float
(** Key-free field health check: re-read every enrolled challenge [votes]
    times at an operating point and return the worst observed minority
    fraction (0 = perfectly stable, 0.5 = coin flip).  Fleet re-enrollment
    campaigns compare this against their instability threshold.
    @raise Invalid_argument when the helper names another device. *)
