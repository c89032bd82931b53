(** Seeded, composable IR-to-IR obfuscation passes, plugged into
    {!Eric_cc.Driver} via its transform hook.

    Semantics preservation is checked three ways: the passes keep
    {!Eric_cc.Ir_verify} error-clean by construction, the qcheck
    property in test_obf compares IR-interpreter output of obfuscated
    vs plain IR, and `eric verif fuzz` runs the full three-path
    differential oracle over obfuscated builds.

    Reproducibility contract: all randomness derives from
    {!config.seed} through per-(function, pass) streams
    ({!Seed.stream}), so two builds of the same source with the same
    seed are byte-identical and the seed travels in the package header
    ({!Eric.Package.t}[.obf]) for provenance. *)

type pass =
  | Flatten  (** control-flow flattening: dispatcher over a shuffled block table *)
  | Opaque  (** opaque predicates guarding junk decoy edges *)
  | Dummy  (** decoy blocks calling a generated population of dummy functions *)
  | Arith  (** MBA rewrites of add/sub/xor, exact on two's complement *)
  | Constants  (** XOR-split literal encoding of constant moves *)

val all_passes : pass list
(** Every pass, in application order (data passes before decoy planters
    before flattening).  [apply] always uses this order no matter how
    the configured list is spelled. *)

val pass_name : pass -> string

val passes_of_string : string -> (pass list, string) result
(** Parse a comma-separated pass list (the [--obfuscate] argument) into
    canonical order; [Error] names the first unknown pass. *)

val mask_of_passes : pass list -> int
val passes_of_mask : int -> pass list
(** Wire encoding of the pass set, as stored in the package header's
    obfuscation metadata block. *)

val default_seed : int64
(** The documented default build seed ([0xE51C0BF5CA7E0001]); builds
    not overriding [--obf-seed] use it, so they are reproducible across
    machines by default. *)

type config = { passes : pass list; seed : int64 }

val tag : config -> string
(** Stable transform identity ("obf:<passes>:seed=0x<seed>"); feeds
    build-cache keys via {!Eric_cc.Driver.transform}. *)

val apply : ?annot:Annot.t -> config -> Eric_cc.Ir.program -> Eric_cc.Ir.program
(** Run the configured passes.  [annot] (reset first) receives decoy
    provenance and counters; cc.obf.* telemetry counters and the [obf]
    span are emitted when telemetry is enabled. *)

val transform : config -> Eric_cc.Driver.transform
(** The driver hook, discarding provenance. *)

val hook : config -> Eric_cc.Driver.transform * Annot.t
(** The driver hook plus the annotation it fills on each application —
    use this when the build will be graded afterwards.  The annotation
    describes the most recent application. *)

val options : ?base:Eric_cc.Driver.options -> config -> Eric_cc.Driver.options
(** [base] (default {!Eric_cc.Driver.default_options}) with the
    configured transform installed. *)

val grade : annot:Annot.t -> attacker:Eric_lint.Leakage.attacker -> Eric_rv.Program.t
  -> Eric_lint.Leakage.structure
(** Run an attacker over the obfuscated *plain* image and score it with
    {!Eric_lint.Leakage.recover_against} against the real truth: the
    compiler's ground truth of the image minus everything the obfuscator
    planted (decoy blocks and dummy functions, located via their
    [.L_<fname>_<label>] symbols and subtracted as byte ranges).  The
    score is a Jaccard per component, so decoys the attacker swallows
    push it below the 1.0 an un-obfuscated plain image yields. *)
