(** Constant propagation + value-set analysis over the RV64GC register
    file, solved with {!Dataflow} over {!Mc_cfg} basic blocks.

    This is the disassembler-grade half of the attack model: where the
    linear sweep only reads displacement fields, this analysis tracks the
    small sets of values each register can hold ([lui]/[auipc]/[addi]
    address materialisation, shifts and adds over known constants) and
    resolves computed control flow — [jalr] through a register, including
    [auipc]-relative targets — to concrete text offsets.  The verifier's
    stack checks and the recursive-descent attacker both build on it. *)

(** Per-register abstract value: a bounded set of 64-bit constants. *)
module Value : sig
  type t = Bot | Vals of int64 list | Top

  include Dataflow.LATTICE with type t := t

  val const : int64 -> t
  val to_list : t -> int64 list option
  (** [Some vs] for [Bot]/[Vals] (empty list for [Bot]), [None] for [Top]. *)
end

(** The register file: [Unreached], or one {!Value.t} per x-register
    ([x0] always reads as constant 0). *)
module State : sig
  type t = Unreached | Regs of Value.t array

  include Dataflow.LATTICE with type t := t

  val unknown : unit -> t
  (** All registers [Top] — the boundary state at a function entry. *)
end

val transfer : text_base:int -> Mc_cfg.node -> State.t -> State.t
(** Abstract execution of one parcel.  [auipc]/[jal] materialise
    [text_base]-relative addresses; calls and [ecall] havoc the
    caller-saved registers; undecodable parcels havoc everything. *)

type resolution = {
  site_offset : int;  (** byte offset of the [jalr]/[c.jalr] parcel *)
  targets : int list;
      (** resolved in-section, parcel-aligned target offsets (empty when
          the base register's value set is unknown) *)
}

type result = {
  resolutions : resolution list;  (** one per indirect site, site order *)
  resolved_sites : int;  (** sites with at least one resolved target *)
  blocks : int;
  iterations : int;
}

val analyze :
  ?text_base:int ->
  ?visible:(int -> bool) ->
  Mc_cfg.t ->
  entries:int list ->
  result
(** Solve over the basic blocks of [cfg], seeding an {!State.unknown}
    boundary at every entry offset (program entry + call targets).
    [visible] (node index, default all) models an attacker who cannot
    read encrypted parcels: an invisible parcel havocs the state.
    [text_base] defaults to {!Eric_rv.Program.Layout.text_base}.  Bumps
    [lint.dataflow.resolved_indirect] by {!result.resolved_sites}. *)
