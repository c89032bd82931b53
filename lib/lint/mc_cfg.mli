(** Control-flow reconstruction over a decoded RV64GC text section — the
    substrate of the machine-code verifier and of the recursive-descent
    attack model.

    The text is cut at parcel boundaries (the framing an attacker must
    also discover); each parcel becomes a {!node} with its decoded
    instruction, and {!flow_of} classifies how control leaves it.  Branch
    and jump displacements are byte offsets relative to the instruction,
    exactly as {!Eric_rv.Inst} carries them, so target arithmetic here is
    plain [offset + displacement]. *)

type node = {
  n_index : int;  (** parcel index *)
  n_offset : int;  (** byte offset of the parcel *)
  n_size : int;  (** 2 or 4 *)
  n_inst : Eric_rv.Inst.t option;  (** [None] = undecodable parcel *)
}

type t = {
  nodes : node array;
  index_of_offset : (int, int) Hashtbl.t;  (** parcel boundary -> index *)
  text_size : int;
}

val build : Eric_rv.Program.t -> t

val node_at : t -> int -> node option
(** The node starting at a byte offset; [None] when the offset is not a
    parcel boundary. *)

type flow =
  | Next  (** falls through to the next parcel *)
  | Jump of int  (** unconditional jump to an absolute byte offset *)
  | Cond of int  (** conditional branch: target, plus fallthrough *)
  | Call of int  (** [jal] with a link register: target, resumes after *)
  | Return  (** [jalr x0, ra, 0] *)
  | Indirect  (** [jalr x0] tail-jump: leaves, target not statically known *)
  | Indirect_call
      (** [jalr] with a link register ([c.jalr] in compressed form):
          target unknown, but control {e resumes at the next parcel} —
          2 bytes later for the compressed encoding *)

val flow_of : node -> flow
(** Classification of the node's instruction.  Undecodable parcels and
    [ecall]/[ebreak] report [Next]; the verifier refines [ecall] exits with
    its own constant tracking. *)

val targets_of_flow : flow -> int list
(** The absolute byte offsets a flow names (empty for
    [Next]/[Return]/[Indirect]/[Indirect_call]). *)

val fallthrough : t -> node -> int option
(** The in-section fallthrough offset — [n_offset + n_size], honouring
    the parcel's real 2- or 4-byte width — or [None] when the flow does
    not fall through or the next boundary is past the section end. *)

val call_sites : t -> (int * int) list
(** [(site offset, target offset)] for every [jal ra, _] — the call edges
    a linear-sweep attacker recovers from plaintext. *)

(** {1 Basic blocks}

    Maximal straight-line parcel runs: a block ends at the first
    control-transfer parcel, and starts at offset 0, at any branch/jump
    target, or right after a control transfer (again [n_size]-exact, so a
    compressed terminator is followed 2 bytes later, not 4).  This is the
    node space the {!Dataflow} solver instances for machine code run
    over. *)

type block = {
  bb_index : int;
  bb_first : int;  (** first member node index *)
  bb_last : int;  (** last member node index (inclusive) *)
  bb_succs : int list;
      (** successor block indices: the fallthrough and/or branch targets
          of the last member.  [Call] blocks list only the fallthrough —
          callee entries are boundary nodes of an interprocedural
          analysis, not intra-CFG successors. *)
}

type blocks = { blocks : block array; block_of_node : int array }

val basic_blocks : t -> blocks
