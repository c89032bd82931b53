(** IR-level instance of the linter's generic dataflow framework
    ({!Eric_lint.Dataflow}): adapts an {!Ir.func}'s block CFG to the
    solver's graph shape and defines the lattices IR analyses use.
    The IR verifier's definite-assignment pass and the register
    allocator's liveness run on it, over dense temp sets
    ({!Eric_util.Bitvec}, bit [t] = temp [t]). *)

module Dataflow = Eric_lint.Dataflow

(** Which temps are written on {e every} path: join is set intersection,
    [All] (the join identity) means "no path constrains this yet".  All
    [Defined] sets of one solve have the same length. *)
module Must_define : sig
  type t = All | Defined of Eric_util.Bitvec.t

  include Dataflow.LATTICE with type t := t
end

type func_graph = {
  fg_graph : Dataflow.graph;
  fg_blocks : Ir.block array;  (** node index -> block, in program order *)
  fg_index : (Ir.label, int) Hashtbl.t;  (** label -> node index *)
}

val graph_of_func : Ir.func -> func_graph
(** Block-level CFG with node 0 = the entry block.  Edges into the entry
    label are dropped — the entry's input is its boundary fact, not a
    join with loop back-edges.  Terminator targets with no block are
    skipped (the verifier flags them separately). *)

val cfg_of_func : Ir.func -> func_graph
(** {!graph_of_func} with the edges into the entry kept, as a backward
    analysis (liveness) needs them. *)

val temp_bound : Ir.func -> int
(** [f_temp_count], raised past any parameter or defined temp above it:
    the length of {!must_define}'s sets.  On verified IR it is
    [f_temp_count].  Negative temps (an [ir.temp.out-of-range] error)
    are never in a set. *)

module Must_solver : sig
  type result = {
    input : Must_define.t array;
    output : Must_define.t array;
    iterations : int;
  }
end

val must_define : Ir.func -> func_graph * Must_solver.result
(** Forward must-define solve from the parameter set at the entry, with
    each block's definitions computed once.  [input.(i)] is the set of
    temps definitely assigned when block [i] starts; unreachable blocks
    report [All] (unconstrained). *)
