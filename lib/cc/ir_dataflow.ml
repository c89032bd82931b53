(* The IR-level instance of the linter's generic dataflow framework:
   Eric_lint.Dataflow knows nothing about Eric_cc (the dependency points
   the other way), so this module adapts an Ir.func's block CFG to the
   solver's graph shape and defines the lattices IR analyses run on. *)

module Dataflow = Eric_lint.Dataflow
module Bitvec = Eric_util.Bitvec

(* Must-define analysis lattice: which temps are written on *every* path.
   Join is set intersection, so the identity element ("no path constrains
   this yet") is the whole universe, [All].  Values are never mutated once
   built: the solver shares them between nodes. *)
module Must_define = struct
  type t = All | Defined of Bitvec.t

  let bottom = All

  let join a b =
    match (a, b) with
    | All, x | x, All -> x
    | Defined u, Defined v ->
      let w = Bitvec.copy u in
      Bitvec.inter_into w v;
      Defined w

  let equal a b =
    match (a, b) with
    | All, All -> true
    | Defined u, Defined v -> Bitvec.equal u v
    | _ -> false

  let pp fmt = function
    | All -> Format.pp_print_string fmt "all"
    | Defined s ->
      let elts = ref [] in
      Bitvec.iter (fun t -> elts := string_of_int t :: !elts) s;
      Format.fprintf fmt "{%s}" (String.concat "," (List.rev !elts))
end

type func_graph = {
  fg_graph : Dataflow.graph;
  fg_blocks : Ir.block array;  (** node index -> block *)
  fg_index : (Ir.label, int) Hashtbl.t;
}

(* Node i is the i-th block; a label names its first block.  Terminator
   targets with no block are skipped, and so are edges into the entry
   label unless [entry_edges]. *)
let build_graph ~entry_edges (f : Ir.func) =
  let fg_blocks = Array.of_list f.Ir.f_blocks in
  let fg_index = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
      if not (Hashtbl.mem fg_index b.Ir.b_label) then Hashtbl.replace fg_index b.Ir.b_label i)
    fg_blocks;
  let edges = ref [] in
  Array.iteri
    (fun i b ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt fg_index l with
          | Some j when entry_edges || j <> 0 -> edges := (i, j) :: !edges
          | Some _ | None -> ())
        (Ir.successors b.Ir.term))
    fg_blocks;
  { fg_graph = Dataflow.graph_of_edges ~node_count:(Array.length fg_blocks) (List.rev !edges);
    fg_blocks;
    fg_index }

(* The entry has no CFG predecessor in a forward analysis: its dataflow
   input is the boundary fact (parameters), never a join with a loop edge
   back to the first label. *)
let graph_of_func f = build_graph ~entry_edges:false f
let cfg_of_func f = build_graph ~entry_edges:true f

let temp_bound (f : Ir.func) =
  let hi = ref f.Ir.f_temp_count in
  let see t = if t >= !hi then hi := t + 1 in
  List.iter see f.Ir.f_params;
  List.iter
    (fun b -> List.iter (fun i -> match Ir.def_of i with Some d -> see d | None -> ()) b.Ir.body)
    f.Ir.f_blocks;
  !hi

let define s t = if t >= 0 then Bitvec.add s t

module Must_solver = Dataflow.Make (Must_define)

let must_define (f : Ir.func) =
  (* Forward solve: in(b) = ∩ out(preds), out(b) = in(b) ∪ defs(b);
     the entry starts from the parameter set. *)
  let fg = graph_of_func f in
  let n = temp_bound f in
  let defs =
    Array.map
      (fun b ->
        let s = Bitvec.create n in
        List.iter (fun i -> match Ir.def_of i with Some d -> define s d | None -> ()) b.Ir.body;
        s)
      fg.fg_blocks
  in
  let transfer i = function
    | Must_define.All -> Must_define.All
    | Must_define.Defined s ->
      let out = Bitvec.copy s in
      Bitvec.union_into out defs.(i);
      Must_define.Defined out
  in
  let boundary =
    if Array.length fg.fg_blocks = 0 then []
    else begin
      let params = Bitvec.create n in
      List.iter (define params) f.Ir.f_params;
      [ (0, Must_define.Defined params) ]
    end
  in
  let solved = Must_solver.solve ~boundary ~graph:fg.fg_graph ~transfer () in
  (fg, solved)
