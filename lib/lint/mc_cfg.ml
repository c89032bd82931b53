open Eric_rv

type node = {
  n_index : int;
  n_offset : int;
  n_size : int;
  n_inst : Inst.t option;
}

type t = {
  nodes : node array;
  index_of_offset : (int, int) Hashtbl.t;
  text_size : int;
}

let build (p : Program.t) =
  let parcels = Program.parcels p in
  let offsets = Program.parcel_offsets p in
  let index_of_offset = Hashtbl.create (Array.length parcels) in
  let nodes =
    Array.mapi
      (fun i parcel ->
        Hashtbl.replace index_of_offset offsets.(i) i;
        { n_index = i;
          n_offset = offsets.(i);
          n_size = Program.parcel_size parcel;
          n_inst = Program.decode_parcel parcel })
      parcels
  in
  { nodes; index_of_offset; text_size = Program.text_size p }

let node_at t offset =
  match Hashtbl.find_opt t.index_of_offset offset with
  | Some i -> Some t.nodes.(i)
  | None -> None

type flow =
  | Next
  | Jump of int
  | Cond of int
  | Call of int
  | Return
  | Indirect
  | Indirect_call

let flow_of node =
  match node.n_inst with
  | None -> Next
  | Some inst -> (
    match inst with
    | Inst.Branch (_, _, _, disp) -> Cond (node.n_offset + disp)
    | Inst.Jal (rd, disp) ->
      if Reg.equal rd Reg.x0 then Jump (node.n_offset + disp) else Call (node.n_offset + disp)
    | Inst.Jalr (rd, rs1, imm) ->
      if Reg.equal rd Reg.x0 then
        if Reg.equal rs1 Reg.ra && imm = 0 then Return else Indirect
      else Indirect_call
    | _ -> Next)

let targets_of_flow = function
  | Jump t | Cond t | Call t -> [ t ]
  | Next | Return | Indirect | Indirect_call -> []

let falls_through = function
  | Next | Cond _ | Call _ | Indirect_call -> true
  | Jump _ | Return | Indirect -> false

(* The fallthrough successor is the *next parcel boundary*, i.e. the
   node's own offset plus its 2- or 4-byte size — never a fixed +4.  A
   compressed call ([c.jalr]) at the end of a block hands control to the
   parcel two bytes later; getting this wrong silently detaches every
   block that follows a compressed terminator. *)
let fallthrough t node =
  if falls_through (flow_of node) then
    let o = node.n_offset + node.n_size in
    if o < t.text_size then Some o else None
  else None

let succ_offsets t node =
  let targets =
    List.filter
      (fun o -> o >= 0 && o < t.text_size && Hashtbl.mem t.index_of_offset o)
      (targets_of_flow (flow_of node))
  in
  match fallthrough t node with Some o -> o :: targets | None -> targets

let call_sites t =
  Array.fold_right
    (fun node acc ->
      match flow_of node with Call target -> (node.n_offset, target) :: acc | _ -> acc)
    t.nodes []

(* ------------------------------------------------------------------ *)
(* Basic blocks                                                        *)
(* ------------------------------------------------------------------ *)

type block = {
  bb_index : int;
  bb_first : int;
  bb_last : int;
  bb_succs : int list;
}

type blocks = { blocks : block array; block_of_node : int array }

let basic_blocks t =
  let n = Array.length t.nodes in
  if n = 0 then { blocks = [||]; block_of_node = [||] }
  else begin
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iter
      (fun node ->
        let f = flow_of node in
        List.iter
          (fun target ->
            match Hashtbl.find_opt t.index_of_offset target with
            | Some i -> leader.(i) <- true
            | None -> () (* misaligned/out-of-section: verifier's business *))
          (targets_of_flow f);
        match f with
        | Next -> ()
        | _ -> (
          (* Any control-transfer parcel ends its block; whatever sits at
             the next boundary (2 bytes later for RVC) starts a new one. *)
          match Hashtbl.find_opt t.index_of_offset (node.n_offset + node.n_size) with
          | Some i -> leader.(i) <- true
          | None -> ()))
      t.nodes;
    let block_of_node = Array.make n 0 in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) && i > 0 then incr count;
      block_of_node.(i) <- !count
    done;
    let nblocks = !count + 1 in
    let first = Array.make nblocks max_int and last = Array.make nblocks 0 in
    for i = 0 to n - 1 do
      let b = block_of_node.(i) in
      if i < first.(b) then first.(b) <- i;
      if i > last.(b) then last.(b) <- i
    done;
    let blocks =
      Array.init nblocks (fun b ->
          let last_node = t.nodes.(last.(b)) in
          let offsets =
            (* A call resumes at its fallthrough; the callee entry is an
               interprocedural boundary, not an intra-CFG successor. *)
            match flow_of last_node with
            | Call _ -> ( match fallthrough t last_node with Some o -> [ o ] | None -> [])
            | _ -> succ_offsets t last_node
          in
          let succs =
            List.filter_map
              (fun o ->
                match Hashtbl.find_opt t.index_of_offset o with
                | Some i -> Some block_of_node.(i)
                | None -> None)
              offsets
          in
          { bb_index = b; bb_first = first.(b); bb_last = last.(b);
            bb_succs = List.sort_uniq compare succs })
    in
    { blocks; block_of_node }
  end
