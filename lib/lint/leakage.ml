open Eric_rv

type coverage = Clear | Enc_all | Enc32 of int32 | Enc16 of int

type report = {
  parcels : int;
  plaintext_parcels : int;
  plaintext_fraction : float;
  opcode_visible : int;
  opcode_visible_fraction : float;
  branch_sites : int;
  branch_offsets_plaintext : int;
  call_sites : int;
  call_edges_plaintext : int;
  prologues : int;
  prologues_plaintext : int;
}

(* Bit masks on the plaintext encodings, from the ISA formats. *)
let b_imm_mask32 = 0xFE000F80l (* B-type: bits 31, 30:25, 11:8, 7 *)
let j_imm_mask32 = 0xFFFFF000l (* J-type: bits 31:12 *)
let opcode_mask16 = 0xE003 (* quadrant [1:0] + funct3 [15:13] *)
let cb_imm_mask16 = 0x1C7C (* c.beqz/c.bnez offset: bits 12:10, 6:2 *)
let cj_imm_mask16 = 0x1FFC (* c.j offset: bits 12:2 *)
let prologue_keep32 = 0x000FFFFFl (* addi sp,sp,-N minus its I-immediate *)
let prologue_keep16 = 0xEF83 (* c.addi16sp minus its immediate bits *)

let fully_plaintext = function
  | Clear -> true
  | Enc_all -> false
  | Enc32 m -> m = 0l
  | Enc16 m -> m = 0

let masked32 cov field =
  (* Does any encrypted bit intersect [field]? *)
  match cov with
  | Clear -> false
  | Enc_all -> true
  | Enc32 m -> Int32.logand m field <> 0l
  | Enc16 _ -> true (* width mismatch: treat as hidden *)

let masked16 cov field =
  match cov with
  | Clear -> false
  | Enc_all -> true
  | Enc16 m -> m land field <> 0
  | Enc32 _ -> true

let opcode_hidden parcel cov =
  match parcel with
  | Program.P32 _ -> masked32 cov Encode.Field.opcode
  | Program.P16 _ -> masked16 cov opcode_mask16

let offset_field parcel inst =
  (* The bits of [parcel] that hold a control-flow displacement, if any. *)
  match (parcel, inst) with
  | Program.P32 _, Some (Inst.Branch _) -> Some (`M32 b_imm_mask32)
  | Program.P32 _, Some (Inst.Jal _) -> Some (`M32 j_imm_mask32)
  | Program.P16 _, Some (Inst.Branch _) -> Some (`M16 cb_imm_mask16)
  | Program.P16 _, Some (Inst.Jal _) -> Some (`M16 cj_imm_mask16)
  | _ -> None

let field_hidden cov = function
  | `M32 m -> masked32 cov m
  | `M16 m -> masked16 cov m

let is_call = function Some (Inst.Jal (rd, _)) -> Reg.equal rd Reg.ra | _ -> false

let is_prologue = function
  | Some (Inst.I (Inst.Addi, rd, rs1, imm)) ->
    Reg.equal rd Reg.sp && Reg.equal rs1 Reg.sp && imm < 0
  | _ -> false

let prologue_hidden parcel cov =
  match parcel with
  | Program.P32 _ -> masked32 cov prologue_keep32
  | Program.P16 _ -> masked16 cov prologue_keep16

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let analyze (p : Program.t) coverage =
  let parcels = Program.parcels p in
  if Array.length coverage <> Array.length parcels then
    invalid_arg "Leakage.analyze: coverage length <> parcel count";
  let plaintext = ref 0 and opcode = ref 0 in
  let branches = ref 0 and branches_clear = ref 0 in
  let calls = ref 0 and calls_clear = ref 0 in
  let prologues = ref 0 and prologues_clear = ref 0 in
  Array.iteri
    (fun i parcel ->
      let cov = coverage.(i) in
      let inst = Program.decode_parcel parcel in
      if fully_plaintext cov then incr plaintext;
      let opc_visible = not (opcode_hidden parcel cov) in
      if opc_visible then incr opcode;
      (match offset_field parcel inst with
      | Some field ->
        incr branches;
        if opc_visible && not (field_hidden cov field) then incr branches_clear
      | None -> ());
      if is_call inst then begin
        incr calls;
        match offset_field parcel inst with
        | Some field when opc_visible && not (field_hidden cov field) -> incr calls_clear
        | _ -> ()
      end;
      if is_prologue inst then begin
        incr prologues;
        if not (prologue_hidden parcel cov) then incr prologues_clear
      end)
    parcels;
  let parcels = Array.length parcels in
  { parcels;
    plaintext_parcels = !plaintext;
    plaintext_fraction = frac !plaintext parcels;
    opcode_visible = !opcode;
    opcode_visible_fraction = frac !opcode parcels;
    branch_sites = !branches;
    branch_offsets_plaintext = !branches_clear;
    call_sites = !calls;
    call_edges_plaintext = !calls_clear;
    prologues = !prologues;
    prologues_plaintext = !prologues_clear }

let report_to_json r =
  let module J = Eric_telemetry.Json in
  let int v = J.Num (float_of_int v) in
  J.Obj
    [ ("parcels", int r.parcels);
      ("plaintext_parcels", int r.plaintext_parcels);
      ("plaintext_fraction", J.Num r.plaintext_fraction);
      ("opcode_visible", int r.opcode_visible);
      ("opcode_visible_fraction", J.Num r.opcode_visible_fraction);
      ("branch_sites", int r.branch_sites);
      ("branch_offsets_plaintext", int r.branch_offsets_plaintext);
      ("call_sites", int r.call_sites);
      ("call_edges_plaintext", int r.call_edges_plaintext);
      ("prologues", int r.prologues);
      ("prologues_plaintext", int r.prologues_plaintext) ]

(* ------------------------------------------------------------------ *)
(* Attacker hierarchy: recovered-structure scoring                      *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

module Eset = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type attacker = Linear | Recursive

let attacker_to_string = function Linear -> "linear" | Recursive -> "recursive"

let attacker_of_string = function
  | "linear" -> Some Linear
  | "recursive" -> Some Recursive
  | _ -> None

type truth = {
  t_code : Iset.t;
  t_functions : Iset.t;
  t_branch_targets : Iset.t;
  t_call_edges : Eset.t;
  t_indirect : Iset.t;
}

(* Assembler convention: labels starting with '.' are local (block
   labels), everything else names a function entry. *)
let is_local_symbol name = String.length name > 0 && name.[0] = '.'

let truth_of_cfg (p : Program.t) (cfg : Mc_cfg.t) =
  let code = ref Iset.empty and targets = ref Iset.empty in
  let edges = ref Eset.empty and indirect = ref Iset.empty in
  Array.iter
    (fun (n : Mc_cfg.node) ->
      (match n.Mc_cfg.n_inst with
      | Some _ -> code := Iset.add n.Mc_cfg.n_offset !code
      | None -> ());
      match Mc_cfg.flow_of n with
      | Mc_cfg.Jump t | Mc_cfg.Cond t ->
        if Mc_cfg.node_at cfg t <> None then targets := Iset.add t !targets
      | Mc_cfg.Call t ->
        if Mc_cfg.node_at cfg t <> None then begin
          targets := Iset.add t !targets;
          edges := Eset.add (n.Mc_cfg.n_offset, t) !edges
        end
      | Mc_cfg.Return | Mc_cfg.Indirect | Mc_cfg.Indirect_call ->
        indirect := Iset.add n.Mc_cfg.n_offset !indirect
      | Mc_cfg.Next -> ())
    cfg.Mc_cfg.nodes;
  let functions =
    List.fold_left
      (fun acc (name, off) ->
        if is_local_symbol name || Mc_cfg.node_at cfg off = None then acc
        else Iset.add off acc)
      (Iset.singleton p.Program.entry_offset)
      p.Program.symbols
  in
  { t_code = !code;
    t_functions = functions;
    t_branch_targets = !targets;
    t_call_edges = !edges;
    t_indirect = !indirect }

let truth_of (p : Program.t) = truth_of_cfg p (Mc_cfg.build p)

type structure = {
  s_attacker : attacker;
  code_found : int;
  code_total : int;
  functions_found : int;
  functions_total : int;
  branch_targets_found : int;
  branch_targets_total : int;
  call_edges_found : int;
  call_edges_total : int;
  indirect_resolved : int;
  indirect_total : int;
  structure_score : float;
}

type recovered = {
  mutable r_code : Iset.t;
  mutable r_functions : Iset.t;
  mutable r_targets : Iset.t;
  mutable r_edges : Eset.t;
  mutable r_resolved : Iset.t;
}

(* Can the attacker read this parcel's control-flow displacement?  The
   same condition the linear report uses for branch_offsets_plaintext:
   opcode bits and the offset field both ship in the clear. *)
let flow_visible parcel inst cov =
  match offset_field parcel inst with
  | Some field -> (not (opcode_hidden parcel cov)) && not (field_hidden cov field)
  | None -> false

(* What a linear sweep classifies without following any edge: legible
   parcels are code, legible displacements give targets and call edges
   (a revealed call target is a known function entry), visible
   [addi sp,sp,-N] prologues mark function starts. *)
let scan_linear parcels (cfg : Mc_cfg.t) coverage =
  let r =
    { r_code = Iset.empty;
      r_functions = Iset.empty;
      r_targets = Iset.empty;
      r_edges = Eset.empty;
      r_resolved = Iset.empty }
  in
  Array.iteri
    (fun i (n : Mc_cfg.node) ->
      let cov = coverage.(i) in
      let parcel = parcels.(i) in
      let inst = n.Mc_cfg.n_inst in
      let full = fully_plaintext cov && inst <> None in
      let flow_vis = flow_visible parcel inst cov in
      if full || flow_vis then r.r_code <- Iset.add n.Mc_cfg.n_offset r.r_code;
      if flow_vis then begin
        match Mc_cfg.flow_of n with
        | Mc_cfg.Jump t | Mc_cfg.Cond t ->
          if Mc_cfg.node_at cfg t <> None then r.r_targets <- Iset.add t r.r_targets
        | Mc_cfg.Call t ->
          if Mc_cfg.node_at cfg t <> None then begin
            r.r_targets <- Iset.add t r.r_targets;
            r.r_functions <- Iset.add t r.r_functions;
            r.r_edges <- Eset.add (n.Mc_cfg.n_offset, t) r.r_edges
          end
        | _ -> ()
      end;
      if is_prologue inst && not (prologue_hidden parcel cov) then
        r.r_functions <- Iset.add n.Mc_cfg.n_offset r.r_functions)
    cfg.Mc_cfg.nodes;
  r

(* Recursive descent: start from the entry offset (plaintext in the
   package header), follow every legible edge, link returns back to the
   fallthrough of discovered call sites, and run the value-set analysis
   over the legible parcels to resolve computed [jalr] targets.  The
   linear sweep runs first as the fallback classification of parcels the
   traversal never reaches, so every component is a superset of the
   linear attacker's. *)
let scan_recursive (p : Program.t) parcels (cfg : Mc_cfg.t) coverage =
  let r = scan_linear parcels cfg coverage in
  let visited = Array.make (Array.length cfg.Mc_cfg.nodes) false in
  let queue = Queue.create () in
  let callers : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let push off =
    match Mc_cfg.node_at cfg off with
    | Some n when not visited.(n.Mc_cfg.n_index) -> Queue.add n queue
    | _ -> ()
  in
  r.r_functions <- Iset.add p.Program.entry_offset r.r_functions;
  push p.Program.entry_offset;
  let step (n : Mc_cfg.node) =
    if not visited.(n.Mc_cfg.n_index) then begin
      visited.(n.Mc_cfg.n_index) <- true;
      let cov = coverage.(n.Mc_cfg.n_index) in
      let parcel = parcels.(n.Mc_cfg.n_index) in
      let inst = n.Mc_cfg.n_inst in
      let full = fully_plaintext cov && inst <> None in
      let flow_vis = flow_visible parcel inst cov in
      if full || flow_vis then begin
        r.r_code <- Iset.add n.Mc_cfg.n_offset r.r_code;
        let fallthrough () = Option.iter push (Mc_cfg.fallthrough cfg n) in
        match Mc_cfg.flow_of n with
        | Mc_cfg.Next -> if full then fallthrough ()
        | Mc_cfg.Jump t ->
          if Mc_cfg.node_at cfg t <> None then r.r_targets <- Iset.add t r.r_targets;
          push t
        | Mc_cfg.Cond t ->
          if Mc_cfg.node_at cfg t <> None then r.r_targets <- Iset.add t r.r_targets;
          push t;
          fallthrough ()
        | Mc_cfg.Call t ->
          if Mc_cfg.node_at cfg t <> None then begin
            r.r_targets <- Iset.add t r.r_targets;
            r.r_functions <- Iset.add t r.r_functions;
            r.r_edges <- Eset.add (n.Mc_cfg.n_offset, t) r.r_edges;
            Hashtbl.replace callers t ()
          end;
          push t;
          fallthrough ()
        | Mc_cfg.Return | Mc_cfg.Indirect -> ()
        | Mc_cfg.Indirect_call -> if full then fallthrough ()
      end
      (* An opaque parcel ends the traversal: the attacker cannot even
         frame what follows it with confidence. *)
    end
  in
  let drain () =
    while not (Queue.is_empty queue) do
      step (Queue.take queue)
    done
  in
  drain ();
  (* Value-set rounds: resolving a computed jump may expose new code,
     which may in turn make more sites resolvable. *)
  let visible i = fully_plaintext coverage.(i) in
  let continue = ref true and rounds = ref 0 in
  while !continue && !rounds < 3 do
    incr rounds;
    continue := false;
    let entries = Iset.elements r.r_functions in
    let res = Mc_dataflow.analyze ~visible cfg ~entries in
    List.iter
      (fun { Mc_dataflow.site_offset; targets } ->
        match Mc_cfg.node_at cfg site_offset with
        | Some n when visited.(n.Mc_cfg.n_index) && targets <> [] ->
          if not (Iset.mem site_offset r.r_resolved) then begin
            r.r_resolved <- Iset.add site_offset r.r_resolved;
            List.iter
              (fun t ->
                r.r_targets <- Iset.add t r.r_targets;
                push t)
              targets;
            continue := true
          end
        | _ -> ())
      res.Mc_dataflow.resolutions;
    if !continue then drain ()
  done;
  (* Return linking: a visited [ret] inside a function with a discovered
     call site resumes at that call's fallthrough — resolved. *)
  Array.iter
    (fun (n : Mc_cfg.node) ->
      if visited.(n.Mc_cfg.n_index) && Mc_cfg.flow_of n = Mc_cfg.Return then
        match Iset.find_last_opt (fun f -> f <= n.Mc_cfg.n_offset) r.r_functions with
        | Some entry when Hashtbl.mem callers entry ->
          r.r_resolved <- Iset.add n.Mc_cfg.n_offset r.r_resolved
        | _ -> ())
    cfg.Mc_cfg.nodes;
  r

let score_against attacker truth r =
  let icard = Iset.cardinal in
  let inter a b = icard (Iset.inter a b) in
  let code_found = inter r.r_code truth.t_code in
  let functions_found = inter r.r_functions truth.t_functions in
  let branch_targets_found = inter r.r_targets truth.t_branch_targets in
  let call_edges_found = Eset.cardinal (Eset.inter r.r_edges truth.t_call_edges) in
  let indirect_resolved = inter r.r_resolved truth.t_indirect in
  let code_total = icard truth.t_code in
  let functions_total = icard truth.t_functions in
  let branch_targets_total = icard truth.t_branch_targets in
  let call_edges_total = Eset.cardinal truth.t_call_edges in
  let indirect_total = icard truth.t_indirect in
  let comp found total = if total = 0 then None else Some (frac found total) in
  let comps =
    List.filter_map Fun.id
      [ comp code_found code_total;
        comp functions_found functions_total;
        comp branch_targets_found branch_targets_total;
        comp call_edges_found call_edges_total;
        comp indirect_resolved indirect_total ]
  in
  let structure_score =
    match comps with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  { s_attacker = attacker;
    code_found;
    code_total;
    functions_found;
    functions_total;
    branch_targets_found;
    branch_targets_total;
    call_edges_found;
    call_edges_total;
    indirect_resolved;
    indirect_total;
    structure_score }

let recover attacker (p : Program.t) coverage =
  let parcels = Program.parcels p in
  if Array.length coverage <> Array.length parcels then
    invalid_arg "Leakage.recover: coverage length <> parcel count";
  Eric_telemetry.Span.with_ ~cat:"lint" ~name:"lint.attacker" @@ fun () ->
  let cfg = Mc_cfg.build p in
  let truth = truth_of_cfg p cfg in
  let r =
    match attacker with
    | Linear -> scan_linear parcels cfg coverage
    | Recursive -> scan_recursive p parcels cfg coverage
  in
  score_against attacker truth r

(* Jaccard scoring against a caller-supplied truth.  Used to grade
   obfuscating transforms: on a plain image the attacker reads every
   byte, so recall against any truth is 1.0 and the honest number is
   instead how much planted decoy structure it swallowed alongside the
   real program — per component, found = |R ∩ T| and total = |R ∪ T|,
   which penalises every recovered fact outside the (real-only) truth. *)
let jaccard_against attacker truth r =
  let comp_i rec_ tru =
    (Iset.cardinal (Iset.inter rec_ tru), Iset.cardinal (Iset.union rec_ tru))
  in
  let code_found, code_total = comp_i r.r_code truth.t_code in
  let functions_found, functions_total = comp_i r.r_functions truth.t_functions in
  let branch_targets_found, branch_targets_total =
    comp_i r.r_targets truth.t_branch_targets
  in
  let call_edges_found =
    Eset.cardinal (Eset.inter r.r_edges truth.t_call_edges)
  in
  let call_edges_total = Eset.cardinal (Eset.union r.r_edges truth.t_call_edges) in
  let indirect_resolved, indirect_total = comp_i r.r_resolved truth.t_indirect in
  let comp found total = if total = 0 then None else Some (frac found total) in
  let comps =
    List.filter_map Fun.id
      [ comp code_found code_total;
        comp functions_found functions_total;
        comp branch_targets_found branch_targets_total;
        comp call_edges_found call_edges_total;
        comp indirect_resolved indirect_total ]
  in
  let structure_score =
    match comps with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  { s_attacker = attacker;
    code_found;
    code_total;
    functions_found;
    functions_total;
    branch_targets_found;
    branch_targets_total;
    call_edges_found;
    call_edges_total;
    indirect_resolved;
    indirect_total;
    structure_score }

let recover_against attacker ~truth (p : Program.t) coverage =
  let parcels = Program.parcels p in
  if Array.length coverage <> Array.length parcels then
    invalid_arg "Leakage.recover_against: coverage length <> parcel count";
  Eric_telemetry.Span.with_ ~cat:"lint" ~name:"lint.attacker" @@ fun () ->
  let cfg = Mc_cfg.build p in
  let r =
    match attacker with
    | Linear -> scan_linear parcels cfg coverage
    | Recursive -> scan_recursive p parcels cfg coverage
  in
  jaccard_against attacker truth r

let structure_to_json s =
  let module J = Eric_telemetry.Json in
  let int v = J.Num (float_of_int v) in
  J.Obj
    [ ("attacker", J.Str (attacker_to_string s.s_attacker));
      ("code_found", int s.code_found);
      ("code_total", int s.code_total);
      ("functions_found", int s.functions_found);
      ("functions_total", int s.functions_total);
      ("branch_targets_found", int s.branch_targets_found);
      ("branch_targets_total", int s.branch_targets_total);
      ("call_edges_found", int s.call_edges_found);
      ("call_edges_total", int s.call_edges_total);
      ("indirect_resolved", int s.indirect_resolved);
      ("indirect_total", int s.indirect_total);
      ("score", J.Num s.structure_score) ]

let advisory = 0.25

let lint ?(max_leakage = 1.0) p coverage =
  let r = analyze p coverage in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if r.parcels > 0 && r.plaintext_parcels = r.parcels then
    emit
      (Diag.errorf ~check:"leak.policy.empty"
         "policy encrypts nothing: all %d parcels ship plaintext" r.parcels)
  else begin
    let graded ~check ~what fraction detail =
      if fraction > max_leakage then
        emit
          (Diag.errorf ~check "%s: %.0f%% %s exceeds --max-leakage %.0f%%" what
             (100. *. fraction) detail (100. *. max_leakage))
      else if fraction > advisory then
        emit (Diag.warningf ~check "%s: %.0f%% %s" what (100. *. fraction) detail)
    in
    graded ~check:"leak.text.plaintext" ~what:"plaintext parcels" r.plaintext_fraction
      "of the text section is fully legible";
    graded ~check:"leak.opcode.visible" ~what:"opcode bits" r.opcode_visible_fraction
      "of opcodes are legible (opcode histogram recoverable)";
    graded ~check:"leak.cfg.branch-offsets" ~what:"branch offsets"
      (frac r.branch_offsets_plaintext r.branch_sites)
      "of branch/jump displacements are legible (CFG recoverable)";
    if r.call_edges_plaintext > 0 then begin
      let f = frac r.call_edges_plaintext r.call_sites in
      if f > max_leakage then
        emit
          (Diag.errorf ~check:"leak.call.edges"
             "%d of %d call edges legible; exceeds --max-leakage %.0f%%"
             r.call_edges_plaintext r.call_sites (100. *. max_leakage))
      else
        emit
          (Diag.warningf ~check:"leak.call.edges" "%d of %d call edges legible to a linear sweep"
             r.call_edges_plaintext r.call_sites)
    end;
    if r.prologues_plaintext > 0 then begin
      let f = frac r.prologues_plaintext r.prologues in
      if f > max_leakage then
        emit
          (Diag.errorf ~check:"leak.func.prologues"
             "%d of %d function prologues legible; exceeds --max-leakage %.0f%%"
             r.prologues_plaintext r.prologues (100. *. max_leakage))
      else
        emit
          (Diag.warningf ~check:"leak.func.prologues"
             "%d of %d function prologues legible (function boundaries recoverable)"
             r.prologues_plaintext r.prologues)
    end
  end;
  (r, Diag.sort !diags)

let structure_diags ?(max_leakage = 1.0) s =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let f = s.structure_score in
  let who = attacker_to_string s.s_attacker in
  if f > max_leakage then
    emit
      (Diag.errorf ~check:"leak.struct.recovered"
         "%s attacker recovers %.0f%% of program structure; exceeds --max-leakage %.0f%%" who
         (100. *. f) (100. *. max_leakage))
  else if f > advisory then
    emit
      (Diag.warningf ~check:"leak.struct.recovered"
         "%s attacker recovers %.0f%% of program structure (code %d/%d, functions %d/%d, \
          branch targets %d/%d, call edges %d/%d)"
         who (100. *. f) s.code_found s.code_total s.functions_found s.functions_total
         s.branch_targets_found s.branch_targets_total s.call_edges_found s.call_edges_total);
  if s.indirect_resolved > 0 then
    emit
      (Diag.notef ~check:"leak.struct.indirect"
         "%d of %d indirect control transfers resolved statically (%s attacker)"
         s.indirect_resolved s.indirect_total who);
  Diag.sort !diags
