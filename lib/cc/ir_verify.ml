open Ir
module Diag = Eric_lint.Diag
module Iset = Set.Make (Int)

let loc ~func ~block ?index () = Diag.Ir_loc { func; block; index }

(* ------------------------------------------------------------------ *)
(* CFG integrity                                                        *)
(* ------------------------------------------------------------------ *)

let cfg_checks (f : func) =
  let fn = f.f_name in
  match f.f_blocks with
  | [] -> [ Diag.errorf ~check:"ir.cfg.empty" "function %s has no basic blocks" fn ]
  | entry :: _ ->
    let labels = Hashtbl.create 16 in
    let dups =
      List.filter_map
        (fun b ->
          if Hashtbl.mem labels b.b_label then
            Some
              (Diag.errorf ~loc:(loc ~func:fn ~block:b.b_label ()) ~check:"ir.cfg.duplicate-label"
                 "label L%d defined by more than one block" b.b_label)
          else begin
            Hashtbl.replace labels b.b_label b;
            None
          end)
        f.f_blocks
    in
    let unresolved =
      List.concat_map
        (fun b ->
          List.filter_map
            (fun target ->
              if Hashtbl.mem labels target then None
              else
                Some
                  (Diag.errorf ~loc:(loc ~func:fn ~block:b.b_label ())
                     ~check:"ir.cfg.unresolved-label" "terminator targets L%d, which no block defines"
                     target))
            (successors b.term))
        f.f_blocks
    in
    let reachable = Hashtbl.create 16 in
    let rec visit l =
      if not (Hashtbl.mem reachable l) then begin
        Hashtbl.replace reachable l ();
        match Hashtbl.find_opt labels l with
        | Some b -> List.iter visit (successors b.term)
        | None -> ()
      end
    in
    visit entry.b_label;
    let unreachable =
      List.filter_map
        (fun b ->
          if Hashtbl.mem reachable b.b_label then None
          else
            Some
              (Diag.notef ~loc:(loc ~func:fn ~block:b.b_label ()) ~check:"ir.cfg.unreachable-block"
                 "block L%d is unreachable from the entry" b.b_label))
        f.f_blocks
    in
    dups @ unresolved @ unreachable

(* ------------------------------------------------------------------ *)
(* Temps, slots, calls                                                  *)
(* ------------------------------------------------------------------ *)

let instr_temps i = (match def_of i with Some d -> [ d ] | None -> []) @ uses_of i

let local_checks (p : program) (f : func) =
  let fn = f.f_name in
  let slot_ids = List.map fst f.f_slots in
  let sig_of = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace sig_of g.f_name (List.length g.f_params)) p.p_funcs;
  let check_temp ~loc t =
    if t < 0 || t >= f.f_temp_count then
      Some
        (Diag.errorf ~loc ~check:"ir.temp.out-of-range" "t%d outside [0, %d)" t f.f_temp_count)
    else None
  in
  let param_diags =
    List.filter_map (fun t -> check_temp ~loc:(loc ~func:fn ~block:(-1) ()) t) f.f_params
  in
  let block_diags =
    List.concat_map
      (fun b ->
        let body_diags =
          List.concat (List.mapi
            (fun i instr ->
              let at = loc ~func:fn ~block:b.b_label ~index:i () in
              let temp_diags = List.filter_map (check_temp ~loc:at) (instr_temps instr) in
              let extra =
                match instr with
                | Addr_local (_, slot) when not (List.mem slot slot_ids) ->
                  [ Diag.errorf ~loc:at ~check:"ir.slot.unresolved"
                      "&slot%d: function declares no such frame slot" slot ]
                | Call (_, callee, args) -> (
                  match Hashtbl.find_opt sig_of callee with
                  | None ->
                    [ Diag.errorf ~loc:at ~check:"ir.call.unknown"
                        "call to %s, which is not a function of the program" callee ]
                  | Some arity when arity <> List.length args ->
                    [ Diag.errorf ~loc:at ~check:"ir.call.arity"
                        "%s takes %d argument%s, called with %d" callee arity
                        (if arity = 1 then "" else "s")
                        (List.length args) ]
                  | Some _ -> [])
                | _ -> []
              in
              temp_diags @ extra)
            b.body)
        in
        let term_diags =
          List.filter_map (check_temp ~loc:(loc ~func:fn ~block:b.b_label ())) (term_uses b.term)
        in
        body_diags @ term_diags)
      f.f_blocks
  in
  param_diags @ block_diags

(* ------------------------------------------------------------------ *)
(* Def-before-use dataflow                                              *)
(* ------------------------------------------------------------------ *)

(* Forward must-define analysis: a temp is definitely assigned at a point
   when every path from the entry writes it first.  Reads of temps that
   are written somewhere but not on every incoming path are warnings
   (MiniC, like C, allows reading an uninitialised local); reads of temps
   no instruction ever writes are errors.  The fixpoint itself is the
   {!Ir_dataflow.Must_define} instance of the shared worklist solver. *)
let dataflow_checks (f : func) =
  match f.f_blocks with
  | [] -> []
  | entry :: _ ->
    let fn = f.f_name in
    let defined_anywhere =
      List.fold_left
        (fun acc b ->
          List.fold_left
            (fun acc i -> match def_of i with Some d -> Iset.add d acc | None -> acc)
            acc b.body)
        (Iset.of_list f.f_params) f.f_blocks
    in
    let fg, solved = Ir_dataflow.must_define f in
    let in_of i =
      match solved.Ir_dataflow.Must_solver.input.(i) with
      | Ir_dataflow.Must_define.Defined s ->
        Iset.of_list (Ir_dataflow.Iset.elements s)
      | Ir_dataflow.Must_define.All -> defined_anywhere (* unreachable: unconstrained *)
    in
    (* Use-checks cover only reachable blocks: lowering's dead join blocks
       (already noted by [ir.cfg.unreachable-block]) have no incoming path
       to constrain what is defined, so checking them would be noise. *)
    let labels = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace labels b.b_label b) f.f_blocks;
    let reachable = Hashtbl.create 16 in
    let rec visit l =
      if not (Hashtbl.mem reachable l) then begin
        Hashtbl.replace reachable l ();
        match Hashtbl.find_opt labels l with
        | Some b -> List.iter visit (successors b.term)
        | None -> ()
      end
    in
    visit entry.b_label;
    let diags = ref [] in
    let reported = Hashtbl.create 8 in
    let check_use ~loc_ t defined =
      if not (Iset.mem t defined) && not (Hashtbl.mem reported t) then begin
        Hashtbl.replace reported t ();
        if Iset.mem t defined_anywhere then
          diags :=
            Diag.warningf ~loc:loc_ ~check:"ir.temp.maybe-undef"
              "t%d may be read before any assignment on some path" t
            :: !diags
        else
          diags :=
            Diag.errorf ~loc:loc_ ~check:"ir.temp.undef" "t%d is read but never assigned" t
            :: !diags
      end
    in
    Array.iteri
      (fun i b ->
        if Hashtbl.mem reachable b.b_label then begin
          let defined = ref (in_of i) in
          List.iteri
            (fun j instr ->
              let at = loc ~func:fn ~block:b.b_label ~index:j () in
              List.iter (fun t -> check_use ~loc_:at t !defined) (uses_of instr);
              match def_of instr with
              | Some d -> defined := Iset.add d !defined
              | None -> ())
            b.body;
          List.iter
            (fun t -> check_use ~loc_:(loc ~func:fn ~block:b.b_label ()) t !defined)
            (term_uses b.term)
        end)
      fg.Ir_dataflow.fg_blocks;
    List.rev !diags

let verify_func p f = Diag.sort (cfg_checks f @ local_checks p f @ dataflow_checks f)

let verify ?funcs (p : program) =
  Eric_telemetry.Span.with_ ~cat:"lint" ~name:"lint.ir_verify" @@ fun () ->
  List.concat_map (verify_func p) (Option.value funcs ~default:p.p_funcs)

let errors ds = List.filter (fun d -> d.Diag.severity = Diag.Error) ds
