open Ir
module Diag = Eric_lint.Diag
module Bitvec = Eric_util.Bitvec

let loc ~func ~block ?index () = Diag.Ir_loc { func; block; index }

(* ------------------------------------------------------------------ *)
(* CFG integrity                                                        *)
(* ------------------------------------------------------------------ *)

(* [fg] resolves a label to its first block.  A block counts as reached
   when the must-define solve reaches the first block of its label: the
   solve's input is [All] exactly where no path from the entry leads. *)
let cfg_checks (f : func) (fg : Ir_dataflow.func_graph) ~reached =
  let fn = f.f_name in
  let index = fg.Ir_dataflow.fg_index in
  let blocks = f.f_blocks in
  let dups =
    List.filteri (fun i b -> Hashtbl.find index b.b_label <> i) blocks
    |> List.map (fun b ->
           Diag.errorf ~loc:(loc ~func:fn ~block:b.b_label ()) ~check:"ir.cfg.duplicate-label"
             "label L%d defined by more than one block" b.b_label)
  in
  let unresolved =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun target ->
            if Hashtbl.mem index target then None
            else
              Some
                (Diag.errorf ~loc:(loc ~func:fn ~block:b.b_label ())
                   ~check:"ir.cfg.unresolved-label" "terminator targets L%d, which no block defines"
                   target))
          (successors b.term))
      blocks
  in
  let unreachable =
    List.filter_map
      (fun b ->
        if reached (Hashtbl.find index b.b_label) then None
        else
          Some
            (Diag.notef ~loc:(loc ~func:fn ~block:b.b_label ()) ~check:"ir.cfg.unreachable-block"
               "block L%d is unreachable from the entry" b.b_label))
      blocks
  in
  dups @ unresolved @ unreachable

(* ------------------------------------------------------------------ *)
(* Temps, slots, calls                                                  *)
(* ------------------------------------------------------------------ *)

(* The checks below walk every instruction, so they keep the position
   being checked in two counters and build a location only for a
   diagnostic they report; index -1 stands for the terminator. *)
let at ~func ~block ~index =
  if index < 0 then loc ~func ~block () else loc ~func ~block ~index ()

let local_checks sig_of (f : func) =
  let fn = f.f_name in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let block = ref (-1) and index = ref (-1) in
  let here () = at ~func:fn ~block:!block ~index:!index in
  let check_temp t =
    if t < 0 || t >= f.f_temp_count then
      emit
        (Diag.errorf ~loc:(here ()) ~check:"ir.temp.out-of-range" "t%d outside [0, %d)" t
           f.f_temp_count)
  in
  List.iter check_temp f.f_params;
  List.iter
    (fun b ->
      block := b.b_label;
      List.iteri
        (fun i instr ->
          index := i;
          (match def_of instr with Some d -> check_temp d | None -> ());
          iter_uses check_temp instr;
          match instr with
          | Addr_local (_, slot) when not (List.exists (fun (s, _) -> s = slot) f.f_slots) ->
            emit
              (Diag.errorf ~loc:(here ()) ~check:"ir.slot.unresolved"
                 "&slot%d: function declares no such frame slot" slot)
          | Call (_, callee, args) -> (
            match Hashtbl.find_opt sig_of callee with
            | None ->
              emit
                (Diag.errorf ~loc:(here ()) ~check:"ir.call.unknown"
                   "call to %s, which is not a function of the program" callee)
            | Some arity when arity <> List.length args ->
              emit
                (Diag.errorf ~loc:(here ()) ~check:"ir.call.arity"
                   "%s takes %d argument%s, called with %d" callee arity
                   (if arity = 1 then "" else "s")
                   (List.length args))
            | Some _ -> ())
          | _ -> ())
        b.body;
      index := -1;
      iter_term_uses check_temp b.term)
    f.f_blocks;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Def-before-use dataflow                                              *)
(* ------------------------------------------------------------------ *)

(* Forward must-define analysis: a temp is definitely assigned at a point
   when every path from the entry writes it first.  Reads of temps that
   are written somewhere but not on every incoming path are warnings
   (MiniC, like C, allows reading an uninitialised local); reads of temps
   no instruction ever writes are errors.  The fixpoint itself is the
   {!Ir_dataflow.Must_define} instance of the shared worklist solver, and
   its sets are read here directly. *)
let dataflow_checks (f : func) (fg : Ir_dataflow.func_graph) (solved : Ir_dataflow.Must_solver.result)
    ~reached =
  let fn = f.f_name in
  let define s t = if t >= 0 then Bitvec.add s t in
  let defined_anywhere = Bitvec.create (Ir_dataflow.temp_bound f) in
  List.iter (define defined_anywhere) f.f_params;
  List.iter
    (fun b ->
      List.iter (fun i -> match def_of i with Some d -> define defined_anywhere d | None -> ()) b.body)
    f.f_blocks;
  let diags = ref [] in
  let reported = Hashtbl.create 8 in
  let block = ref 0 and index = ref (-1) and defined = ref defined_anywhere in
  let check_use t =
    if (not (Bitvec.mem !defined t)) && not (Hashtbl.mem reported t) then begin
      Hashtbl.replace reported t ();
      let loc = at ~func:fn ~block:!block ~index:!index in
      diags :=
        (if Bitvec.mem defined_anywhere t then
           Diag.warningf ~loc ~check:"ir.temp.maybe-undef"
             "t%d may be read before any assignment on some path" t
         else Diag.errorf ~loc ~check:"ir.temp.undef" "t%d is read but never assigned" t)
        :: !diags
    end
  in
  (* Use-checks cover only reached blocks: lowering's dead join blocks
     (already noted by [ir.cfg.unreachable-block]) have no incoming path
     to constrain what is defined, so checking them would be noise. *)
  Array.iteri
    (fun i b ->
      if reached (Hashtbl.find fg.Ir_dataflow.fg_index b.b_label) then begin
        (defined :=
           match solved.Ir_dataflow.Must_solver.input.(i) with
           | Ir_dataflow.Must_define.Defined s -> Bitvec.copy s
           | Ir_dataflow.Must_define.All ->
             (* a later block with a reached block's label: unconstrained *)
             Bitvec.copy defined_anywhere);
        block := b.b_label;
        List.iteri
          (fun j instr ->
            index := j;
            iter_uses check_use instr;
            match def_of instr with Some d -> define !defined d | None -> ())
          b.body;
        index := -1;
        iter_term_uses check_use b.term
      end)
    fg.Ir_dataflow.fg_blocks;
  List.rev !diags

let verify_func (p : program) =
  let sig_of = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace sig_of g.f_name (List.length g.f_params)) p.p_funcs;
  fun f ->
    let locals = local_checks sig_of f in
    match f.f_blocks with
    | [] ->
      Diag.sort
        (Diag.errorf ~check:"ir.cfg.empty" "function %s has no basic blocks" f.f_name :: locals)
    | _ :: _ ->
      let fg, solved = Ir_dataflow.must_define f in
      let reached i =
        match solved.Ir_dataflow.Must_solver.input.(i) with
        | Ir_dataflow.Must_define.Defined _ -> true
        | Ir_dataflow.Must_define.All -> false
      in
      Diag.sort (cfg_checks f fg ~reached @ locals @ dataflow_checks f fg solved ~reached)

let verify ?funcs (p : program) =
  Eric_telemetry.Span.with_ ~cat:"lint" ~name:"lint.ir_verify" @@ fun () ->
  List.concat_map (verify_func p) (Option.value funcs ~default:p.p_funcs)

let errors ds = List.filter (fun d -> d.Diag.severity = Diag.Error) ds
