open Tast

type ctx = {
  mutable rev_blocks : Ir.block list;
  mutable cur_label : Ir.label;
  mutable cur_body : Ir.instr list;  (** reversed *)
  mutable open_ : bool;  (** is a block currently being filled? *)
  mutable next_label : int;
  mutable next_temp : int;
  mutable slots : (int * int) list;  (** slot id, size *)
  mutable next_slot : int;
  local_map :
    (int, [ `Temp of Ir.temp | `Slot of int | `Slot_scalar of int * Ir.width ]) Hashtbl.t;
  global_ty : (string, Ast.ty) Hashtbl.t;  (** scalar globals: their type *)
  mutable loop_stack : (Ir.label * Ir.label) list;  (** continue, break *)
  strings : (string, string) Hashtbl.t;  (** literal -> symbol *)
  mutable rev_data : (string * bytes) list;
  mutable next_string : int;
}

let fresh_temp ctx =
  let t = ctx.next_temp in
  ctx.next_temp <- t + 1;
  t

let fresh_label ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

let emit ctx i = if ctx.open_ then ctx.cur_body <- i :: ctx.cur_body else ()

let seal ctx term =
  if ctx.open_ then begin
    ctx.rev_blocks <-
      { Ir.b_label = ctx.cur_label; body = List.rev ctx.cur_body; term } :: ctx.rev_blocks;
    ctx.open_ <- false
  end

let start_block ctx label =
  if ctx.open_ then seal ctx (Ir.Jmp label);
  ctx.cur_label <- label;
  ctx.cur_body <- [];
  ctx.open_ <- true

let width_of_ty ty : Ir.width = if ty = Ast.T_char then Ir.W8 else Ir.W64

let intern_string ctx s =
  match Hashtbl.find_opt ctx.strings s with
  | Some sym -> sym
  | None ->
    let sym = Printf.sprintf "__str_%d" ctx.next_string in
    ctx.next_string <- ctx.next_string + 1;
    Hashtbl.replace ctx.strings s sym;
    (* NUL-terminated, C style. *)
    ctx.rev_data <- (sym, Bytes.of_string (s ^ "\000")) :: ctx.rev_data;
    sym

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_map : Ast.binop -> Ir.binop = function
  | Add -> Ir.Add | Sub -> Ir.Sub | Mul -> Ir.Mul | Div -> Ir.Div | Rem -> Ir.Rem
  | Shl -> Ir.Shl | Shr -> Ir.Shr
  | Band -> Ir.And | Bor -> Ir.Or | Bxor -> Ir.Xor
  | Lt -> Ir.Slt | Le -> Ir.Sle | Gt -> Ir.Sgt | Ge -> Ir.Sge | Eq -> Ir.Seq | Ne -> Ir.Sne
  | Land | Lor -> invalid_arg "binop_map: short-circuit operators lower to control flow"

let rec lower_expr ctx (e : texpr) : Ir.value =
  match e.te with
  | TE_int v -> Ir.Imm v
  | TE_str s ->
    let sym = intern_string ctx s in
    let t = fresh_temp ctx in
    emit ctx (Ir.Addr_global (t, sym));
    Ir.Temp t
  | TE_local id -> (
    match Hashtbl.find ctx.local_map id with
    | `Temp t -> Ir.Temp t
    | `Slot_scalar (slot, w) ->
      let addr = fresh_temp ctx in
      emit ctx (Ir.Addr_local (addr, slot));
      let t = fresh_temp ctx in
      emit ctx (Ir.Load (w, t, Ir.Temp addr));
      Ir.Temp t
    | `Slot _ -> invalid_arg "lower_expr: scalar read of an array local")
  | TE_global name ->
    let addr = fresh_temp ctx in
    emit ctx (Ir.Addr_global (addr, name));
    let t = fresh_temp ctx in
    emit ctx (Ir.Load (width_of_ty (Hashtbl.find ctx.global_ty name), t, Ir.Temp addr));
    Ir.Temp t
  | TE_addr_local id -> (
    match Hashtbl.find ctx.local_map id with
    | `Slot s | `Slot_scalar (s, _) ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Addr_local (t, s));
      Ir.Temp t
    | `Temp _ -> invalid_arg "lower_expr: address of a register-resident local")
  | TE_addr_global name ->
    let t = fresh_temp ctx in
    emit ctx (Ir.Addr_global (t, name));
    Ir.Temp t
  | TE_unop (op, inner) -> (
    let v = lower_expr ctx inner in
    let t = fresh_temp ctx in
    (match op with
    | Ast.Neg -> emit ctx (Ir.Bin (Ir.Sub, t, Ir.Imm 0L, v))
    | Ast.Bitnot -> emit ctx (Ir.Bin (Ir.Xor, t, v, Ir.Imm (-1L)))
    | Ast.Lognot -> emit ctx (Ir.Bin (Ir.Seq, t, v, Ir.Imm 0L))
    | Ast.Deref | Ast.Addrof -> invalid_arg "lower_expr: deref/addrof survive typechecking");
    Ir.Temp t)
  | TE_binop (Ast.Land, a, b) -> lower_short_circuit ctx ~is_and:true a b
  | TE_binop (Ast.Lor, a, b) -> lower_short_circuit ctx ~is_and:false a b
  | TE_binop (op, a, b) -> (
    (* Pointer arithmetic scales the integer side by the element size. *)
    let elem_size ty = match ty with Ast.T_ptr e -> Tast.size_of_ty e | _ -> 1 in
    let va = lower_expr ctx a in
    let vb = lower_expr ctx b in
    let scale v by =
      if by = 1 then v
      else begin
        let t = fresh_temp ctx in
        emit ctx (Ir.Bin (Ir.Mul, t, v, Ir.Imm (Int64.of_int by)));
        Ir.Temp t
      end
    in
    match (op, a.tty, b.tty) with
    | Ast.Add, Ast.T_ptr _, _ ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Add, t, va, scale vb (elem_size a.tty)));
      Ir.Temp t
    | Ast.Add, _, Ast.T_ptr _ ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Add, t, scale va (elem_size b.tty), vb));
      Ir.Temp t
    | Ast.Sub, Ast.T_ptr _, (Ast.T_int | Ast.T_char) ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Sub, t, va, scale vb (elem_size a.tty)));
      Ir.Temp t
    | Ast.Sub, Ast.T_ptr _, Ast.T_ptr _ ->
      let diff = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Sub, diff, va, vb));
      let sz = elem_size a.tty in
      if sz = 1 then Ir.Temp diff
      else begin
        let t = fresh_temp ctx in
        emit ctx (Ir.Bin (Ir.Div, t, Ir.Temp diff, Ir.Imm (Int64.of_int sz)));
        Ir.Temp t
      end
    | _ ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (binop_map op, t, va, vb));
      Ir.Temp t)
  | TE_index (base, idx) ->
    let addr = lower_index_addr ctx base idx in
    let t = fresh_temp ctx in
    emit ctx (Ir.Load (width_of_ty e.tty, t, addr));
    Ir.Temp t
  | TE_assign_local (id, rhs) -> (
    let v = lower_expr ctx rhs in
    match Hashtbl.find ctx.local_map id with
    | `Temp t ->
      emit ctx (Ir.Move (t, v));
      v
    | `Slot_scalar (slot, w) ->
      let addr = fresh_temp ctx in
      emit ctx (Ir.Addr_local (addr, slot));
      emit ctx (Ir.Store (w, Ir.Temp addr, v));
      v
    | `Slot _ -> invalid_arg "lower_expr: assignment to array local")
  | TE_assign_global (name, rhs) ->
    let v = lower_expr ctx rhs in
    let addr = fresh_temp ctx in
    emit ctx (Ir.Addr_global (addr, name));
    emit ctx (Ir.Store (width_of_ty (Hashtbl.find ctx.global_ty name), Ir.Temp addr, v));
    v
  | TE_assign_index (base, idx, rhs) ->
    let v = lower_expr ctx rhs in
    let addr = lower_index_addr ctx base idx in
    emit ctx (Ir.Store (width_of_ty e.tty, addr, v));
    v
  | TE_call ("__write", [ buf; len ]) ->
    let vb = lower_expr ctx buf in
    let vl = lower_expr ctx len in
    emit ctx (Ir.Write (vb, vl));
    vl
  | TE_call ("__exit", [ code ]) ->
    let v = lower_expr ctx code in
    emit ctx (Ir.Exit v);
    Ir.Imm 0L
  | TE_call ("__cycles", []) ->
    let t = fresh_temp ctx in
    emit ctx (Ir.Counter (t, Ir.C_cycles));
    Ir.Temp t
  | TE_call ("__instret", []) ->
    let t = fresh_temp ctx in
    emit ctx (Ir.Counter (t, Ir.C_instret));
    Ir.Temp t
  | TE_call (name, args) ->
    let vargs = List.map (lower_expr ctx) args in
    if e.tty = Ast.T_void then begin
      emit ctx (Ir.Call (None, name, vargs));
      Ir.Imm 0L
    end
    else begin
      let t = fresh_temp ctx in
      emit ctx (Ir.Call (Some t, name, vargs));
      Ir.Temp t
    end
  | TE_compound_local (id, op, rhs) ->
    lower_rmw ctx ~loc:(loc_of_local ctx id) ~ty:e.tty
      ~modify:(fun old -> lower_compound_op ctx op ~lv_ty:e.tty old rhs)
      ~want_old:false
  | TE_compound_global (name, op, rhs) ->
    lower_rmw ctx ~loc:(loc_of_global ctx name) ~ty:e.tty
      ~modify:(fun old -> lower_compound_op ctx op ~lv_ty:e.tty old rhs)
      ~want_old:false
  | TE_compound_index (base, idx, op, rhs) ->
    let addr = lower_index_addr ctx base idx in
    lower_rmw ctx ~loc:(addr, width_of_ty e.tty) ~ty:e.tty
      ~modify:(fun old -> lower_compound_op ctx op ~lv_ty:e.tty old rhs)
      ~want_old:false
  | TE_incr_local (id, pre, delta) ->
    lower_rmw ctx ~loc:(loc_of_local ctx id) ~ty:e.tty
      ~modify:(fun old ->
        let t = fresh_temp ctx in
        emit ctx (Ir.Bin (Ir.Add, t, old, Ir.Imm (Int64.of_int delta)));
        Ir.Temp t)
      ~want_old:(not pre)
  | TE_incr_global (name, pre, delta) ->
    lower_rmw ctx ~loc:(loc_of_global ctx name) ~ty:e.tty
      ~modify:(fun old ->
        let t = fresh_temp ctx in
        emit ctx (Ir.Bin (Ir.Add, t, old, Ir.Imm (Int64.of_int delta)));
        Ir.Temp t)
      ~want_old:(not pre)
  | TE_incr_index (base, idx, pre, delta) ->
    let addr = lower_index_addr ctx base idx in
    lower_rmw ctx ~loc:(addr, width_of_ty e.tty) ~ty:e.tty
      ~modify:(fun old ->
        let t = fresh_temp ctx in
        emit ctx (Ir.Bin (Ir.Add, t, old, Ir.Imm (Int64.of_int delta)));
        Ir.Temp t)
      ~want_old:(not pre)
  | TE_ternary (c, a, b) ->
    let result = fresh_temp ctx in
    let l_then = fresh_label ctx in
    let l_else = fresh_label ctx in
    let join = fresh_label ctx in
    let vc = lower_expr ctx c in
    seal ctx (Ir.Br (vc, l_then, l_else));
    start_block ctx l_then;
    let va = lower_expr ctx a in
    emit ctx (Ir.Move (result, va));
    seal ctx (Ir.Jmp join);
    start_block ctx l_else;
    let vb = lower_expr ctx b in
    emit ctx (Ir.Move (result, vb));
    seal ctx (Ir.Jmp join);
    start_block ctx join;
    Ir.Temp result
  | TE_cast_char inner ->
    let v = lower_expr ctx inner in
    let t = fresh_temp ctx in
    emit ctx (Ir.Bin (Ir.And, t, v, Ir.Imm 0xFFL));
    Ir.Temp t

(* A memory location: address value + access width.  Register-resident
   locals are modelled as a zero-width sentinel via loc_of_local below. *)
and loc_of_local ctx id : Ir.value * Ir.width =
  match Hashtbl.find ctx.local_map id with
  | `Temp t -> (Ir.Temp t, Ir.W64) (* sentinel: recognised by lower_rmw *)
  | `Slot_scalar (slot, w) ->
    let addr = fresh_temp ctx in
    emit ctx (Ir.Addr_local (addr, slot));
    (Ir.Temp addr, w)
  | `Slot _ -> invalid_arg "loc_of_local: array local"

and loc_of_global ctx name : Ir.value * Ir.width =
  let addr = fresh_temp ctx in
  emit ctx (Ir.Addr_global (addr, name));
  (Ir.Temp addr, width_of_ty (Hashtbl.find ctx.global_ty name))

(* Read-modify-write on a location, evaluating the address once.  [modify]
   receives the old value and emits the computation of the new one;
   [want_old] selects the expression's result (post-increment wants the old
   value).  Char-typed locations are masked to a byte so the result value
   matches what memory will reread. *)
and lower_rmw ctx ~loc:(addr, w) ~ty ~modify ~want_old =
  let is_reg_local = match addr with Ir.Temp t -> is_local_temp ctx t | Ir.Imm _ -> false in
  let old_value =
    if is_reg_local then addr
    else begin
      let t = fresh_temp ctx in
      emit ctx (Ir.Load (w, t, addr));
      Ir.Temp t
    end
  in
  (* Post-increment needs the old value after the write; snapshot it. *)
  let snapshot =
    if want_old then begin
      let t = fresh_temp ctx in
      emit ctx (Ir.Move (t, old_value));
      Ir.Temp t
    end
    else Ir.Imm 0L
  in
  let new_value = modify old_value in
  let new_value =
    if ty = Ast.T_char then begin
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.And, t, new_value, Ir.Imm 0xFFL));
      Ir.Temp t
    end
    else new_value
  in
  (if is_reg_local then
     match addr with
     | Ir.Temp t -> emit ctx (Ir.Move (t, new_value))
     | Ir.Imm _ -> assert false
   else emit ctx (Ir.Store (w, addr, new_value)));
  if want_old then snapshot else new_value

and is_local_temp ctx t =
  (* Register-resident locals map to temps below the expression-temp
     watermark recorded when the function started; cheaper and simpler:
     check membership in the local map. *)
  Hashtbl.fold
    (fun _ v acc -> acc || match v with `Temp t' -> t' = t | _ -> false)
    ctx.local_map false

and lower_compound_op ctx op ~lv_ty old rhs =
  (* Pointer compound assignment scales the integer side. *)
  let vr = lower_expr ctx rhs in
  let vr =
    match lv_ty with
    | Ast.T_ptr elem when Tast.size_of_ty elem <> 1 ->
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Mul, t, vr, Ir.Imm (Int64.of_int (Tast.size_of_ty elem))));
      Ir.Temp t
    | _ -> vr
  in
  let t = fresh_temp ctx in
  emit ctx (Ir.Bin (binop_map op, t, old, vr));
  Ir.Temp t

and lower_index_addr ctx base idx =
  let elem =
    match base.tty with
    | Ast.T_ptr e -> e
    | _ -> invalid_arg "lower_index_addr: base is not a pointer"
  in
  let vb = lower_expr ctx base in
  let vi = lower_expr ctx idx in
  let size = Tast.size_of_ty elem in
  let scaled =
    if size = 1 then vi
    else begin
      let t = fresh_temp ctx in
      emit ctx (Ir.Bin (Ir.Mul, t, vi, Ir.Imm (Int64.of_int size)));
      Ir.Temp t
    end
  in
  let addr = fresh_temp ctx in
  emit ctx (Ir.Bin (Ir.Add, addr, vb, scaled));
  Ir.Temp addr

and lower_short_circuit ctx ~is_and a b =
  let result = fresh_temp ctx in
  let eval_b = fresh_label ctx in
  let set_true = fresh_label ctx in
  let set_false = fresh_label ctx in
  let join = fresh_label ctx in
  let va = lower_expr ctx a in
  if is_and then seal ctx (Ir.Br (va, eval_b, set_false))
  else seal ctx (Ir.Br (va, set_true, eval_b));
  start_block ctx eval_b;
  let vb = lower_expr ctx b in
  seal ctx (Ir.Br (vb, set_true, set_false));
  start_block ctx set_true;
  emit ctx (Ir.Move (result, Ir.Imm 1L));
  seal ctx (Ir.Jmp join);
  start_block ctx set_false;
  emit ctx (Ir.Move (result, Ir.Imm 0L));
  seal ctx (Ir.Jmp join);
  start_block ctx join;
  Ir.Temp result

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt ctx (ret_void : bool) (st : tstmt) =
  match st with
  | TS_expr e -> ignore (lower_expr ctx e)
  | TS_init (id, e) -> (
    let v = lower_expr ctx e in
    match Hashtbl.find ctx.local_map id with
    | `Temp t -> emit ctx (Ir.Move (t, v))
    | `Slot_scalar (slot, w) ->
      let addr = fresh_temp ctx in
      emit ctx (Ir.Addr_local (addr, slot));
      emit ctx (Ir.Store (w, Ir.Temp addr, v))
    | `Slot _ -> invalid_arg "lower_stmt: init of array local")
  | TS_if (cond, then_, else_) ->
    let lt = fresh_label ctx in
    let lf = fresh_label ctx in
    let join = fresh_label ctx in
    let vc = lower_expr ctx cond in
    seal ctx (Ir.Br (vc, lt, if else_ = [] then join else lf));
    start_block ctx lt;
    List.iter (lower_stmt ctx ret_void) then_;
    seal ctx (Ir.Jmp join);
    if else_ <> [] then begin
      start_block ctx lf;
      List.iter (lower_stmt ctx ret_void) else_;
      seal ctx (Ir.Jmp join)
    end;
    start_block ctx join
  | TS_while (cond, body) ->
    let head = fresh_label ctx in
    let body_l = fresh_label ctx in
    let exit_l = fresh_label ctx in
    seal ctx (Ir.Jmp head);
    start_block ctx head;
    let vc = lower_expr ctx cond in
    seal ctx (Ir.Br (vc, body_l, exit_l));
    start_block ctx body_l;
    ctx.loop_stack <- (head, exit_l) :: ctx.loop_stack;
    List.iter (lower_stmt ctx ret_void) body;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    seal ctx (Ir.Jmp head);
    start_block ctx exit_l
  | TS_dowhile (body, cond) ->
    let body_l = fresh_label ctx in
    let cond_l = fresh_label ctx in
    let exit_l = fresh_label ctx in
    seal ctx (Ir.Jmp body_l);
    start_block ctx body_l;
    ctx.loop_stack <- (cond_l, exit_l) :: ctx.loop_stack;
    List.iter (lower_stmt ctx ret_void) body;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    seal ctx (Ir.Jmp cond_l);
    start_block ctx cond_l;
    let vc = lower_expr ctx cond in
    seal ctx (Ir.Br (vc, body_l, exit_l));
    start_block ctx exit_l
  | TS_for (init, cond, incr, body) ->
    let head = fresh_label ctx in
    let body_l = fresh_label ctx in
    let incr_l = fresh_label ctx in
    let exit_l = fresh_label ctx in
    List.iter (lower_stmt ctx ret_void) init;
    seal ctx (Ir.Jmp head);
    start_block ctx head;
    (match cond with
    | None -> seal ctx (Ir.Jmp body_l)
    | Some c ->
      let vc = lower_expr ctx c in
      seal ctx (Ir.Br (vc, body_l, exit_l)));
    start_block ctx body_l;
    ctx.loop_stack <- (incr_l, exit_l) :: ctx.loop_stack;
    List.iter (lower_stmt ctx ret_void) body;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    seal ctx (Ir.Jmp incr_l);
    start_block ctx incr_l;
    List.iter (lower_stmt ctx ret_void) incr;
    seal ctx (Ir.Jmp head);
    start_block ctx exit_l
  | TS_return None -> seal ctx (Ir.Ret None)
  | TS_return (Some e) ->
    let v = lower_expr ctx e in
    seal ctx (Ir.Ret (Some v))
  | TS_break -> (
    match ctx.loop_stack with
    | (_, brk) :: _ -> seal ctx (Ir.Jmp brk)
    | [] -> invalid_arg "lower_stmt: break outside loop")
  | TS_continue -> (
    match ctx.loop_stack with
    | (cont, _) :: _ -> seal ctx (Ir.Jmp cont)
    | [] -> invalid_arg "lower_stmt: continue outside loop")

(* ------------------------------------------------------------------ *)
(* Globals and program                                                 *)
(* ------------------------------------------------------------------ *)

let global_bytes (g : tglobal) : bytes option =
  let elem_size = Tast.size_of_ty g.tg_ty in
  match g.tg_init with
  | None -> None
  | Some (Ast.G_scalar v) ->
    let b = Bytes.make elem_size '\000' in
    if elem_size = 1 then Bytes.set b 0 (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    else Bytes.set_int64_le b 0 v;
    Some b
  | Some (Ast.G_array vs) ->
    let n = Option.value g.tg_array ~default:(List.length vs) in
    let b = Bytes.make (n * elem_size) '\000' in
    List.iteri
      (fun i v ->
        if elem_size = 1 then Bytes.set b i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
        else Bytes.set_int64_le b (i * 8) v)
      vs;
    Some b
  | Some (Ast.G_string s) ->
    let n = Option.value g.tg_array ~default:(String.length s + 1) in
    let b = Bytes.make n '\000' in
    Bytes.blit_string s 0 b 0 (String.length s);
    Some b

let global_size (g : tglobal) =
  Tast.size_of_ty g.tg_ty * Option.value g.tg_array ~default:1

let lower (prog : tprogram) : Ir.program =
  let global_ty = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace global_ty g.tg_name g.tg_ty) prog.tglobals;
  let data = ref [] and bss = ref [] in
  List.iter
    (fun g ->
      match global_bytes g with
      | Some b -> data := (g.tg_name, b) :: !data
      | None -> bss := (g.tg_name, global_size g) :: !bss)
    prog.tglobals;
  let shared_strings = Hashtbl.create 16 in
  let string_counter = ref 0 in
  let string_data = ref [] in
  let funcs =
    List.map
      (fun f ->
        let ctx =
          {
            rev_blocks = [];
            cur_label = 0;
            cur_body = [];
            open_ = false;
            next_label = 1;
            next_temp = 0;
            slots = [];
            next_slot = 0;
            local_map = Hashtbl.create 32;
            global_ty;
            loop_stack = [];
            strings = shared_strings;
            rev_data = [];
            next_string = !string_counter;
          }
        in
        (* Parameters first so they map to temps 0..n-1 in order. *)
        let param_temps =
          List.map
            (fun (p : local) ->
              let t = fresh_temp ctx in
              Hashtbl.replace ctx.local_map p.l_id (`Temp t);
              t)
            f.tf_params
        in
        let scalar_slot (l : local) =
          let slot = ctx.next_slot in
          ctx.next_slot <- slot + 1;
          ctx.slots <- (slot, 8) :: ctx.slots;
          Hashtbl.replace ctx.local_map l.l_id (`Slot_scalar (slot, width_of_ty l.l_ty))
        in
        (* Parameters whose address is taken move from their register to a
           slot; lower_func emits the spill as an init move below. *)
        let addressed_params =
          List.filter (fun (p : local) -> List.mem p.l_id f.tf_addressed) f.tf_params
        in
        List.iter
          (fun (l : local) ->
            match l.l_array with
            | None when List.mem l.l_id f.tf_addressed -> scalar_slot l
            | None -> Hashtbl.replace ctx.local_map l.l_id (`Temp (fresh_temp ctx))
            | Some n ->
              let slot = ctx.next_slot in
              ctx.next_slot <- slot + 1;
              let size = (n * Tast.size_of_ty l.l_ty + 7) / 8 * 8 in
              ctx.slots <- (slot, size) :: ctx.slots;
              Hashtbl.replace ctx.local_map l.l_id (`Slot slot))
          f.tf_locals;
        start_block ctx 0;
        (* Spill address-taken parameters from their incoming register
           temps into their slots. *)
        List.iter
          (fun (p : local) ->
            match Hashtbl.find_opt ctx.local_map p.l_id with
            | Some (`Temp incoming) ->
              let slot = ctx.next_slot in
              ctx.next_slot <- slot + 1;
              ctx.slots <- (slot, 8) :: ctx.slots;
              Hashtbl.replace ctx.local_map p.l_id (`Slot_scalar (slot, width_of_ty p.l_ty));
              let addr = fresh_temp ctx in
              emit ctx (Ir.Addr_local (addr, slot));
              emit ctx (Ir.Store (width_of_ty p.l_ty, Ir.Temp addr, Ir.Temp incoming))
            | _ -> ())
          addressed_params;
        List.iter (lower_stmt ctx (f.tf_ret = Ast.T_void)) f.tf_body;
        (* Implicit return for fall-through paths. *)
        seal ctx (if f.tf_ret = Ast.T_void then Ir.Ret None else Ir.Ret (Some (Ir.Imm 0L)));
        string_counter := ctx.next_string;
        string_data := ctx.rev_data @ !string_data;
        {
          Ir.f_name = f.tf_name;
          f_params = param_temps;
          f_blocks = List.rev ctx.rev_blocks;
          f_slots = List.rev ctx.slots;
          f_temp_count = ctx.next_temp;
        })
      prog.tfuncs
  in
  {
    Ir.p_funcs = funcs;
    p_data = List.rev !data @ List.rev !string_data;
    p_bss = List.rev !bss;
  }
