open Ast
open Tast

exception Type_error of string * Ast.pos

let err pos fmt = Format.kasprintf (fun s -> raise (Type_error (s, pos))) fmt

type sym =
  | Sym_scalar_local of int * ty
  | Sym_array_local of int * ty * int  (** id, element type, length *)
  | Sym_scalar_global of ty
  | Sym_array_global of ty * int

type fsig = { fs_ret : ty; fs_params : ty list }

type env = {
  globals : (string, sym) Hashtbl.t;
  funcs : (string, fsig) Hashtbl.t;
  mutable scopes : (string * sym) list list;
  mutable locals_acc : local list;  (** collected for the current function *)
  mutable next_local : int;
  mutable addressed : int list;  (** locals whose address was taken *)
}

let builtins =
  [ ("__write", { fs_ret = T_int; fs_params = [ T_ptr T_char; T_int ] });
    ("__exit", { fs_ret = T_void; fs_params = [ T_int ] });
    ("__cycles", { fs_ret = T_int; fs_params = [] });
    ("__instret", { fs_ret = T_int; fs_params = [] }) ]

let lookup_var env name =
  let rec in_scopes = function
    | [] -> Hashtbl.find_opt env.globals name
    | scope :: rest -> (
      match List.assoc_opt name scope with Some s -> Some s | None -> in_scopes rest)
  in
  in_scopes env.scopes

let fresh_local env name ty array =
  let id = env.next_local in
  env.next_local <- id + 1;
  env.locals_acc <- { l_id = id; l_name = name; l_ty = ty; l_array = array } :: env.locals_acc;
  id

let bind env name sym =
  match env.scopes with
  | scope :: rest -> env.scopes <- ((name, sym) :: scope) :: rest
  | [] -> invalid_arg "bind: no open scope"

let is_arith = function T_int | T_char -> true | T_void | T_ptr _ -> false
let is_scalar = function T_int | T_char | T_ptr _ -> true | T_void -> false

(* Implicit conversion for assignment and argument passing. *)
let assignable ~dst ~src =
  match (dst, src) with
  | (T_int | T_char), (T_int | T_char) -> true
  | T_ptr a, T_ptr b -> ty_equal a b
  | _ -> false

(* Apply the conversion, materialising int -> char narrowing. *)
let coerce ~dst te =
  match (dst, te.tty) with
  | T_char, T_int -> { te = TE_cast_char te; tty = T_char }
  | _ -> te

let rec check_expr env (e : expr) : texpr =
  let pos = e.epos in
  match e.e with
  | Int_lit v -> { te = TE_int v; tty = T_int }
  | Str_lit s -> { te = TE_str s; tty = T_ptr T_char }
  | Var name -> (
    match lookup_var env name with
    | Some (Sym_scalar_local (id, ty)) -> { te = TE_local id; tty = ty }
    | Some (Sym_array_local (id, ty, _)) -> { te = TE_addr_local id; tty = T_ptr ty }
    | Some (Sym_scalar_global ty) -> { te = TE_global name; tty = ty }
    | Some (Sym_array_global (ty, _)) -> { te = TE_addr_global name; tty = T_ptr ty }
    | None -> err pos "undefined variable %s" name)
  | Unop (Deref, inner) -> (
    let ti = check_expr env inner in
    match ti.tty with
    | T_ptr elem when elem <> T_void ->
      { te = TE_index (ti, { te = TE_int 0L; tty = T_int }); tty = elem }
    | _ -> err pos "cannot dereference a value of type %a" pp_ty ti.tty)
  | Unop (Addrof, inner) -> check_addrof env pos inner
  | Unop (op, inner) -> (
    let ti = check_expr env inner in
    match op with
    | Neg | Bitnot ->
      if not (is_arith ti.tty) then err pos "unary operator needs an arithmetic operand";
      { te = TE_unop (op, ti); tty = T_int }
    | Lognot ->
      if not (is_scalar ti.tty) then err pos "'!' needs a scalar operand";
      { te = TE_unop (op, ti); tty = T_int }
    | Deref | Addrof -> assert false)
  | Binop (op, a, b) -> check_binop env pos op a b
  | Assign (lhs, rhs) -> check_assign env pos lhs rhs
  | Compound (op, lhs, rhs) -> check_compound env pos op lhs rhs
  | Incr { pre; up; lvalue } -> check_incr env pos ~pre ~up lvalue
  | Ternary (c, a, b) -> (
    let tc = check_expr env c in
    if not (is_scalar tc.tty) then err pos "ternary condition must be a scalar";
    let ta = check_expr env a in
    let tb = check_expr env b in
    let ty =
      match (ta.tty, tb.tty) with
      | (T_int | T_char), (T_int | T_char) -> T_int
      | T_ptr x, T_ptr y when ty_equal x y -> ta.tty
      | _ -> err pos "ternary branches have incompatible types %a and %a" pp_ty ta.tty pp_ty tb.tty
    in
    { te = TE_ternary (tc, ta, tb); tty = ty })
  | Sizeof ty -> (
    match ty with
    | T_void -> err pos "sizeof(void) is meaningless"
    | _ -> { te = TE_int (Int64.of_int (Tast.size_of_ty ty)); tty = T_int })
  | Call (name, args) -> (
    match Hashtbl.find_opt env.funcs name with
    | None -> err pos "call to undefined function %s" name
    | Some fs ->
      if List.length args <> List.length fs.fs_params then
        err pos "%s expects %d arguments, got %d" name (List.length fs.fs_params)
          (List.length args);
      let targs =
        List.map2
          (fun arg pty ->
            let ta = check_expr env arg in
            if not (assignable ~dst:pty ~src:ta.tty) then
              err arg.epos "argument type %a does not match parameter type %a" pp_ty ta.tty
                pp_ty pty;
            coerce ~dst:pty ta)
          args fs.fs_params
      in
      { te = TE_call (name, targs); tty = fs.fs_ret })
  | Index (base, idx) ->
    let tb = check_expr env base in
    let ti = check_expr env idx in
    if not (is_arith ti.tty) then err idx.epos "array index must be an integer";
    (match tb.tty with
    | T_ptr elem when elem <> T_void -> { te = TE_index (tb, ti); tty = elem }
    | _ -> err base.epos "indexing a non-pointer value of type %a" pp_ty tb.tty)

and check_binop env pos op a b =
  let ta = check_expr env a in
  let tb = check_expr env b in
  match op with
  | Add | Sub -> (
    match (ta.tty, tb.tty) with
    | (T_int | T_char), (T_int | T_char) -> { te = TE_binop (op, ta, tb); tty = T_int }
    | T_ptr _, (T_int | T_char) -> { te = TE_binop (op, ta, tb); tty = ta.tty }
    | (T_int | T_char), T_ptr _ when op = Add -> { te = TE_binop (op, ta, tb); tty = tb.tty }
    | T_ptr x, T_ptr y when op = Sub && ty_equal x y ->
      { te = TE_binop (op, ta, tb); tty = T_int }
    | _ -> err pos "invalid operand types %a and %a" pp_ty ta.tty pp_ty tb.tty)
  | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor ->
    if not (is_arith ta.tty && is_arith tb.tty) then
      err pos "arithmetic operator needs integer operands (%a, %a)" pp_ty ta.tty pp_ty tb.tty;
    { te = TE_binop (op, ta, tb); tty = T_int }
  | Lt | Le | Gt | Ge | Eq | Ne -> (
    match (ta.tty, tb.tty) with
    | (T_int | T_char), (T_int | T_char) -> { te = TE_binop (op, ta, tb); tty = T_int }
    | T_ptr x, T_ptr y when ty_equal x y -> { te = TE_binop (op, ta, tb); tty = T_int }
    | _ -> err pos "cannot compare %a with %a" pp_ty ta.tty pp_ty tb.tty)
  | Land | Lor ->
    if not (is_scalar ta.tty && is_scalar tb.tty) then err pos "'&&'/'||' need scalar operands";
    { te = TE_binop (op, ta, tb); tty = T_int }

and check_addrof env pos (inner : expr) : texpr =
  match inner.e with
  | Var name -> (
    match lookup_var env name with
    | Some (Sym_scalar_local (id, ty)) ->
      if not (List.mem id env.addressed) then env.addressed <- id :: env.addressed;
      { te = TE_addr_local id; tty = T_ptr ty }
    | Some (Sym_scalar_global ty) -> { te = TE_addr_global name; tty = T_ptr ty }
    | Some (Sym_array_local (id, ty, _)) ->
      (* &arr is the array's address (we do not distinguish T_ptr from
         pointer-to-array) *)
      { te = TE_addr_local id; tty = T_ptr ty }
    | Some (Sym_array_global (ty, _)) -> { te = TE_addr_global name; tty = T_ptr ty }
    | None -> err pos "undefined variable %s" name)
  | Index (base, idx) ->
    (* &a[i] is just a + i *)
    let tb = check_expr env base in
    let ti = check_expr env idx in
    if not (is_arith ti.tty) then err idx.epos "array index must be an integer";
    (match tb.tty with
    | T_ptr _ -> { te = TE_binop (Add, tb, ti); tty = tb.tty }
    | _ -> err base.epos "indexing a non-pointer value of type %a" pp_ty tb.tty)
  | Unop (Deref, e) -> check_expr env e (* &*e = e *)
  | _ -> err pos "cannot take the address of this expression"

and compound_result_ty pos op lv_ty rhs_ty =
  (* The subset of binops the parser produces for op=. *)
  match (lv_ty, rhs_ty) with
  | (T_int | T_char), (T_int | T_char) -> ()
  | T_ptr _, (T_int | T_char) when op = Add || op = Sub -> ()
  | _ ->
    err pos "invalid compound assignment operand types %a and %a" pp_ty lv_ty pp_ty rhs_ty

and check_compound env pos op lhs rhs =
  let tr = check_expr env rhs in
  match lhs.e with
  | Var name -> (
    match lookup_var env name with
    | Some (Sym_scalar_local (id, ty)) ->
      compound_result_ty pos op ty tr.tty;
      { te = TE_compound_local (id, op, tr); tty = ty }
    | Some (Sym_scalar_global ty) ->
      compound_result_ty pos op ty tr.tty;
      { te = TE_compound_global (name, op, tr); tty = ty }
    | Some (Sym_array_local _ | Sym_array_global _) -> err pos "cannot assign to array %s" name
    | None -> err pos "undefined variable %s" name)
  | Index (base, idx) -> (
    let tb = check_expr env base in
    let ti = check_expr env idx in
    if not (is_arith ti.tty) then err idx.epos "array index must be an integer";
    match tb.tty with
    | T_ptr elem when elem <> T_void ->
      compound_result_ty pos op elem tr.tty;
      { te = TE_compound_index (tb, ti, op, tr); tty = elem }
    | _ -> err base.epos "indexing a non-pointer value of type %a" pp_ty tb.tty)
  | Unop (Deref, e) -> (
    let te = check_expr env e in
    match te.tty with
    | T_ptr elem when elem <> T_void ->
      compound_result_ty pos op elem tr.tty;
      { te = TE_compound_index (te, { te = TE_int 0L; tty = T_int }, op, tr); tty = elem }
    | _ -> err pos "cannot dereference a value of type %a" pp_ty te.tty)
  | _ -> err pos "left side of compound assignment is not assignable"

and check_incr env pos ~pre ~up lvalue =
  let delta_for ty =
    let magnitude = match ty with T_ptr elem -> Tast.size_of_ty elem | _ -> 1 in
    if up then magnitude else -magnitude
  in
  match lvalue.e with
  | Var name -> (
    match lookup_var env name with
    | Some (Sym_scalar_local (id, ty)) ->
      { te = TE_incr_local (id, pre, delta_for ty); tty = ty }
    | Some (Sym_scalar_global ty) -> { te = TE_incr_global (name, pre, delta_for ty); tty = ty }
    | Some (Sym_array_local _ | Sym_array_global _) -> err pos "cannot increment array %s" name
    | None -> err pos "undefined variable %s" name)
  | Index (base, idx) -> (
    let tb = check_expr env base in
    let ti = check_expr env idx in
    if not (is_arith ti.tty) then err idx.epos "array index must be an integer";
    match tb.tty with
    | T_ptr elem when elem <> T_void ->
      { te = TE_incr_index (tb, ti, pre, delta_for elem); tty = elem }
    | _ -> err base.epos "indexing a non-pointer value of type %a" pp_ty tb.tty)
  | Unop (Deref, e) -> (
    let te = check_expr env e in
    match te.tty with
    | T_ptr elem when elem <> T_void ->
      { te = TE_incr_index (te, { te = TE_int 0L; tty = T_int }, pre, delta_for elem);
        tty = elem }
    | _ -> err pos "cannot dereference a value of type %a" pp_ty te.tty)
  | _ -> err pos "operand of ++/-- is not assignable"

and check_assign env pos lhs rhs =
  let tr = check_expr env rhs in
  match lhs.e with
  | Var name -> (
    match lookup_var env name with
    | Some (Sym_scalar_local (id, ty)) ->
      if not (assignable ~dst:ty ~src:tr.tty) then
        err pos "cannot assign %a to %s of type %a" pp_ty tr.tty name pp_ty ty;
      { te = TE_assign_local (id, coerce ~dst:ty tr); tty = ty }
    | Some (Sym_scalar_global ty) ->
      if not (assignable ~dst:ty ~src:tr.tty) then
        err pos "cannot assign %a to %s of type %a" pp_ty tr.tty name pp_ty ty;
      { te = TE_assign_global (name, coerce ~dst:ty tr); tty = ty }
    | Some (Sym_array_local _ | Sym_array_global _) -> err pos "cannot assign to array %s" name
    | None -> err pos "undefined variable %s" name)
  | Index (base, idx) -> (
    let tb = check_expr env base in
    let ti = check_expr env idx in
    if not (is_arith ti.tty) then err idx.epos "array index must be an integer";
    match tb.tty with
    | T_ptr elem when elem <> T_void ->
      if not (assignable ~dst:elem ~src:tr.tty) then
        err pos "cannot store %a into element of type %a" pp_ty tr.tty pp_ty elem;
      { te = TE_assign_index (tb, ti, coerce ~dst:elem tr); tty = elem }
    | _ -> err base.epos "indexing a non-pointer value of type %a" pp_ty tb.tty)
  | Unop (Deref, e) -> (
    let te = check_expr env e in
    match te.tty with
    | T_ptr elem when elem <> T_void ->
      if not (assignable ~dst:elem ~src:tr.tty) then
        err pos "cannot store %a into element of type %a" pp_ty tr.tty pp_ty elem;
      { te = TE_assign_index (te, { te = TE_int 0L; tty = T_int }, coerce ~dst:elem tr);
        tty = elem }
    | _ -> err pos "cannot dereference a value of type %a" pp_ty te.tty)
  | _ -> err pos "left side of '=' is not assignable"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type fctx = { ret_ty : ty; mutable loop_depth : int }

let rec check_stmt env fctx (st : stmt) : tstmt list =
  let pos = st.spos in
  match st.s with
  | S_expr e -> [ TS_expr (check_expr env e) ]
  | S_decl (ty, name, array, init) -> (
    (match ty with
    | T_void -> err pos "cannot declare a void variable"
    | T_int | T_char | T_ptr _ -> ());
    match array with
    | Some n ->
      if n <= 0 then err pos "array %s must have positive length" name;
      if init <> None then err pos "local array %s cannot have an initialiser" name;
      let id = fresh_local env name ty (Some n) in
      bind env name (Sym_array_local (id, ty, n));
      []
    | None ->
      let id = fresh_local env name ty None in
      let init_stmts =
        match init with
        | None -> []
        | Some e ->
          let te = check_expr env e in
          if not (assignable ~dst:ty ~src:te.tty) then
            err pos "cannot initialise %s of type %a with %a" name pp_ty ty pp_ty te.tty;
          [ TS_init (id, coerce ~dst:ty te) ]
      in
      bind env name (Sym_scalar_local (id, ty));
      init_stmts)
  | S_if (cond, then_, else_) ->
    let tc = check_cond env cond in
    let tt = check_block env fctx [ then_ ] in
    let te = match else_ with None -> [] | Some s -> check_block env fctx [ s ] in
    [ TS_if (tc, tt, te) ]
  | S_while (cond, body) ->
    let tc = check_cond env cond in
    fctx.loop_depth <- fctx.loop_depth + 1;
    let tb = check_block env fctx [ body ] in
    fctx.loop_depth <- fctx.loop_depth - 1;
    [ TS_while (tc, tb) ]
  | S_dowhile (body, cond) ->
    fctx.loop_depth <- fctx.loop_depth + 1;
    let tb = check_block env fctx [ body ] in
    fctx.loop_depth <- fctx.loop_depth - 1;
    let tc = check_cond env cond in
    [ TS_dowhile (tb, tc) ]
  | S_for (init, cond, incr, body) ->
    (* The init declaration scopes over the whole loop. *)
    env.scopes <- [] :: env.scopes;
    let ti = match init with None -> [] | Some s -> check_stmt env fctx s in
    let tc = Option.map (check_cond env) cond in
    fctx.loop_depth <- fctx.loop_depth + 1;
    let tb = check_block env fctx [ body ] in
    fctx.loop_depth <- fctx.loop_depth - 1;
    let tincr = match incr with None -> [] | Some s -> check_stmt env fctx s in
    env.scopes <- List.tl env.scopes;
    [ TS_for (ti, tc, tincr, tb) ]
  | S_return e -> (
    match (e, fctx.ret_ty) with
    | None, T_void -> [ TS_return None ]
    | None, ty -> err pos "function must return a value of type %a" pp_ty ty
    | Some _, T_void -> err pos "void function cannot return a value"
    | Some e, ty ->
      let te = check_expr env e in
      if not (assignable ~dst:ty ~src:te.tty) then
        err pos "return type mismatch: %a vs %a" pp_ty te.tty pp_ty ty;
      [ TS_return (Some (coerce ~dst:ty te)) ])
  | S_break ->
    if fctx.loop_depth = 0 then err pos "break outside a loop";
    [ TS_break ]
  | S_continue ->
    if fctx.loop_depth = 0 then err pos "continue outside a loop";
    [ TS_continue ]
  | S_block stmts -> check_block env fctx stmts

and check_cond env e =
  let te = check_expr env e in
  if not (is_scalar te.tty) then err e.epos "condition must be a scalar";
  te

and check_block env fctx stmts =
  env.scopes <- [] :: env.scopes;
  let result = List.concat_map (check_stmt env fctx) stmts in
  env.scopes <- List.tl env.scopes;
  result

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let check_global (g : global) : tglobal =
  (match g.g_ty with
  | T_void -> err g.g_pos "cannot declare a void global"
  | T_ptr _ when g.g_init <> None -> err g.g_pos "pointer globals cannot have initialisers"
  | T_int | T_char | T_ptr _ -> ());
  (match (g.g_array, g.g_init) with
  | Some n, _ when n <= 0 -> err g.g_pos "array %s must have positive length" g.g_name
  | None, Some (G_array _ | G_string _) ->
    err g.g_pos "scalar global %s cannot take an aggregate initialiser" g.g_name
  | Some _, Some (G_scalar _) -> err g.g_pos "array global %s needs an aggregate initialiser" g.g_name
  | Some n, Some (G_array vs) when List.length vs > n ->
    err g.g_pos "initialiser for %s has %d elements but the array holds %d" g.g_name
      (List.length vs) n
  | Some n, Some (G_string s) when g.g_ty <> T_char ->
    ignore (n, s);
    err g.g_pos "string initialiser requires a char array"
  | Some n, Some (G_string s) when String.length s + 1 > n ->
    err g.g_pos "string initialiser for %s needs %d bytes but the array holds %d" g.g_name
      (String.length s + 1) n
  | _ -> ());
  { tg_name = g.g_name; tg_ty = g.g_ty; tg_array = g.g_array; tg_init = g.g_init }

let check_func env (f : func) : tfunc =
  if List.length f.f_params > 8 then err f.f_pos "functions take at most 8 parameters";
  env.scopes <- [ [] ];
  env.locals_acc <- [];
  env.next_local <- 0;
  env.addressed <- [];
  let params =
    List.map
      (fun (ty, name) ->
        (match ty with
        | T_void -> err f.f_pos "parameter %s cannot be void" name
        | T_int | T_char | T_ptr _ -> ());
        let id = fresh_local env name ty None in
        bind env name (Sym_scalar_local (id, ty));
        { l_id = id; l_name = name; l_ty = ty; l_array = None })
      f.f_params
  in
  let fctx = { ret_ty = f.f_ret; loop_depth = 0 } in
  let body = check_block env fctx f.f_body in
  let param_ids = List.map (fun p -> p.l_id) params in
  let locals =
    List.filter (fun l -> not (List.mem l.l_id param_ids)) (List.rev env.locals_acc)
  in
  { tf_name = f.f_name; tf_ret = f.f_ret; tf_params = params; tf_locals = locals;
    tf_addressed = List.sort_uniq compare env.addressed; tf_body = body }

let check_exn ?(prelude = []) (prog : program) : tprogram =
  let env =
    { globals = Hashtbl.create 64; funcs = Hashtbl.create 64; scopes = []; locals_acc = [];
      next_local = 0; addressed = [] }
  in
  List.iter (fun (name, fs) -> Hashtbl.replace env.funcs name fs) builtins;
  (* First pass: declare every global and function signature. *)
  List.iter
    (fun decl ->
      match decl with
      | D_global g ->
        if Hashtbl.mem env.globals g.g_name then err g.g_pos "duplicate global %s" g.g_name;
        let sym =
          match g.g_array with
          | Some n -> Sym_array_global (g.g_ty, n)
          | None -> Sym_scalar_global g.g_ty
        in
        Hashtbl.replace env.globals g.g_name sym
      | D_func f ->
        if Hashtbl.mem env.funcs f.f_name then err f.f_pos "duplicate function %s" f.f_name;
        Hashtbl.replace env.funcs f.f_name
          { fs_ret = f.f_ret; fs_params = List.map fst f.f_params })
    (prelude @ prog);
  let tglobals =
    List.filter_map (function D_global g -> Some (check_global g) | D_func _ -> None) prog
  in
  let tfuncs =
    List.filter_map (function D_func f -> Some (check_func env f) | D_global _ -> None) prog
  in
  { tglobals; tfuncs }

let check ?prelude prog =
  match check_exn ?prelude prog with
  | tp -> Ok tp
  | exception Type_error (msg, pos) -> Error (Format.asprintf "%a: %s" pp_pos pos msg)
