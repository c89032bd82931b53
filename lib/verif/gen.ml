type t = { source : string; trace : int array }

(* What a point in the program may refer to.  [readable] includes loop
   counters and parameters; [writable] only scalars whose mutation cannot
   break a loop bound.  Entering a block clones the scope so inner
   declarations stay block-scoped. *)
type scope = {
  readable : string list;
  writable : string list;
  arrays : (string * int) list;  (* name, power-of-two length *)
}

type ctx = {
  tr : Trace.t;
  buf : Buffer.t;
  mutable fresh : int;
  mutable funcs : (string * int) list;  (* callable earlier functions *)
  size : int;
}

let draw ctx ~bound = Trace.draw ctx.tr ~bound

let name ctx prefix =
  let n = ctx.fresh in
  ctx.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

let emit ctx ~indent fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * indent) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let literals =
  [| "0"; "1"; "2"; "3"; "5"; "8"; "15"; "63"; "255"; "4096"; "123456789"; "(-1)"; "(-7)";
     "1073741824"; "sizeof(int)" |]

let strings = [| "."; "x"; "ok "; "v="; "# " |]

let literal ctx =
  let i = draw ctx ~bound:(Array.length literals + 1) in
  if i < Array.length literals then literals.(i)
  else
    let v = draw ctx ~bound:1024 - 512 in
    if v < 0 then Printf.sprintf "(%d)" v else string_of_int v

(* Global initialisers are parsed as bare (optionally negated) integers,
   not expressions — keep a separate plain-int pool for them. *)
let global_literal ctx =
  let pool = [| "0"; "1"; "7"; "-1"; "255"; "4096"; "-123456" |] in
  let i = draw ctx ~bound:(Array.length pool + 1) in
  if i < Array.length pool then pool.(i) else string_of_int (draw ctx ~bound:1024 - 512)

let pick ctx = function
  | [] -> None
  | l -> Some (List.nth l (draw ctx ~bound:(List.length l)))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let arith_ops = [| "+"; "-"; "*"; "&"; "|"; "^" |]
let cmp_ops = [| "<"; "<="; ">"; ">="; "=="; "!="; "&&"; "||" |]
let un_ops = [| "-"; "~"; "!" |]

let rec expr ctx scope ~depth =
  let var () = match pick ctx scope.readable with Some v -> v | None -> literal ctx in
  if depth <= 0 then if draw ctx ~bound:2 = 0 then literal ctx else var ()
  else
    match draw ctx ~bound:13 with
    | 0 | 1 -> literal ctx
    | 2 | 3 -> var ()
    | 4 -> (
      match pick ctx scope.arrays with
      | None -> var ()
      | Some (a, n) -> Printf.sprintf "%s[(%s) & %d]" a (expr ctx scope ~depth:(depth - 1)) (n - 1))
    | 5 ->
      let op = un_ops.(draw ctx ~bound:(Array.length un_ops)) in
      Printf.sprintf "(%s(%s))" op (expr ctx scope ~depth:(depth - 1))
    | 6 | 7 ->
      let op = arith_ops.(draw ctx ~bound:(Array.length arith_ops)) in
      Printf.sprintf "((%s) %s (%s))"
        (expr ctx scope ~depth:(depth - 1))
        op
        (expr ctx scope ~depth:(depth - 1))
    | 8 ->
      let op = cmp_ops.(draw ctx ~bound:(Array.length cmp_ops)) in
      Printf.sprintf "((%s) %s (%s))"
        (expr ctx scope ~depth:(depth - 1))
        op
        (expr ctx scope ~depth:(depth - 1))
    | 9 ->
      (* checked division: divisor forced into [1, 16] so neither /0 nor
         INT64_MIN / -1 can happen on any path *)
      let op = if draw ctx ~bound:2 = 0 then "/" else "%" in
      Printf.sprintf "((%s) %s (((%s) & 15) + 1))"
        (expr ctx scope ~depth:(depth - 1))
        op
        (expr ctx scope ~depth:(depth - 1))
    | 10 ->
      let op = if draw ctx ~bound:2 = 0 then "<<" else ">>" in
      Printf.sprintf "((%s) %s %d)" (expr ctx scope ~depth:(depth - 1)) op (draw ctx ~bound:64)
    | 11 ->
      Printf.sprintf "((%s) ? (%s) : (%s))"
        (expr ctx scope ~depth:(depth - 1))
        (expr ctx scope ~depth:(depth - 1))
        (expr ctx scope ~depth:(depth - 1))
    | _ -> (
      match pick ctx ctx.funcs with
      | None -> (
        (* pointer round-trip on a variable: types as int, always safe *)
        match pick ctx scope.readable with
        | Some v -> Printf.sprintf "(*(&%s))" v
        | None -> literal ctx)
      | Some (f, arity) ->
        let args = List.init arity (fun _ -> expr ctx scope ~depth:(depth - 1)) in
        Printf.sprintf "%s(%s)" f (String.concat ", " args))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let compound_ops = [| "+="; "-="; "*="; "&="; "|="; "^=" |]

(* [ret_mask]: main's returns are masked to [0,255] so the exit code is
   identical on every execution path. *)
let ret_expr ~ret_mask e = if ret_mask then Printf.sprintf "((%s) & 255)" e else e

let rec stmt ctx scope ~indent ~depth ~in_loop ~ret_mask =
  match draw ctx ~bound:13 with
  | 0 ->
    emit ctx ~indent "println_int((%s));" (expr ctx scope ~depth:2);
    stmt_ret scope
  | 1 ->
    emit ctx ~indent "print_str(\"%s\");" strings.(draw ctx ~bound:(Array.length strings));
    stmt_ret scope
  | 2 ->
    let v = name ctx "v" in
    emit ctx ~indent "int %s = (%s);" v (expr ctx scope ~depth:2);
    stmt_ret { scope with readable = v :: scope.readable; writable = v :: scope.writable }
  | 3 ->
    (* array declaration + deterministic fill, so no element is ever read
       uninitialised *)
    let a = name ctx "a" in
    let n = [| 4; 8; 16 |].(draw ctx ~bound:3) in
    let i = name ctx "v" in
    emit ctx ~indent "int %s[%d];" a n;
    emit ctx ~indent "for (int %s = 0; %s < %d; %s++) { %s[%s] = (%s); }" i i n i a i
      (expr ctx { scope with readable = i :: scope.readable } ~depth:1);
    stmt_ret { scope with arrays = (a, n) :: scope.arrays }
  | 4 -> (
    match pick ctx scope.writable with
    | None -> stmt_fallback ctx scope ~indent
    | Some v ->
      emit ctx ~indent "%s = (%s);" v (expr ctx scope ~depth:2);
      stmt_ret scope)
  | 5 -> (
    match pick ctx scope.arrays with
    | None -> stmt_fallback ctx scope ~indent
    | Some (a, n) ->
      emit ctx ~indent "%s[(%s) & %d] = (%s);" a (expr ctx scope ~depth:1) (n - 1)
        (expr ctx scope ~depth:2);
      stmt_ret scope)
  | 6 -> (
    match pick ctx scope.writable with
    | None -> stmt_fallback ctx scope ~indent
    | Some v ->
      (match draw ctx ~bound:3 with
      | 0 -> emit ctx ~indent "%s%s;" v (if draw ctx ~bound:2 = 0 then "++" else "--")
      | _ ->
        emit ctx ~indent "%s %s (%s);" v
          compound_ops.(draw ctx ~bound:(Array.length compound_ops))
          (expr ctx scope ~depth:2));
      stmt_ret scope)
  | 7 when depth > 0 ->
    emit ctx ~indent "if ((%s)) {" (expr ctx scope ~depth:2);
    block ctx scope ~indent:(indent + 1) ~depth:(depth - 1) ~in_loop ~ret_mask;
    if draw ctx ~bound:2 = 0 then begin
      emit ctx ~indent "} else {";
      block ctx scope ~indent:(indent + 1) ~depth:(depth - 1) ~in_loop ~ret_mask
    end;
    emit ctx ~indent "}";
    stmt_ret scope
  | 8 when depth > 0 ->
    (* bounded for: the counter is readable but never writable inside *)
    let i = name ctx "v" in
    let bound = draw ctx ~bound:9 in
    emit ctx ~indent "for (int %s = 0; %s < %d; %s++) {" i i bound i;
    block ctx
      { scope with readable = i :: scope.readable }
      ~indent:(indent + 1) ~depth:(depth - 1) ~in_loop:true ~ret_mask;
    emit ctx ~indent "}";
    stmt_ret scope
  | 9 when depth > 0 ->
    (* bounded while/do-while: decrement first, so [continue] cannot skip
       it and the loop always terminates *)
    let w = name ctx "v" in
    let bound = 1 + draw ctx ~bound:8 in
    let inner = { scope with readable = w :: scope.readable } in
    if draw ctx ~bound:2 = 0 then begin
      emit ctx ~indent "int %s = %d;" w bound;
      emit ctx ~indent "while (%s > 0) {" w;
      emit ctx ~indent:(indent + 1) "%s = %s - 1;" w w;
      block ctx inner ~indent:(indent + 1) ~depth:(depth - 1) ~in_loop:true ~ret_mask;
      emit ctx ~indent "}"
    end
    else begin
      emit ctx ~indent "int %s = %d;" w bound;
      emit ctx ~indent "do {";
      emit ctx ~indent:(indent + 1) "%s = %s - 1;" w w;
      block ctx inner ~indent:(indent + 1) ~depth:(depth - 1) ~in_loop:true ~ret_mask;
      emit ctx ~indent "} while (%s > 0);" w
    end;
    stmt_ret scope
  | 10 when in_loop ->
    emit ctx ~indent "if ((%s)) { %s; }" (expr ctx scope ~depth:1)
      (if draw ctx ~bound:2 = 0 then "break" else "continue");
    stmt_ret scope
  | 11 when depth > 0 ->
    (* guarded early return *)
    emit ctx ~indent "if ((%s)) { return %s; }" (expr ctx scope ~depth:1)
      (ret_expr ~ret_mask (Printf.sprintf "(%s)" (expr ctx scope ~depth:1)));
    stmt_ret scope
  | _ -> (
    match pick ctx ctx.funcs with
    | None -> stmt_fallback ctx scope ~indent
    | Some (f, arity) ->
      let args = List.init arity (fun _ -> expr ctx scope ~depth:1) in
      emit ctx ~indent "%s(%s);" f (String.concat ", " args);
      stmt_ret scope)

and stmt_ret scope = scope

and stmt_fallback ctx scope ~indent =
  emit ctx ~indent "println_int((%s));" (expr ctx scope ~depth:1);
  scope

and block ctx scope ~indent ~depth ~in_loop ~ret_mask =
  let n = 1 + draw ctx ~bound:3 in
  let scope = ref scope in
  for _ = 1 to n do
    scope := stmt ctx !scope ~indent ~depth ~in_loop ~ret_mask
  done

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let globals ctx =
  let n = draw ctx ~bound:3 in
  let scalars = ref [] and arrays = ref [] in
  for _ = 1 to n do
    if draw ctx ~bound:2 = 0 then begin
      let g = name ctx "g" in
      emit ctx ~indent:0 "int %s = %s;" g (global_literal ctx);
      scalars := g :: !scalars
    end
    else begin
      let g = name ctx "g" in
      let len = [| 4; 8 |].(draw ctx ~bound:2) in
      let init = List.init len (fun _ -> global_literal ctx) in
      emit ctx ~indent:0 "int %s[%d] = {%s};" g len (String.concat ", " init);
      arrays := (g, len) :: !arrays
    end
  done;
  (!scalars, !arrays)

let func ctx ~g_scalars ~g_arrays ~is_main =
  let fname, params =
    if is_main then ("main", [])
    else
      let arity = 1 + draw ctx ~bound:3 in
      (name ctx "f", List.init arity (fun _ -> name ctx "v"))
  in
  emit ctx ~indent:0 "";
  emit ctx ~indent:0 "int %s(%s) {" fname
    (String.concat ", " (List.map (fun p -> "int " ^ p) params));
  let scope =
    { readable = params @ g_scalars; writable = params @ g_scalars; arrays = g_arrays }
  in
  let budget = if is_main then 2 + draw ctx ~bound:(max 3 (ctx.size / 2)) else 1 + draw ctx ~bound:(max 2 (ctx.size / 4)) in
  let scope = ref scope in
  for _ = 1 to budget do
    scope := stmt ctx !scope ~indent:1 ~depth:2 ~in_loop:false ~ret_mask:is_main
  done;
  emit ctx ~indent:1 "return %s;"
    (ret_expr ~ret_mask:is_main (Printf.sprintf "(%s)" (expr ctx !scope ~depth:2)));
  emit ctx ~indent:0 "}";
  if not is_main then ctx.funcs <- ctx.funcs @ [ (fname, List.length params) ]

let from ~size tr =
  Eric_telemetry.Span.with_ ~cat:"verif" ~name:"verif.gen" @@ fun () ->
  let ctx = { tr; buf = Buffer.create 1024; fresh = 0; funcs = []; size = max 4 size } in
  let g_scalars, g_arrays = globals ctx in
  let nfuncs = draw ctx ~bound:3 in
  for _ = 1 to nfuncs do
    func ctx ~g_scalars ~g_arrays ~is_main:false
  done;
  func ctx ~g_scalars ~g_arrays ~is_main:true;
  { source = Buffer.contents ctx.buf; trace = Trace.recorded tr }

let generate ?(size = 26) ~seed () = from ~size (Trace.recording ~seed)
let of_trace ?(size = 26) choices = from ~size (Trace.replaying choices)
