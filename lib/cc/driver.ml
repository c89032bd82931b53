type transform = {
  t_tag : string;
  t_apply : Ir.program -> Ir.program;
}

type options = {
  optimize : bool;
  compress : bool;
  transform : transform option;
}

let default_options = { optimize = true; compress = true; transform = None }

let prelude =
  {|
// MiniC runtime: console output over the __write intrinsic.

void print_char(int c) {
  char b[1];
  b[0] = c;
  __write(b, 1);
}

void print_str(char *s) {
  int n = 0;
  while (s[n] != 0) { n = n + 1; }
  __write(s, n);
}

void print_int(int x) {
  char buf[24];
  int i = 24;
  int neg = 0;
  int v = x;
  if (v < 0) { neg = 1; } else { v = 0 - v; }
  if (v == 0) { i = i - 1; buf[i] = '0'; }
  while (v != 0) {
    i = i - 1;
    buf[i] = '0' - (v % 10);
    v = v / 10;
  }
  if (neg) { i = i - 1; buf[i] = '-'; }
  __write(buf + i, 24 - i);
}

void println_int(int x) {
  print_int(x);
  print_char(10);
}

void println_str(char *s) {
  print_str(s);
  print_char(10);
}

void exit(int code) {
  __exit(code);
}

// String and memory helpers (linker GC drops whatever a program never
// calls, so carrying them costs nothing).

int strlen(char *s) {
  int n = 0;
  while (s[n] != 0) { n++; }
  return n;
}

int strcmp(char *a, char *b) {
  int i = 0;
  while (a[i] != 0 && a[i] == b[i]) { i++; }
  return a[i] - b[i];
}

void strcpy(char *dst, char *src) {
  int i = 0;
  while (src[i] != 0) {
    dst[i] = src[i];
    i++;
  }
  dst[i] = 0;
}

void memcpy(char *dst, char *src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i]; }
}

void memset(char *dst, int value, int n) {
  for (int i = 0; i < n; i++) { dst[i] = value; }
}

int memcmp(char *a, char *b, int n) {
  for (int i = 0; i < n; i++) {
    if (a[i] != b[i]) { return a[i] - b[i]; }
  }
  return 0;
}
|}

let span name f = Eric_telemetry.Span.with_ ~cat:"cc" ~name f

(* Internal: carries error-severity verifier findings out of the pass
   pipeline to the driver's result type. *)
exception Ir_invalid of string * Eric_lint.Diag.t list

let fail_on_errors ~stage diags =
  match Ir_verify.errors diags with
  | [] -> ()
  | errs -> raise (Ir_invalid (stage, errs))

let verified f =
  try Ok (f ())
  with Ir_invalid (stage, errs) ->
    Error
      (Format.asprintf "internal error: IR verification failed after %s:@\n%a" stage
         (Format.pp_print_list ~pp_sep:Format.pp_print_newline Eric_lint.Diag.pp)
         errs)

(* Lower a typechecked unit, verify it and, with [optimize], optimise it.
   [linked] are already-compiled functions the unit may call; they come
   first in the returned program, but only the unit's own functions are
   verified and optimised.  Opt.run checks a function after every
   iteration that changed it, and every pass rewrites only the function
   it is given, so the converged program needs no second check. *)
let front_end ~optimize ~linked tast =
  verified (fun () ->
      let own = span "cc.lower" (fun () -> Lower.lower tast) in
      let ir = { own with Ir.p_funcs = linked @ own.Ir.p_funcs } in
      fail_on_errors ~stage:"lowering" (Ir_verify.verify ~funcs:own.Ir.p_funcs ir);
      if optimize then begin
        let verify = Ir_verify.verify_func ir in
        span "cc.opt" (fun () ->
            Opt.run ~check:(fun f -> fail_on_errors ~stage:"optimisation" (verify f)) own)
      end;
      ir)

(* The prelude is parsed, typechecked, lowered, verified and optimised
   once, at module initialisation, into two templates: lowered (for
   [optimize = false]) and optimised.  They are built eagerly: forcing a
   [Lazy] from two domains at once raises [Lazy.Undefined].  The prelude
   defines no globals and no string literals, so its functions alone
   carry everything it contributes to a program. *)
let prelude_ast, lowered_prelude, optimised_prelude =
  let ok = function Ok v -> v | Error e -> failwith ("runtime prelude: " ^ e) in
  let ast = ok (Parser.parse prelude) in
  let tast = ok (Typecheck.check ast) in
  let funcs ~optimize = (ok (front_end ~optimize ~linked:[] tast)).Ir.p_funcs in
  (ast, funcs ~optimize:false, funcs ~optimize:true)

(* Transforms (e.g. the lib/obf obfuscation pipeline) run after the
   optimiser has converged and are never followed by another Opt.run,
   so opaque predicates and encoded arithmetic survive to codegen. *)
let apply_transform transform ir =
  match transform with
  | None -> Ok ir
  | Some t ->
    verified (fun () ->
        let ir = t.t_apply ir in
        fail_on_errors ~stage:("transform " ^ t.t_tag) (Ir_verify.verify ir);
        ir)

let compile_to_ir ?(options = default_options) source =
  let ( let* ) = Result.bind in
  let* ast = Parser.parse source in
  let* tast = span "cc.typecheck" (fun () -> Typecheck.check ~prelude:prelude_ast ast) in
  let template = if options.optimize then optimised_prelude else lowered_prelude in
  (* Opt and the transforms rewrite blocks in place, so every compile
     links its own copies of the template's functions. *)
  let* ir = front_end ~optimize:options.optimize ~linked:(List.map Ir.copy_func template) tast in
  apply_transform options.transform ir

(* Linker-style GC: functions main never reaches (e.g. unused
   runtime-prelude helpers) are dropped before codegen. *)
let gen_input ir =
  if not (List.exists (fun f -> f.Ir.f_name = "main") ir.Ir.p_funcs) then
    Error "program has no main function"
  else
    let ir = { ir with Ir.p_funcs = Opt.reachable_functions ir ~entry:"main" } in
    Ok (span "cc.codegen" (fun () -> Codegen.gen_program ir))

let compile_ir ?(options = default_options) ir =
  Result.bind (gen_input ir) (fun input ->
      span "cc.assemble" (fun () -> Eric_rv.Assemble.assemble ~compress:options.compress input))

let compile ?(options = default_options) source =
  span "cc.compile" (fun () -> Result.bind (compile_to_ir ~options source) (compile_ir ~options))

let compile_to_assembly ?(options = default_options) source =
  let ( let* ) = Result.bind in
  let* ir = compile_to_ir ~options source in
  let* input = gen_input ir in
  Ok (Format.asprintf "%a" Eric_rv.Assemble.pp_input input)

let compile_exn ?options source =
  match compile ?options source with
  | Ok image -> image
  | Error msg -> failwith ("compile error: " ^ msg)
