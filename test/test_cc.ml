(* Tests for the MiniC compiler: front-end diagnostics, IR passes,
   end-to-end golden programs, and a differential property test pitting
   compiled code (run on the simulated SoC) against an independent OCaml
   evaluator with RV64 semantics. *)

open Eric_cc

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let compile_run ?options src =
  match Driver.compile ?options src with
  | Error e -> Alcotest.failf "compile error: %s" e
  | Ok image -> (
    let r = Eric_sim.Soc.run_program image in
    match r.Eric_sim.Soc.status with
    | Eric_sim.Cpu.Exited code -> (code, r.Eric_sim.Soc.output)
    | Eric_sim.Cpu.Faulted m | Eric_sim.Cpu.Integrity_fault m ->
      Alcotest.failf "runtime fault: %s (output %S)" m r.Eric_sim.Soc.output
    | Eric_sim.Cpu.Running -> Alcotest.fail "still running")

let expect_output ?options src expected =
  let _, out = compile_run ?options src in
  check Alcotest.string "output" expected out

let expect_exit ?options src expected =
  let code, _ = compile_run ?options src in
  check Alcotest.int "exit code" expected code

let compile_fails src =
  match Driver.compile src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected a compile error for: %s" src

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "int x = 0x1F + 'a'; // comment\n" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  check Alcotest.bool "shape" true
    (kinds
    = [ Lexer.KW_INT; Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.INT_LIT 0x1FL; Lexer.PLUS;
        Lexer.INT_LIT 97L; Lexer.SEMI; Lexer.EOF ])

let test_lexer_operators () =
  let toks = Lexer.tokenize "<= >= == != << >> && || < >" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  check Alcotest.bool "operators" true
    (kinds
    = [ Lexer.LE; Lexer.GE; Lexer.EQEQ; Lexer.NEQ; Lexer.SHL; Lexer.SHR; Lexer.ANDAND;
        Lexer.OROR; Lexer.LT; Lexer.GT; Lexer.EOF ])

let test_lexer_string_escapes () =
  match (Lexer.tokenize {|"a\n\t\\\""|} : Lexer.loc_token list) with
  | [ { tok = Lexer.STR_LIT s; _ }; _ ] -> check Alcotest.string "escapes" "a\n\t\\\"" s
  | _ -> Alcotest.fail "bad token stream"

let test_lexer_errors () =
  let fails s = try ignore (Lexer.tokenize s); false with Lexer.Lex_error _ -> true in
  check Alcotest.bool "unterminated string" true (fails {|"abc|});
  check Alcotest.bool "unterminated comment" true (fails "/* abc");
  check Alcotest.bool "bad escape" true (fails {|"\q"|});
  check Alcotest.bool "stray char" true (fails "int $x;")

let test_lexer_literal_range () =
  let literal src =
    match Lexer.tokenize src with
    | [ { Lexer.tok = Lexer.INT_LIT v; _ }; _ ] -> v
    | _ -> Alcotest.failf "%s: not one literal" src
  in
  check Alcotest.int64 "largest decimal" Int64.max_int (literal "9223372036854775807");
  check Alcotest.int64 "largest hex" (-1L) (literal "0xFFFFFFFFFFFFFFFF");
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | _ -> Alcotest.failf "%s: lexed" src
      | exception Lexer.Lex_error (msg, pos) ->
        check Alcotest.string (src ^ ": message") "integer literal out of range" msg;
        check Alcotest.(pair int int) (src ^ ": at the literal") (1, 9) (pos.Ast.line, pos.Ast.col))
    [ "int x = 9223372036854775808;"; "int x = 0x1FFFFFFFFFFFFFFFF;" ];
  match Driver.compile "int main() {\n  return 0x1FFFFFFFFFFFFFFFF;\n}" with
  | Error e -> check Alcotest.string "a compile error" "2:10: integer literal out of range" e
  | Ok _ -> Alcotest.fail "compiled"

let test_lexer_comments_positions () =
  let toks = Lexer.tokenize "/* multi\nline */ int\nx" in
  match toks with
  | [ { tok = Lexer.KW_INT; pos = p1 }; { tok = Lexer.IDENT "x"; pos = p2 }; _ ] ->
    check Alcotest.int "int line" 2 p1.Ast.line;
    check Alcotest.int "x line" 3 p2.Ast.line
  | _ -> Alcotest.fail "bad stream"

(* ------------------------------------------------------------------ *)
(* Parser / typechecker diagnostics                                    *)
(* ------------------------------------------------------------------ *)

let test_parse_errors () =
  List.iter
    (fun src -> check Alcotest.bool src true (Result.is_error (Parser.parse src)))
    [ "int main( { return 0; }"; "int main() { return 0 }"; "int main() { if return; }";
      "int main() { int x = ; }"; "int 3x;"; "int main() { x = = 2; }" ]

let test_type_errors () =
  List.iter compile_fails
    [ "int main() { return y; }" (* undefined variable *);
      "int main() { foo(); return 0; }" (* undefined function *);
      "int main() { print_int(1, 2); return 0; }" (* arity *);
      "int main() { int x; x[0] = 1; return 0; }" (* indexing a scalar *);
      "int main() { int xs[4]; xs = 0; return 0; }" (* assigning an array *);
      "int main() { break; }" (* break outside loop *);
      "void f() { return 1; } int main() { return 0; }" (* void returns value *);
      "int main() { int *p; p = 5; return 0; }" (* int to pointer *);
      "int main() { char *c; int *i; c = i; return 0; }" (* pointer mismatch *);
      "int x; int x; int main() { return 0; }" (* duplicate global *);
      "int f() { return 0; } int f() { return 0; } int main() { return 0; }"
      (* duplicate function *);
      "int main(int a, int b, int c, int d, int e, int f, int g, int h, int i) { return 0; }"
      (* too many params *);
      "int main() { return 0; } void v; int g = v;" (* garbage *) ]

let test_no_main () =
  match Driver.compile "int f() { return 1; }" with
  | Error e -> check Alcotest.bool "mentions main" true (e = "program has no main function")
  | Ok _ -> Alcotest.fail "accepted program without main"

let test_positions_count_from_source () =
  (* The prelude is compiled apart from the source, so every front-end
     diagnostic is placed on the source's own lines. *)
  List.iter
    (fun (src, expected) ->
      match Driver.compile src with
      | Error e -> check Alcotest.string src expected e
      | Ok _ -> Alcotest.failf "accepted %S" src)
    [ ("int main() {\n  int $x;\n  return 0;\n}", "2:7: unexpected character '$'");
      ("int main() {\n  return 0\n}", "3:1: expected ';', found '}'");
      ("int main() {\n  return x;\n}", "2:10: undefined variable x");
      ( "int strlen(char *s) { return 0; }\nint main() { return 0; }",
        "1:1: duplicate function strlen" ) ]

(* ------------------------------------------------------------------ *)
(* Golden end-to-end programs                                          *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  expect_output
    {|int main() { println_int(2 + 3 * 4); println_int((2 + 3) * 4); println_int(10 / 3);
       println_int(10 % 3); println_int(-10 / 3); println_int(-10 % 3); return 0; }|}
    "14\n20\n3\n1\n-3\n-1\n"

let test_comparisons () =
  expect_output
    {|int main() {
        println_int(1 < 2); println_int(2 < 1); println_int(2 <= 2);
        println_int(3 > 2); println_int(2 >= 3); println_int(5 == 5); println_int(5 != 5);
        return 0; }|}
    "1\n0\n1\n1\n0\n1\n0\n"

let test_bitwise () =
  expect_output
    {|int main() {
        println_int(12 & 10); println_int(12 | 10); println_int(12 ^ 10);
        println_int(~0); println_int(1 << 10); println_int(-16 >> 2);
        return 0; }|}
    "8\n14\n6\n-1\n1024\n-4\n"

let test_short_circuit_effects () =
  (* The right operand must not run when the left decides. *)
  expect_output
    {|int calls = 0;
      int bump() { calls = calls + 1; return 1; }
      int main() {
        int r1 = 0 && bump();
        int r2 = 1 || bump();
        int r3 = 1 && bump();
        println_int(calls);   // only r3 evaluated bump()
        println_int(r1); println_int(r2); println_int(r3);
        return 0; }|}
    "1\n0\n1\n1\n"

let test_while_break_continue () =
  expect_output
    {|int main() {
        int s = 0;
        int i = 0;
        while (1) {
          i = i + 1;
          if (i > 10) { break; }
          if (i % 2 == 0) { continue; }
          s = s + i;
        }
        println_int(s);  // 1+3+5+7+9 = 25
        return 0; }|}
    "25\n"

let test_for_scoping () =
  expect_output
    {|int main() {
        int i = 99;
        int s = 0;
        for (int i = 0; i < 5; i = i + 1) { s = s + i; }
        println_int(s);
        println_int(i);  // outer i untouched
        return 0; }|}
    "10\n99\n"

let test_nested_loops () =
  expect_output
    {|int main() {
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) {
          for (int j = 0; j < 10; j = j + 1) {
            if (j > i) { break; }
            s = s + 1;
          }
        }
        println_int(s);  // 1+2+...+10 = 55
        return 0; }|}
    "55\n"

let test_recursion_ackermann () =
  expect_output
    {|int ack(int m, int n) {
        if (m == 0) { return n + 1; }
        if (n == 0) { return ack(m - 1, 1); }
        return ack(m - 1, ack(m, n - 1));
      }
      int main() { println_int(ack(2, 3)); println_int(ack(3, 3)); return 0; }|}
    "9\n61\n"

(* Mutual recursion works without forward declarations because the
   typechecker collects every signature before checking bodies. *)
let test_mutual_recursion_two_pass () =
  expect_output
    {|int is_odd(int n) {
        if (n == 0) { return 0; }
        return is_even(n - 1);
      }
      int is_even(int n) {
        if (n == 0) { return 1; }
        return is_odd(n - 1);
      }
      int main() { println_int(is_even(10)); println_int(is_odd(7)); return 0; }|}
    "1\n1\n"

let test_global_arrays_and_strings () =
  expect_output
    {|int fib_cache[32] = {0, 1};
      char label[8] = "fib:";
      int fib(int n) {
        if (n < 2) { return fib_cache[n]; }
        if (fib_cache[n] != 0) { return fib_cache[n]; }
        int v = fib(n - 1) + fib(n - 2);
        fib_cache[n] = v;
        return v;
      }
      int main() {
        print_str(label);
        print_char(' ');
        println_int(fib(30));
        return 0; }|}
    "fib: 832040\n"

let test_char_semantics () =
  expect_output
    {|int main() {
        char c = 255;
        c = c + 1;        // wraps to 0
        println_int(c);
        char d = 'A';
        d = d + 32;
        print_char(d);    // 'a'
        print_char(10);
        char s[4];
        s[0] = 'o'; s[1] = 'k'; s[2] = 0;
        println_str(s);
        return 0; }|}
    "0\na\nok\n"

let test_pointers_and_args () =
  expect_output
    {|void fill(int *xs, int n, int base) {
        for (int i = 0; i < n; i = i + 1) { xs[i] = base + i; }
      }
      int sum(int *xs, int n) {
        int s = 0;
        for (int i = 0; i < n; i = i + 1) { s = s + xs[i]; }
        return s;
      }
      int main() {
        int data[10];
        fill(data, 10, 5);
        println_int(sum(data, 10));  // 5+6+...+14 = 95
        int *p = data;
        println_int(p[3]);           // 8
        println_int(sum(data + 2, 3)); // 7+8+9 = 24
        return 0; }|}
    "95\n8\n24\n"

let test_pointer_difference () =
  expect_output
    {|int main() {
        int xs[10];
        int *a = xs;
        int *b = xs + 7;
        println_int(b - a);
        char cs[10];
        char *c = cs;
        char *d = cs + 7;
        println_int(d - c);
        return 0; }|}
    "7\n7\n"

let test_eight_args () =
  expect_output
    {|int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
        return a + b + c + d + e + f + g + h;
      }
      int main() { println_int(sum8(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }|}
    "36\n"

let test_big_frame () =
  (* Local array larger than the 12-bit immediate range forces the
     big-offset frame paths in codegen. *)
  expect_output
    {|int main() {
        int big[1000];
        for (int i = 0; i < 1000; i = i + 1) { big[i] = i; }
        int s = 0;
        for (int i = 0; i < 1000; i = i + 1) { s = s + big[i]; }
        println_int(s);
        return 0; }|}
    "499500\n"

let test_register_pressure () =
  (* More simultaneously live values than the allocator has registers. *)
  expect_output
    {|int main() {
        int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
        int g = 7; int h = 8; int i = 9; int j = 10; int k = 11; int l = 12;
        int m = 13; int n = 14; int o = 15; int p = 16; int q = 17; int r = 18;
        int s = a + b * c + d * e + f * g + h * i + j * k + l * m + n * o + p * q + r;
        println_int(s);
        println_int(a + b + c + d + e + f + g + h + i + j + k + l + m + n + o + p + q + r);
        return 0; }|}
    (let s = 1 + (2 * 3) + (4 * 5) + (6 * 7) + (8 * 9) + (10 * 11) + (12 * 13) + (14 * 15)
             + (16 * 17) + 18
     in
     Printf.sprintf "%d\n%d\n" s 171)

let test_exit_code () = expect_exit "int main() { return 41; }" 41

let test_exit_builtin () =
  expect_output
    {|int main() {
        println_int(1);
        exit(3);
        println_int(2);  // unreachable
        return 0; }|}
    "1\n";
  expect_exit {|int main() { exit(7); return 0; }|} 7

let test_print_int_extremes () =
  expect_output
    {|int main() {
        println_int(9223372036854775807);
        println_int(-9223372036854775807 - 1);
        println_int(0);
        return 0; }|}
    "9223372036854775807\n-9223372036854775808\n0\n"


(* ------------------------------------------------------------------ *)
(* Extended language features                                          *)
(* ------------------------------------------------------------------ *)

let test_compound_assignment () =
  expect_output
    {|int g = 10;
      int main() {
        int x = 5;
        x += 3; println_int(x);
        x <<= 2; println_int(x);
        x -= 1; x *= 2; println_int(x);
        x /= 4; println_int(x);
        x %= 4; println_int(x);
        x |= 8; x &= 12; x ^= 5; println_int(x);
        g += 5; println_int(g);
        return 0; }|}
    "8\n32\n62\n15\n3\n13\n15\n"

let test_incr_decr () =
  expect_output
    {|int main() {
        int x = 13;
        println_int(x++);
        println_int(x);
        println_int(++x);
        println_int(--x);
        println_int(x--);
        println_int(x);
        int arr[4];
        for (int i = 0; i < 4; ++i) { arr[i] = i * i; }
        arr[2]++;
        println_int(arr[2]);
        return 0; }|}
    "13\n14\n15\n14\n14\n13\n5\n"

let test_address_of_and_deref () =
  expect_output
    {|void bump(int *p, int by) { *p += by; }
      int swap_min(int *a, int *b) {
        if (*a > *b) { int t = *a; *a = *b; *b = t; }
        return *a;
      }
      int main() {
        int x = 5;
        int *p = &x;
        *p = 100;
        println_int(x);
        bump(&x, 23);
        println_int(*p);
        int lo = 9; int hi = 2;
        println_int(swap_min(&lo, &hi));
        println_int(lo); println_int(hi);
        return 0; }|}
    "100\n123\n2\n2\n9\n"

let test_pointer_incr_scaling () =
  expect_output
    {|int main() {
        int arr[5];
        for (int i = 0; i < 5; i++) { arr[i] = 10 * i; }
        int *q = arr;
        q++;
        println_int(*q);
        q += 3;
        println_int(*q);
        q--;
        println_int(*q);
        println_int(q - arr);
        char cs[4];
        cs[0] = 'a'; cs[1] = 'b';
        char *c = cs;
        c++;
        println_int(*c);
        return 0; }|}
    "10\n40\n30\n3\n98\n"

let test_ternary () =
  expect_output
    {|int sign(int v) { return v > 0 ? 1 : (v < 0 ? 0 - 1 : 0); }
      int main() {
        println_int(sign(42)); println_int(sign(-3)); println_int(sign(0));
        int a = 5;
        int b = a > 3 ? a * 2 : a / 2;
        println_int(b);
        // ternary as a call argument and with side effects only in the
        // taken branch
        int hits = 0;
        int r = 1 ? (hits = hits + 1) : (hits = hits + 100);
        println_int(r); println_int(hits);
        return 0; }|}
    "1\n-1\n0\n10\n1\n1\n"

let test_sizeof () =
  expect_output
    {|int main() {
        println_int(sizeof(int));
        println_int(sizeof(char));
        println_int(sizeof(int*));
        println_int(sizeof(char*));
        int xs[8];
        xs[sizeof(int) - 1] = 3;
        println_int(xs[7]);
        return 0; }|}
    "8\n1\n8\n8\n3\n"

let test_do_while () =
  expect_output
    {|int main() {
        int n = 0;
        do { n += 5; } while (n < 12);
        println_int(n);        // body runs until 15
        int m = 100;
        do { m = m + 1; } while (0);
        println_int(m);        // body runs exactly once
        int k = 0;
        int rounds = 0;
        do {
          rounds++;
          if (rounds == 3) { break; }
          k = k + 10;
        } while (1);
        println_int(k); println_int(rounds);
        return 0; }|}
    "15\n101\n20\n3\n"

let test_char_compound_wraps () =
  expect_output
    {|int main() {
        char c = 250;
        c += 10;
        println_int(c);   // 4
        c++;
        println_int(c);   // 5
        c -= 10;
        println_int(c);   // 251
        return 0; }|}
    "4\n5\n251\n"

let test_addressed_param () =
  (* Taking the address of a parameter forces it into the frame. *)
  expect_output
    {|int twice_via_self(int v) {
        int *p = &v;
        *p = *p * 2;
        return v;
      }
      int main() { println_int(twice_via_self(21)); return 0; }|}
    "42\n"

let test_extended_type_errors () =
  List.iter compile_fails
    [ "int main() { int x; &x = 0; return 0; }" (* & is not an lvalue *);
      "int main() { int x; *x = 1; return 0; }" (* deref of int *);
      "int main() { 5++; return 0; }" (* ++ on rvalue *);
      "int main() { int xs[3]; xs += 1; return 0; }" (* compound on array *);
      "int main() { int *p; p *= 2; return 0; }" (* * on pointer *);
      "int main() { int x = 1 ? 2 : (int*)0; return 0; }" (* parse error: cast *) ;
      "int main() { return sizeof(void); }" (* sizeof void *) ]

(* ------------------------------------------------------------------ *)
(* Pass pipeline invariants                                            *)
(* ------------------------------------------------------------------ *)

let golden_sources =
  [ "int main() { int s = 0; for (int i = 0; i < 50; i = i + 1) { s = s + i * i; } println_int(s); return s % 256; }";
    "int f(int n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); } int main() { println_int(f(15)); return 0; }";
    "char buf[64]; int main() { for (int i = 0; i < 26; i = i + 1) { buf[i] = 'a' + i; } buf[26] = 0; println_str(buf); return 0; }" ]

let test_optimize_preserves_semantics () =
  List.iter
    (fun src ->
      let opt = { Driver.default_options with Driver.optimize = true } in
      let raw = { Driver.default_options with Driver.optimize = false } in
      let c1, o1 = compile_run ~options:opt src in
      let c2, o2 = compile_run ~options:raw src in
      check Alcotest.int "exit codes agree" c1 c2;
      check Alcotest.string "outputs agree" o1 o2)
    golden_sources

let test_compress_preserves_semantics () =
  List.iter
    (fun src ->
      let on = { Driver.default_options with Driver.compress = true } in
      let off = { Driver.default_options with Driver.compress = false } in
      let c1, o1 = compile_run ~options:on src in
      let c2, o2 = compile_run ~options:off src in
      check Alcotest.int "exit codes agree" c1 c2;
      check Alcotest.string "outputs agree" o1 o2)
    golden_sources

let test_optimizer_shrinks_ir () =
  let src =
    "int main() { int x = 2 + 3; int dead = 100 * 100; int y = x * 1 + 0; println_int(y); return 0; }"
  in
  let count options =
    match Driver.compile_to_ir ~options src with
    | Ok ir ->
      List.fold_left (fun acc f -> acc + Ir.instruction_count f) 0 ir.Ir.p_funcs
    | Error e -> Alcotest.fail e
  in
  let optimised = count { Driver.default_options with Driver.optimize = true } in
  let plain = count { Driver.default_options with Driver.optimize = false } in
  check Alcotest.bool "fewer instructions" true (optimised < plain)

let test_const_fold_unit () =
  (* div by zero must not fold (runtime semantics), algebra must. *)
  let block = { Ir.b_label = 0; body = [ Ir.Bin (Ir.Div, 0, Ir.Imm 1L, Ir.Imm 0L);
                                         Ir.Bin (Ir.Add, 1, Ir.Temp 0, Ir.Imm 0L) ];
                term = Ir.Ret (Some (Ir.Temp 1)) }
  in
  let f = { Ir.f_name = "t"; f_params = []; f_blocks = [ block ]; f_slots = []; f_temp_count = 2 } in
  ignore (Opt.const_fold f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Bin (Ir.Div, _, _, _); Ir.Move (1, Ir.Temp 0) ] -> ()
  | _ -> Alcotest.fail "unexpected fold result")


let simple_func blocks temp_count =
  { Ir.f_name = "t"; f_params = []; f_blocks = blocks; f_slots = []; f_temp_count = temp_count }

let test_copy_prop_unit () =
  (* t1 = t0; t2 = t1 + 1  ==>  t2 = t0 + 1 *)
  let b =
    { Ir.b_label = 0;
      body = [ Ir.Move (1, Ir.Temp 0); Ir.Bin (Ir.Add, 2, Ir.Temp 1, Ir.Imm 1L) ];
      term = Ir.Ret (Some (Ir.Temp 2)) }
  in
  let f = simple_func [ b ] 3 in
  check Alcotest.bool "changed" true (Opt.copy_prop f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Move _; Ir.Bin (Ir.Add, 2, Ir.Temp 0, Ir.Imm 1L) ] -> ()
  | _ -> Alcotest.fail "copy not propagated");
  (* redefinition kills the mapping: t1 = t0; t0 = 5; t2 = t1 must still
     read the OLD t0 - so t1 must NOT be replaced by t0 after the kill *)
  let b2 =
    { Ir.b_label = 0;
      body = [ Ir.Move (1, Ir.Temp 0); Ir.Move (0, Ir.Imm 5L); Ir.Move (2, Ir.Temp 1) ];
      term = Ir.Ret (Some (Ir.Temp 2)) }
  in
  let f2 = simple_func [ b2 ] 3 in
  ignore (Opt.copy_prop f2);
  (match (List.hd f2.Ir.f_blocks).Ir.body with
  | [ _; _; Ir.Move (2, Ir.Temp 1) ] -> ()
  | [ _; _; Ir.Move (2, v) ] ->
    Alcotest.failf "stale propagation to %s" (Format.asprintf "%a" Ir.pp_value v)
  | _ -> Alcotest.fail "unexpected shape")

let test_dce_unit () =
  (* dead pure instruction removed; side-effecting kept *)
  let b =
    { Ir.b_label = 0;
      body =
        [ Ir.Bin (Ir.Mul, 0, Ir.Imm 100L, Ir.Imm 100L) (* dead *);
          Ir.Store (Ir.W64, Ir.Imm 0x11000L, Ir.Imm 1L) (* kept: side effect *);
          Ir.Bin (Ir.Add, 1, Ir.Imm 1L, Ir.Imm 2L) (* live via ret *) ];
      term = Ir.Ret (Some (Ir.Temp 1)) }
  in
  let f = simple_func [ b ] 2 in
  check Alcotest.bool "changed" true (Opt.dce f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Store _; Ir.Bin (Ir.Add, 1, _, _) ] -> ()
  | body -> Alcotest.failf "unexpected %d instrs" (List.length body))

let test_dce_transitive () =
  (* chain of dead temps collapses entirely *)
  let b =
    { Ir.b_label = 0;
      body =
        [ Ir.Bin (Ir.Add, 0, Ir.Imm 1L, Ir.Imm 2L); Ir.Bin (Ir.Add, 1, Ir.Temp 0, Ir.Imm 3L);
          Ir.Bin (Ir.Add, 2, Ir.Temp 1, Ir.Imm 4L) ];
      term = Ir.Ret None }
  in
  let f = simple_func [ b ] 3 in
  ignore (Opt.dce f);
  check Alcotest.int "all dead removed" 0 (List.length (List.hd f.Ir.f_blocks).Ir.body)

let test_simplify_cfg_unit () =
  (* constant branch folds, unreachable block drops, empty block threads *)
  let entry = { Ir.b_label = 0; body = []; term = Ir.Br (Ir.Imm 1L, 1, 2) } in
  let fwd = { Ir.b_label = 1; body = []; term = Ir.Jmp 3 } in
  let dead = { Ir.b_label = 2; body = []; term = Ir.Ret None } in
  let final = { Ir.b_label = 3; body = []; term = Ir.Ret (Some (Ir.Imm 7L)) } in
  let f = simple_func [ entry; fwd; dead; final ] 0 in
  check Alcotest.bool "changed" true (Opt.simplify_cfg f);
  let labels = List.map (fun b -> b.Ir.b_label) f.Ir.f_blocks in
  check Alcotest.bool "dead block gone" false (List.mem 2 labels);
  (match (List.hd f.Ir.f_blocks).Ir.term with
  | Ir.Jmp target -> check Alcotest.bool "threads through the empty block" true (target = 3 || target = 1)
  | _ -> Alcotest.fail "branch did not fold")

let test_regalloc_assigns_everything () =
  (* every temp referenced by the IR ends up with a register or a slot *)
  let src =
    "int f(int a, int b) { int c = a * b; int d = c + a; return d - b; }\n\
     int main() { println_int(f(6, 7)); return 0; }"
  in
  match Driver.compile_to_ir src with
  | Error e -> Alcotest.fail e
  | Ok ir ->
    List.iter
      (fun f ->
        let alloc = Regalloc.allocate f in
        List.iter
          (fun b ->
            List.iter
              (fun i ->
                List.iter
                  (fun t ->
                    match Hashtbl.find_opt alloc.Regalloc.assign t with
                    | Some _ -> ()
                    | None -> Alcotest.failf "%s: t%d unassigned" f.Ir.f_name t)
                  (Ir.uses_of i @ Option.to_list (Ir.def_of i)))
              b.Ir.body)
          f.Ir.f_blocks)
      ir.Ir.p_funcs

let test_regalloc_call_crossing_callee_saved () =
  (* temps live across a call must not sit in caller-saved registers *)
  let src =
    "int g(int x) { return x + 1; }\n\
     int main() { int keep = 41; int r = g(1); println_int(keep + r); return 0; }"
  in
  (* without optimisation so the constant is not propagated past the call *)
  match Driver.compile_to_ir ~options:{ Driver.default_options with Driver.optimize = false } src with
  | Error e -> Alcotest.fail e
  | Ok ir ->
    let f = List.find (fun f -> f.Ir.f_name = "main") ir.Ir.p_funcs in
    let alloc = Regalloc.allocate f in
    (* just assert the compiled program is right - the golden check - and
       that at least one callee-saved register or spill was used *)
    check Alcotest.bool "uses callee-saved or spill" true
      (alloc.Regalloc.used_callee_saved <> [] || alloc.Regalloc.spill_slots > 0);
    expect_output src "43\n"


let test_runtime_string_helpers () =
  expect_output
    {|char buf[32];
      char other[32];
      int main() {
        strcpy(buf, "hello");
        println_int(strlen(buf));                 // 5
        println_int(strcmp(buf, "hello"));        // 0
        println_int(strcmp(buf, "help") < 0);     // 'l' < 'p' -> 1
        println_int(strcmp("b", "a"));            // 1
        strcpy(other, buf);
        memset(other, 'x', 2);
        println_str(other);                       // xxllo
        memcpy(buf + 1, other, 3);
        println_str(buf);                         // hxxlo
        println_int(memcmp(buf, buf, 5));         // 0
        println_int(memcmp("abc", "abd", 3) != 0);// 1
        return 0; }|}
    "5\n0\n1\n1\nxxllo\nhxxlo\n0\n1\n"

let test_linker_gc_drops_unused_prelude () =
  (* A program that calls nothing from the runtime must be much smaller
     than one that uses print_int (which drags in the decimal printer). *)
  let bare = "int main() { __exit(7); return 0; }" in
  let printing = "int main() { println_int(7); return 0; }" in
  let size src =
    match Driver.compile src with
    | Ok img -> Eric_rv.Program.text_size img
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "unused runtime dropped" true (size bare * 2 < size printing);
  expect_exit bare 7

let test_linker_gc_keeps_recursion () =
  (* mutual recursion must survive the reachability walk *)
  expect_output
    {|int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
      int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
      int main() { println_int(even(8)); return 0; }|}
    "1\n"


let test_strength_reduction () =
  let b =
    { Ir.b_label = 0;
      body = [ Ir.Bin (Ir.Mul, 1, Ir.Temp 0, Ir.Imm 8L); Ir.Bin (Ir.Mul, 2, Ir.Imm 16L, Ir.Temp 1);
               Ir.Bin (Ir.Mul, 3, Ir.Temp 2, Ir.Imm 6L) (* not a power of two *) ];
      term = Ir.Ret (Some (Ir.Temp 3)) }
  in
  let f = simple_func [ b ] 4 in
  ignore (Opt.const_fold f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Bin (Ir.Shl, 1, Ir.Temp 0, Ir.Imm 3L); Ir.Bin (Ir.Shl, 2, Ir.Temp 1, Ir.Imm 4L);
      Ir.Bin (Ir.Mul, 3, _, _) ] -> ()
  | _ -> Alcotest.fail "strength reduction mismatch");
  (* semantics preserved end to end, including negatives and wraparound *)
  expect_output
    "int main() { int x = -7; println_int(x * 8); println_int(x * 1024); int y = 3; println_int(y * 4 * 4); return 0; }"
    "-56\n-7168\n48\n"


let test_emit_assembly_roundtrip () =
  (* -S output re-assembled must behave identically to direct compilation,
     for a program covering data, bss, strings, calls and loops. *)
  let src =
    {|int table[6] = {5, 4, 3, 2, 1, 0};
      int counters[4];
      char tag[8] = "sum";
      int main() {
        int s = 0;
        for (int i = 0; i < 6; i++) { s += table[i] * i; counters[i % 4]++; }
        print_str(tag); print_char(61); println_int(s);
        println_int(counters[0] + 10 * counters[1]);
        return s % 7;
      }|}
  in
  let asm_text =
    match Driver.compile_to_assembly src with Ok t -> t | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "mentions main" true
    (let contains hay needle =
       let n = String.length needle in
       let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains asm_text "main:" && contains asm_text ".data" && contains asm_text ".bss");
  let direct = compile_run src in
  let via_asm =
    match Eric_rv.Asm.assemble asm_text with
    | Error e -> Alcotest.failf "reassembly failed: %s" e
    | Ok image -> (
      let r = Eric_sim.Soc.run_program image in
      match r.Eric_sim.Soc.status with
      | Eric_sim.Cpu.Exited code -> (code, r.Eric_sim.Soc.output)
      | _ -> Alcotest.fail "asm build did not exit")
  in
  check Alcotest.int "same exit" (fst direct) (fst via_asm);
  check Alcotest.string "same output" (snd direct) (snd via_asm)

let test_emit_assembly_workloads () =
  (* the -S roundtrip holds for real workloads too *)
  List.iter
    (fun name ->
      let w = Option.get (Eric_workloads.Workloads.by_name name) in
      let src = w.Eric_workloads.Workloads.source_small in
      let asm_text =
        match Driver.compile_to_assembly src with Ok t -> t | Error e -> Alcotest.fail e
      in
      let direct = compile_run src in
      match Eric_rv.Asm.assemble asm_text with
      | Error e -> Alcotest.failf "%s: reassembly failed: %s" name e
      | Ok image ->
        let r = Eric_sim.Soc.run_program image in
        check Alcotest.string (name ^ " output") (snd direct) r.Eric_sim.Soc.output)
    [ "crc32"; "adpcm" ]


let test_cse_unit () =
  (* identical pure computations collapse; commutativity is normalised *)
  let b =
    { Ir.b_label = 0;
      body =
        [ Ir.Bin (Ir.Add, 1, Ir.Temp 0, Ir.Imm 8L); Ir.Bin (Ir.Add, 2, Ir.Imm 8L, Ir.Temp 0);
          Ir.Bin (Ir.Add, 3, Ir.Temp 1, Ir.Temp 2) ];
      term = Ir.Ret (Some (Ir.Temp 3)) }
  in
  let f = simple_func [ b ] 4 in
  check Alcotest.bool "changed" true (Opt.cse f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Bin _; Ir.Move (2, Ir.Temp 1); Ir.Bin _ ] -> ()
  | _ -> Alcotest.fail "commuted duplicate not eliminated")

let test_cse_redefinition_safe () =
  (* d = d + 1 twice must NOT collapse: the second reads the new d *)
  let b =
    { Ir.b_label = 0;
      body = [ Ir.Bin (Ir.Add, 0, Ir.Temp 0, Ir.Imm 1L); Ir.Bin (Ir.Add, 0, Ir.Temp 0, Ir.Imm 1L) ];
      term = Ir.Ret (Some (Ir.Temp 0)) }
  in
  let f = simple_func [ b ] 1 in
  ignore (Opt.cse f);
  (match (List.hd f.Ir.f_blocks).Ir.body with
  | [ Ir.Bin _; Ir.Bin _ ] -> ()
  | _ -> Alcotest.fail "self-referential increment was wrongly eliminated");
  (* and operand redefinition invalidates the cached expression *)
  let b2 =
    { Ir.b_label = 0;
      body =
        [ Ir.Bin (Ir.Add, 1, Ir.Temp 0, Ir.Imm 8L); Ir.Move (0, Ir.Imm 5L);
          Ir.Bin (Ir.Add, 2, Ir.Temp 0, Ir.Imm 8L) ];
      term = Ir.Ret (Some (Ir.Temp 2)) }
  in
  let f2 = simple_func [ b2 ] 3 in
  ignore (Opt.cse f2);
  (match (List.hd f2.Ir.f_blocks).Ir.body with
  | [ Ir.Bin _; Ir.Move _; Ir.Bin _ ] -> ()
  | _ -> Alcotest.fail "stale expression survived an operand redefinition")

let test_cse_shrinks_array_loops () =
  (* array writes + reads at the same index share address computations *)
  let src =
    "int xs[8];\n\
     int main() { int s = 0; for (int i = 0; i < 8; i++) { xs[i] = i; s += xs[i]; } println_int(s); return 0; }"
  in
  let count options =
    match Driver.compile_to_ir ~options src with
    | Ok ir -> List.fold_left (fun acc f -> acc + Ir.instruction_count f) 0 ir.Ir.p_funcs
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "optimised smaller" true
    (count Driver.default_options
    < count { Driver.default_options with Driver.optimize = false });
  expect_output src "28\n"

let test_unchanged_iteration_needs_no_check () =
  (* Opt.run checks a function only after an iteration that changed it.
     Drive its five passes by hand instead, verifying after every
     iteration, and pin what makes skipping the others lossless: an
     iteration in which every pass returns false leaves the function
     exactly as it was. *)
  let passes = [ Opt.const_fold; Opt.copy_prop; Opt.cse; Opt.dce; Opt.simplify_cfg ] in
  (* Opt.run's loop, with its budget of 10 iterations *)
  let optimise name ir (f : Ir.func) =
    let rec iterate budget =
      if budget > 0 then begin
        let before = Ir.copy_func f in
        let changed = List.exists Fun.id (List.map (fun pass -> pass f) passes) in
        (match Ir_verify.errors (Ir_verify.verify_func ir f) with
        | [] -> ()
        | d :: _ -> Alcotest.failf "%s/%s: %a" name f.Ir.f_name Eric_lint.Diag.pp d);
        if changed then iterate (budget - 1)
        else if f <> before then
          Alcotest.failf "%s/%s: an iteration that reported no change rewrote it" name
            f.Ir.f_name
      end
    in
    iterate 10
  in
  let unoptimised = { Driver.default_options with Driver.optimize = false } in
  let sources =
    List.concat_map
      (fun (w : Eric_workloads.Workloads.t) ->
        [ (w.name ^ " small", w.source_small); (w.name ^ " large", w.source) ])
      Eric_workloads.Workloads.all
    @ List.init 250 (fun i ->
          let seed = Int64.of_int (0xC0DE + i) in
          (Printf.sprintf "gen %Ld" seed, (Eric_verif.Gen.generate ~seed ()).Eric_verif.Gen.source))
  in
  List.iter
    (fun (name, src) ->
      match (Driver.compile_to_ir ~options:unoptimised src, Driver.compile_to_ir src) with
      | Ok ir, Ok optimised ->
        List.iter (optimise name ir) ir.Ir.p_funcs;
        check Alcotest.bool (name ^ ": same result as Opt.run") true
          (ir.Ir.p_funcs = optimised.Ir.p_funcs)
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" name e)
    sources


let test_counter_intrinsics () =
  expect_output
    {|int main() {
        int c0 = __cycles();
        int i0 = __instret();
        int s = 0;
        for (int i = 0; i < 100; i++) { s += i; }
        int c1 = __cycles();
        int i1 = __instret();
        println_int(s);
        println_int(c1 > c0);        // time moved forward
        println_int(i1 - i0 > 300);  // the loop retired > 300 instructions
        println_int(i1 - i0 < 2000); // ... but not thousands
        return 0; }|}
    "4950\n1\n1\n1\n"

(* ------------------------------------------------------------------ *)
(* Differential testing: random expressions                            *)
(* ------------------------------------------------------------------ *)

type expr =
  | Lit of int64
  | Var of int (* index into the fixed variable set *)
  | Un of string * expr
  | Bin of string * expr * expr

let var_values = [| 7L; -3L; 1000L; -123456789L; 0x0F0F0F0FL |]

let rec gen_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof [ map (fun v -> Lit (Int64.of_int v)) (int_range (-1000) 1000);
            map (fun i -> Var i) (int_bound (Array.length var_values - 1)) ]
  else
    let sub = gen_expr (depth - 1) in
    frequency
      [ (1, map (fun v -> Lit (Int64.of_int v)) (int_range (-1000) 1000));
        (1, map (fun i -> Var i) (int_bound (Array.length var_values - 1)));
        (2, map2 (fun op e -> Un (op, e)) (oneofl [ "-"; "~"; "!" ]) sub);
        (6, map3 (fun op a b -> Bin (op, a, b))
             (oneofl [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "<"; "<="; ">"; ">="; "=="; "!=" ])
             sub sub);
        (1, map2 (fun a sh -> Bin ("<<", a, Lit (Int64.of_int sh))) sub (int_bound 20));
        (1, map2 (fun a sh -> Bin (">>", a, Lit (Int64.of_int sh))) sub (int_bound 20)) ]

let rec print_expr = function
  | Lit v -> if Int64.compare v 0L < 0 then Printf.sprintf "(0 - %Ld)" (Int64.neg v) else Int64.to_string v
  | Var i -> Printf.sprintf "v%d" i
  | Un (op, e) -> Printf.sprintf "(%s%s)" op (print_expr e)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (print_expr a) op (print_expr b)

(* RV64 semantics reference evaluator. *)
let rec eval = function
  | Lit v -> v
  | Var i -> var_values.(i)
  | Un ("-", e) -> Int64.neg (eval e)
  | Un ("~", e) -> Int64.lognot (eval e)
  | Un ("!", e) -> if eval e = 0L then 1L else 0L
  | Un (op, _) -> failwith ("bad unop " ^ op)
  | Bin (op, a, b) -> (
    let x = eval a and y = eval b in
    let bool_ c = if c then 1L else 0L in
    match op with
    | "+" -> Int64.add x y
    | "-" -> Int64.sub x y
    | "*" -> Int64.mul x y
    | "/" -> if y = 0L then -1L else if x = Int64.min_int && y = -1L then Int64.min_int else Int64.div x y
    | "%" -> if y = 0L then x else if x = Int64.min_int && y = -1L then 0L else Int64.rem x y
    | "&" -> Int64.logand x y
    | "|" -> Int64.logor x y
    | "^" -> Int64.logxor x y
    | "<<" -> Int64.shift_left x (Int64.to_int (Int64.logand y 63L))
    | ">>" -> Int64.shift_right x (Int64.to_int (Int64.logand y 63L))
    | "<" -> bool_ (Int64.compare x y < 0)
    | "<=" -> bool_ (Int64.compare x y <= 0)
    | ">" -> bool_ (Int64.compare x y > 0)
    | ">=" -> bool_ (Int64.compare x y >= 0)
    | "==" -> bool_ (Int64.equal x y)
    | "!=" -> bool_ (not (Int64.equal x y))
    | _ -> failwith ("bad binop " ^ op))

let arb_expr = QCheck.make ~print:print_expr (gen_expr 4)

let differential_expressions =
  qtest ~count:150 "compiled expression = reference evaluation" arb_expr (fun e ->
      let expected = eval e in
      let decls =
        String.concat "\n"
          (List.mapi (fun i v -> Printf.sprintf "int v%d = %Ld;" i v)
             (Array.to_list var_values))
      in
      (* variables as globals so the compiler cannot constant-fold them
         away (their initialisers are runtime data in .data) *)
      let src =
        Printf.sprintf "%s\nint main() { println_int(%s); return 0; }" decls (print_expr e)
      in
      let _, out = compile_run src in
      out = Printf.sprintf "%Ld\n" expected)

let differential_unoptimised =
  qtest ~count:60 "unoptimised compiled expression = reference" arb_expr (fun e ->
      let expected = eval e in
      let decls =
        String.concat "\n"
          (List.mapi (fun i v -> Printf.sprintf "int v%d = %Ld;" i v)
             (Array.to_list var_values))
      in
      let src =
        Printf.sprintf "%s\nint main() { println_int(%s); return 0; }" decls (print_expr e)
      in
      let _, out =
        compile_run ~options:{ Driver.default_options with Driver.optimize = false } src
      in
      out = Printf.sprintf "%Ld\n" expected)


(* ------------------------------------------------------------------ *)
(* Differential testing: random statement-level programs               *)
(* ------------------------------------------------------------------ *)

type rstmt =
  | R_assign of int * expr
  | R_compound of string * int * expr
  | R_incr of int * bool
  | R_if of expr * rstmt list * rstmt list
  | R_for of int * rstmt list  (** literal iteration count; fresh counter *)

let num_vars = Array.length var_values

let rec gen_rstmt depth =
  let open QCheck.Gen in
  let var = int_bound (num_vars - 1) in
  let expr = gen_expr 2 in
  if depth = 0 then
    frequency
      [ (4, map2 (fun v e -> R_assign (v, e)) var expr);
        (3, map3 (fun op v e -> R_compound (op, v, e))
             (oneofl [ "+="; "-="; "*="; "&="; "|="; "^=" ]) var expr);
        (2, map2 (fun v up -> R_incr (v, up)) var bool) ]
  else
    frequency
      [ (4, map2 (fun v e -> R_assign (v, e)) var expr);
        (3, map3 (fun op v e -> R_compound (op, v, e))
             (oneofl [ "+="; "-="; "*="; "&="; "|="; "^=" ]) var expr);
        (2, map2 (fun v up -> R_incr (v, up)) var bool);
        (2, map3 (fun c t e -> R_if (c, t, e)) expr
             (list_size (int_bound 3) (gen_rstmt (depth - 1)))
             (list_size (int_bound 2) (gen_rstmt (depth - 1))));
        (2, map2 (fun n body -> R_for (1 + n, body)) (int_bound 5)
             (list_size (int_bound 3) (gen_rstmt (depth - 1)))) ]

let rec print_rstmt ~indent counter stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | R_assign (v, e) -> Printf.sprintf "%sv%d = %s;" pad v (print_expr e)
  | R_compound (op, v, e) -> Printf.sprintf "%sv%d %s %s;" pad v op (print_expr e)
  | R_incr (v, true) -> Printf.sprintf "%sv%d++;" pad v
  | R_incr (v, false) -> Printf.sprintf "%sv%d--;" pad v
  | R_if (c, t, e) ->
    Printf.sprintf "%sif (%s) {\n%s\n%s} else {\n%s\n%s}" pad (print_expr c)
      (print_rstmts ~indent:(indent + 2) counter t)
      pad
      (print_rstmts ~indent:(indent + 2) counter e)
      pad
  | R_for (n, body) ->
    let c = !counter in
    incr counter;
    Printf.sprintf "%sfor (int it%d = 0; it%d < %d; it%d++) {\n%s\n%s}" pad c c n c
      (print_rstmts ~indent:(indent + 2) counter body)
      pad

and print_rstmts ~indent counter stmts =
  String.concat "\n" (List.map (print_rstmt ~indent counter) stmts)

(* Reference interpreter with RV64 semantics over a mutable environment. *)
let rec exec_rstmt env stmt =
  let eval_with e =
    (* reuse the expression evaluator, reading vars from env *)
    let rec ev = function
      | Lit v -> v
      | Var i -> env.(i)
      | Un (op, e) -> eval (Un (op, Lit (ev e)))
      | Bin (op, a, b) -> eval (Bin (op, Lit (ev a), Lit (ev b)))
    in
    ev e
  in
  match stmt with
  | R_assign (v, e) -> env.(v) <- eval_with e
  | R_compound (op, v, e) ->
    let rhs = eval_with e in
    let binop = String.sub op 0 (String.length op - 1) in
    env.(v) <- eval (Bin (binop, Lit env.(v), Lit rhs))
  | R_incr (v, up) -> env.(v) <- Int64.add env.(v) (if up then 1L else -1L)
  | R_if (c, t, e) -> if eval_with c <> 0L then List.iter (exec_rstmt env) t else List.iter (exec_rstmt env) e
  | R_for (n, body) ->
    for _ = 1 to n do
      List.iter (exec_rstmt env) body
    done

let rec rstmt_print_ast stmt =
  match stmt with
  | R_assign (v, e) -> Printf.sprintf "v%d = %s" v (print_expr e)
  | R_compound (op, v, e) -> Printf.sprintf "v%d %s %s" v op (print_expr e)
  | R_incr (v, up) -> Printf.sprintf "v%d%s" v (if up then "++" else "--")
  | R_if (c, t, e) ->
    Printf.sprintf "if(%s){%s}else{%s}" (print_expr c)
      (String.concat "; " (List.map rstmt_print_ast t))
      (String.concat "; " (List.map rstmt_print_ast e))
  | R_for (n, body) ->
    Printf.sprintf "for(%d){%s}" n (String.concat "; " (List.map rstmt_print_ast body))

let arb_program =
  QCheck.make
    ~print:(fun stmts -> String.concat "\n" (List.map rstmt_print_ast stmts))
    QCheck.Gen.(list_size (int_bound 6) (gen_rstmt 2))

let differential_programs =
  qtest ~count:60 "compiled random program = reference interpreter" arb_program (fun stmts ->
      (* initial values exercise negatives and large magnitudes *)
      let init = [| 3L; -17L; 123456789L; -2L; 0x0F0F0F0FL |] in
      let env = Array.copy init in
      List.iter (exec_rstmt env) stmts;
      let counter = ref 0 in
      let body = print_rstmts ~indent:2 counter stmts in
      let decls =
        String.concat "\n"
          (List.mapi (fun i v -> Printf.sprintf "  int v%d = %Ld;" i v) (Array.to_list init))
      in
      let prints =
        String.concat "\n"
          (List.init num_vars (fun i -> Printf.sprintf "  println_int(v%d);" i))
      in
      let src = Printf.sprintf "int main() {\n%s\n%s\n%s\n  return 0;\n}" decls body prints in
      let _, out = compile_run src in
      let expected =
        String.concat "" (List.map (Printf.sprintf "%Ld\n") (Array.to_list env))
      in
      (* three-way: the IR interpreter must agree with both the reference
         evaluator and the compiled program on the SoC *)
      let interp_out =
        match Driver.compile_to_ir src with
        | Ok ir -> (Ir_interp.run ir).Ir_interp.output
        | Error e -> Alcotest.fail e
      in
      out = expected && interp_out = expected)

(* The interpreter holds its memory in 4 KiB pages: a 64-bit access that
   straddles two of them, an unwritten page and the top of the address
   space must read and fault exactly as one flat 4 MiB buffer does. *)
let interp_main body term =
  let main =
    { Ir.f_name = "main"; f_params = []; f_slots = []; f_temp_count = 2;
      f_blocks = [ { Ir.b_label = 0; body; term } ] }
  in
  Ir_interp.run { Ir.p_funcs = [ main ]; p_data = []; p_bss = [] }

let test_interp_pages () =
  let o =
    interp_main
      [ Ir.Store (Ir.W64, Ir.Imm 4092L, Ir.Imm 0x0807060504030201L);
        Ir.Write (Ir.Imm 4092L, Ir.Imm 8L);
        Ir.Load (Ir.W64, 0, Ir.Imm 8188L) (* never written, straddling *);
        Ir.Store (Ir.W8, Ir.Imm 4096L, Ir.Temp 0);
        Ir.Load (Ir.W64, 1, Ir.Imm 4092L) ]
      (Ir.Ret (Some (Ir.Temp 1)))
  in
  check Alcotest.string "little-endian across the boundary" "\001\002\003\004\005\006\007\008"
    o.Ir_interp.output;
  check Alcotest.int "byte store into the second page" 0x0807060004030201 o.Ir_interp.exit_code;
  let top = (4 * 1024 * 1024) - 8 in
  let o =
    interp_main
      [ Ir.Store (Ir.W64, Ir.Imm (Int64.of_int top), Ir.Imm 42L);
        Ir.Load (Ir.W64, 0, Ir.Imm (Int64.of_int top)) ]
      (Ir.Ret (Some (Ir.Temp 0)))
  in
  check Alcotest.int "last word" 42 o.Ir_interp.exit_code;
  Alcotest.check_raises "past the top"
    (Ir_interp.Runtime_error "memory access out of bounds: 0x3ffffc (+8)") (fun () ->
      ignore (interp_main [ Ir.Load (Ir.W64, 0, Ir.Imm 0x3ffffcL) ] (Ir.Ret None)))

(* Addresses near [max_int], where [addr + len] wraps: each access must
   raise the byte store's trap message, as the SoC paths trap. *)
let huge_index = "int a[4]; int main() { int i = 576460752303422975; "
let top_word_trap = "memory access out of bounds: 0x3ffffffffffffff8 (+8)"

let wrapping_accesses =
  [ ("store", huge_index ^ "a[i] = 1; return 0; }", top_word_trap);
    ("load", huge_index ^ "return a[i]; }", top_word_trap);
    ( "write",
      "char s[4]; int main() { __write(s, 4611686018427387903); return 3; }",
      "memory access out of bounds: 0x1000 (+4611686018427387903)" ) ]

let test_wrapping_access src msg () =
  match Driver.compile_to_ir src with
  | Error e -> Alcotest.fail e
  | Ok ir ->
    Alcotest.check_raises "trap" (Ir_interp.Runtime_error msg) (fun () -> ignore (Ir_interp.run ir))

(* Globals that reach past the interpreter stack's 2 MiB floor, where the
   SoC's 16 MiB still hold them.  Laid out anyway, the first program's
   store landed past the 4 MiB top (a trap where the SoC exits 42), and
   the second program's array ran into [f]'s frame ([b.(2)] read 3 where
   the SoC reads 42).  The interpreter refuses both before running. *)
let oversized_globals =
  [ "int a[524300]; int main() { a[524299] = 42; return a[524299]; }";
    "int a[523773]; int f() { int b[4]; b[2] = 42; a[523772] = 3; return b[2]; } "
    ^ "int main() { return f(); }" ]

let test_oversized_globals_refused () =
  List.iter
    (fun src ->
      match Driver.compile_to_ir src with
      | Error e -> Alcotest.fail e
      | Ok ir ->
        Alcotest.check_raises src (Ir_interp.Runtime_error Ir_interp.globals_too_large) (fun () ->
            ignore (Ir_interp.run ir)))
    oversized_globals;
  (* the largest array that fits still runs: 0x1000 + 8 n = 2 MiB *)
  match Driver.compile_to_ir "int a[261632]; int main() { a[261631] = 42; return a[261631]; }" with
  | Error e -> Alcotest.fail e
  | Ok ir -> check Alcotest.int "fits" 42 (Ir_interp.run ir).Ir_interp.exit_code

(* The interpreter as it was before it ran on [Eric_util.Memory], with
   pages and a bounds check of its own, kept verbatim. *)
module Reference_interp = struct
  type outcome = { output : string; exit_code : int }

  exception Runtime_error of string
  exception Program_exit of int

  let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

  type state = {
    pages : Bytes.t array;  (** the address space, {!page_size} bytes a page *)
    globals : (string, int) Hashtbl.t;  (** symbol -> address *)
    funcs : (string, Ir.func) Hashtbl.t;
    out : Buffer.t;
    mutable stack_pointer : int;  (** bump-down frame allocator *)
    mutable steps : int;
    max_steps : int;
  }

  let memory_size = 4 * 1024 * 1024
  let data_base = 0x1000

  (* The 4 MiB address space is held as 4 KiB pages that all start as one
     shared page of zeros, never written: a page gets bytes of its own on
     its first write, so a run allocates only the pages it writes (globals
     near the bottom, the stack near the top) instead of 4 MiB. *)
  let page_size = 4096
  let zero_page = Bytes.make page_size '\000'

  let check addr len =
    if addr < 0 || len < 0 || addr + len > memory_size then
      err "memory access out of bounds: 0x%x (+%d)" addr len

  let get_byte st addr = Bytes.get st.pages.(addr / page_size) (addr mod page_size)

  let writable_page st addr =
    let p = addr / page_size in
    if st.pages.(p) == zero_page then st.pages.(p) <- Bytes.make page_size '\000';
    st.pages.(p)

  let set_byte st addr c = Bytes.set (writable_page st addr) (addr mod page_size) c

  let read st w addr =
    match w with
    | Ir.W8 ->
      check addr 1;
      Int64.of_int (Char.code (get_byte st addr))
    | Ir.W64 ->
      check addr 8;
      let off = addr mod page_size in
      if off <= page_size - 8 then Bytes.get_int64_le st.pages.(addr / page_size) off
      else begin
        (* straddles two pages *)
        let v = ref 0L in
        for i = 7 downto 0 do
          v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (get_byte st (addr + i))))
        done;
        !v
      end

  let write st w addr v =
    match w with
    | Ir.W8 ->
      check addr 1;
      set_byte st addr (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | Ir.W64 ->
      check addr 8;
      let off = addr mod page_size in
      if off <= page_size - 8 then Bytes.set_int64_le (writable_page st addr) off v
      else
        for i = 0 to 7 do
          set_byte st (addr + i)
            (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
        done

  let eval_binop (op : Ir.binop) a b =
    let open Int64 in
    let bool_ c = if c then 1L else 0L in
    match op with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Div -> if b = 0L then -1L else if a = min_int && b = -1L then min_int else div a b
    | Rem -> if b = 0L then a else if a = min_int && b = -1L then 0L else rem a b
    | And -> logand a b
    | Or -> logor a b
    | Xor -> logxor a b
    | Shl -> shift_left a (to_int (logand b 63L))
    | Shr -> shift_right a (to_int (logand b 63L))
    | Slt -> bool_ (compare a b < 0)
    | Sle -> bool_ (compare a b <= 0)
    | Sgt -> bool_ (compare a b > 0)
    | Sge -> bool_ (compare a b >= 0)
    | Seq -> bool_ (equal a b)
    | Sne -> bool_ (not (equal a b))

  let rec exec_func st (f : Ir.func) (args : int64 list) : int64 =
    let temps = Array.make (max f.Ir.f_temp_count 1) 0L in
    List.iteri
      (fun i p -> if i < List.length args then temps.(p) <- List.nth args i)
      f.Ir.f_params;
    (* Frame slots: bump the interpreter's stack downwards. *)
    let frame_size = List.fold_left (fun acc (_, size) -> acc + size) 0 f.Ir.f_slots in
    let saved_sp = st.stack_pointer in
    st.stack_pointer <- st.stack_pointer - ((frame_size + 15) / 16 * 16);
    if st.stack_pointer < memory_size / 2 then err "interpreter stack overflow in %s" f.Ir.f_name;
    let slot_addr = Hashtbl.create 8 in
    let off = ref st.stack_pointer in
    List.iter
      (fun (slot, size) ->
        Hashtbl.replace slot_addr slot !off;
        off := !off + size)
      f.Ir.f_slots;
    let blocks = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace blocks b.Ir.b_label b) f.Ir.f_blocks;
    let value = function Ir.Temp t -> temps.(t) | Ir.Imm v -> v in
    let result = ref 0L in
    let rec run_block label =
      let block =
        match Hashtbl.find_opt blocks label with
        | Some b -> b
        | None -> err "%s: no block L%d" f.Ir.f_name label
      in
      List.iter
        (fun instr ->
          st.steps <- st.steps + 1;
          if st.steps > st.max_steps then err "interpreter out of fuel";
          match instr with
          | Ir.Move (d, v) -> temps.(d) <- value v
          | Ir.Bin (op, d, a, b) -> temps.(d) <- eval_binop op (value a) (value b)
          | Ir.Load (w, d, addr) -> temps.(d) <- read st w (Int64.to_int (value addr))
          | Ir.Store (w, addr, src) -> write st w (Int64.to_int (value addr)) (value src)
          | Ir.Addr_global (d, sym) -> (
            match Hashtbl.find_opt st.globals sym with
            | Some addr -> temps.(d) <- Int64.of_int addr
            | None -> err "undefined global %s" sym)
          | Ir.Addr_local (d, slot) -> (
            match Hashtbl.find_opt slot_addr slot with
            | Some addr -> temps.(d) <- Int64.of_int addr
            | None -> err "%s: unknown slot %d" f.Ir.f_name slot)
          | Ir.Call (dest, callee, call_args) -> (
            match Hashtbl.find_opt st.funcs callee with
            | None -> err "call to undefined function %s" callee
            | Some g ->
              let r = exec_func st g (List.map value call_args) in
              (match dest with Some d -> temps.(d) <- r | None -> ()))
          | Ir.Write (buf, len) ->
            let addr = Int64.to_int (value buf) and n = Int64.to_int (value len) in
            check addr n;
            for i = addr to addr + n - 1 do
              Buffer.add_char st.out (get_byte st i)
            done
          | Ir.Exit v -> raise (Program_exit (Int64.to_int (value v)))
          | Ir.Counter (d, _) ->
            (* the interpreter's only monotonic clock is its step count *)
            temps.(d) <- Int64.of_int st.steps)
        block.Ir.body;
      st.steps <- st.steps + 1;
      match block.Ir.term with
      | Ir.Ret None -> ()
      | Ir.Ret (Some v) -> result := value v
      | Ir.Jmp l -> run_block l
      | Ir.Br (v, l1, l2) -> if value v <> 0L then run_block l1 else run_block l2
    in
    run_block (match f.Ir.f_blocks with b :: _ -> b.Ir.b_label | [] -> err "%s has no blocks" f.Ir.f_name);
    st.stack_pointer <- saved_sp;
    !result

  let run ?(max_steps = 100_000_000) (p : Ir.program) =
    let st =
      {
        pages = Array.make (memory_size / page_size) zero_page;
        globals = Hashtbl.create 64;
        funcs = Hashtbl.create 64;
        out = Buffer.create 256;
        stack_pointer = memory_size - 16;
        steps = 0;
        max_steps;
      }
    in
    List.iter (fun f -> Hashtbl.replace st.funcs f.Ir.f_name f) p.Ir.p_funcs;
    (* Lay out initialised data then BSS, 8-byte aligned like the linker. *)
    let cursor = ref data_base in
    let align8 v = (v + 7) / 8 * 8 in
    List.iter
      (fun (name, bytes) ->
        cursor := align8 !cursor;
        Hashtbl.replace st.globals name !cursor;
        Bytes.iteri (fun i c -> set_byte st (!cursor + i) c) bytes;
        cursor := !cursor + Bytes.length bytes)
      p.Ir.p_data;
    List.iter
      (fun (name, size) ->
        cursor := align8 !cursor;
        Hashtbl.replace st.globals name !cursor;
        cursor := !cursor + size)
      p.Ir.p_bss;
    match Hashtbl.find_opt st.funcs "main" with
    | None -> raise (Runtime_error "program has no main function")
    | Some main -> (
      match exec_func st main [] with
      | code -> { output = Buffer.contents st.out; exit_code = Int64.to_int code }
      | exception Program_exit code -> { output = Buffer.contents st.out; exit_code = code })
end

(* Both interpreters' outcomes on [source], optimised and not: output
   and exit code, or the message of the [Runtime_error] raised instead. *)
let interp_outcomes source =
  List.map
    (fun optimize ->
      match Driver.compile_to_ir ~options:{ Driver.default_options with Driver.optimize } source with
      | Error e -> Alcotest.failf "compile error: %s" e
      | Ok ir ->
        ( (match Ir_interp.run ir with
          | o -> Ok (o.Ir_interp.output, o.Ir_interp.exit_code)
          | exception Ir_interp.Runtime_error msg -> Error msg),
          match Reference_interp.run ir with
          | o -> Ok (o.Reference_interp.output, o.Reference_interp.exit_code)
          | exception Reference_interp.Runtime_error msg -> Error msg ))
    [ true; false ]

let test_interp_matches_reference () =
  let outcome = Alcotest.(result (pair string int) string) in
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      List.iter
        (fun (paged, reference) -> check outcome w.name reference paged)
        (interp_outcomes w.source_small))
    Eric_workloads.Workloads.all;
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:150 ~name:"Gen programs"
       QCheck.(make ~print:Int64.to_string Gen.(map Int64.of_int (int_bound 1_000_000)))
       (fun seed ->
         let source = (Eric_verif.Gen.generate ~seed ()).Eric_verif.Gen.source in
         List.for_all (fun (paged, reference) -> paged = reference) (interp_outcomes source)))

(* ------------------------------------------------------------------ *)
(* The prelude template                                                *)
(* ------------------------------------------------------------------ *)

let fresh_prelude () =
  match Result.bind (Parser.parse Driver.prelude) Typecheck.check with
  | Ok tast -> Lower.lower tast
  | Error e -> Alcotest.fail e

let test_template_isolated_from_transforms () =
  (* The obf passes rewrite the linked prelude functions in place, so
     each compile must link its own copies of the template. *)
  let src =
    (Option.get (Eric_workloads.Workloads.by_name "crc32")).Eric_workloads.Workloads.source_small
  in
  let obf = { Eric_obf.Obf.passes = Eric_obf.Obf.all_passes; seed = Eric_obf.Obf.default_seed } in
  List.iter
    (fun optimize ->
      let base = { Driver.default_options with Driver.optimize } in
      let image options =
        match Driver.compile ~options src with
        | Ok img -> Eric_rv.Program.to_binary img
        | Error e -> Alcotest.fail e
      in
      let plain = image base in
      check Alcotest.bool "obfuscated image differs" false
        (Bytes.equal plain (image (Eric_obf.Obf.options ~base obf)));
      check Alcotest.bool (Printf.sprintf "optimize=%b: plain again, same bytes" optimize) true
        (Bytes.equal plain (image base)))
    [ true; false ]

let test_prelude_templates () =
  let fresh = fresh_prelude () in
  let n = List.length fresh.Ir.p_funcs in
  let linked optimize =
    match
      Driver.compile_to_ir ~options:{ Driver.default_options with Driver.optimize }
        "int main() { return 0; }"
    with
    | Ok ir -> List.filteri (fun i _ -> i < n) ir.Ir.p_funcs
    | Error e -> Alcotest.fail e
  in
  let lowered = linked false and optimised = linked true in
  check Alcotest.bool "optimize=false links a fresh lowering" true (lowered = fresh.Ir.p_funcs);
  check Alcotest.bool "which the optimiser changes" false (lowered = optimised);
  Opt.run fresh;
  check Alcotest.bool "optimize=true links a fresh optimisation" true
    (optimised = fresh.Ir.p_funcs)

let test_prelude_has_no_data () =
  (* Linking the template's functions ahead of the source's lowering adds
     nothing else: a string literal in the prelude would be __str_0, and
     so would the source's first. *)
  let fresh = fresh_prelude () in
  check Alcotest.int "p_data" 0 (List.length fresh.Ir.p_data);
  check Alcotest.int "p_bss" 0 (List.length fresh.Ir.p_bss)

(* ------------------------------------------------------------------ *)
(* Dense analyses against their Set.Make (Int) references              *)
(* ------------------------------------------------------------------ *)

(* The IR verifier, its must-define solve and the register allocator as
   they were on [Set.Make (Int)] sets (and, in the allocator, interval
   bounds in hash tables and a fixpoint loop of its own).  The dense
   rewrites must give the same diagnostics in the same order and the same
   allocation. *)
module Reference = struct
  module Uses = struct
    open Ir

    let uses_of_value = function Temp t -> [ t ] | Imm _ -> []

    let uses_of = function
      | Move (_, v) -> uses_of_value v
      | Bin (_, _, a, b) -> uses_of_value a @ uses_of_value b
      | Load (_, _, addr) -> uses_of_value addr
      | Store (_, addr, src) -> uses_of_value addr @ uses_of_value src
      | Addr_global _ | Addr_local _ -> []
      | Call (_, _, args) -> List.concat_map uses_of_value args
      | Write (a, b) -> uses_of_value a @ uses_of_value b
      | Exit v -> uses_of_value v
      | Counter _ -> []

    let term_uses = function
      | Ret (Some v) -> uses_of_value v
      | Ret None -> []
      | Jmp _ -> []
      | Br (v, _, _) -> uses_of_value v
  end

  module Ir_dataflow = struct
    module Iset = Set.Make (Int)

    (* Must-define analysis lattice: which temps are written on *every* path.
       Join is set intersection, so the identity element ("no path constrains
       this yet") is the whole universe, [All]. *)
    module Must_define = struct
      type t = All | Defined of Iset.t

      let bottom = All

      let join a b =
        match (a, b) with
        | All, x | x, All -> x
        | Defined u, Defined v -> Defined (Iset.inter u v)

      let equal a b =
        match (a, b) with
        | All, All -> true
        | Defined u, Defined v -> Iset.equal u v
        | _ -> false

      let pp fmt = function
        | All -> Format.pp_print_string fmt "all"
        | Defined s ->
          Format.fprintf fmt "{%s}"
            (String.concat "," (List.map string_of_int (Iset.elements s)))
    end

    type func_graph = {
      fg_graph : Eric_lint.Dataflow.graph;
      fg_blocks : Ir.block array;  (** node index -> block *)
      fg_index : (Ir.label, int) Hashtbl.t;
    }

    let graph_of_func (f : Ir.func) =
      let fg_blocks = Array.of_list f.Ir.f_blocks in
      let fg_index = Hashtbl.create 16 in
      Array.iteri
        (fun i b ->
          if not (Hashtbl.mem fg_index b.Ir.b_label) then Hashtbl.replace fg_index b.Ir.b_label i)
        fg_blocks;
      let entry_label =
        match f.Ir.f_blocks with b :: _ -> Some b.Ir.b_label | [] -> None
      in
      let edges =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun i b ->
                  List.filter_map
                    (fun l ->
                      match Hashtbl.find_opt fg_index l with
                      (* The entry has no CFG predecessor: its dataflow input
                         is the boundary fact (parameters), never a join with
                         a loop edge back to the first label. *)
                      | Some j when entry_label <> Some l -> Some (i, j)
                      | _ -> None)
                    (Ir.successors b.Ir.term))
                fg_blocks))
      in
      { fg_graph = Eric_lint.Dataflow.graph_of_edges ~node_count:(Array.length fg_blocks) edges;
        fg_blocks;
        fg_index }

    module Must_solver = Eric_lint.Dataflow.Make (Must_define)

    let block_defs (b : Ir.block) =
      List.fold_left
        (fun acc i -> match Ir.def_of i with Some d -> Iset.add d acc | None -> acc)
        Iset.empty b.Ir.body

    let must_define (f : Ir.func) =
      (* Forward solve: in(b) = ∩ out(preds), out(b) = in(b) ∪ defs(b);
         the entry starts from the parameter set. *)
      let fg = graph_of_func f in
      let params = Iset.of_list f.Ir.f_params in
      let transfer i v =
        match v with
        | Must_define.All -> Must_define.All
        | Must_define.Defined s -> Must_define.Defined (Iset.union s (block_defs fg.fg_blocks.(i)))
      in
      let boundary =
        if Array.length fg.fg_blocks = 0 then [] else [ (0, Must_define.Defined params) ]
      in
      let solved = Must_solver.solve ~boundary ~graph:fg.fg_graph ~transfer () in
      (fg, solved)
  end

  module Verify = struct
    open Ir
    open Uses
    module Diag = Eric_lint.Diag
    module Iset = Set.Make (Int)


    let loc ~func ~block ?index () = Diag.Ir_loc { func; block; index }

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
  end

  module Regalloc = struct
    open Eric_rv
    open Eric_cc.Regalloc
    module Iset = Set.Make (Int)

    type interval = { temp : int; lo : int; hi : int; crosses_call : bool }

    let block_liveness (f : Ir.func) =
      (* Gen/kill per block, then the usual backwards fixpoint. *)
      let blocks = Array.of_list f.f_blocks in
      let index_of = Hashtbl.create 16 in
      Array.iteri (fun i b -> Hashtbl.replace index_of b.Ir.b_label i) blocks;
      let n = Array.length blocks in
      let gen = Array.make n Iset.empty and kill = Array.make n Iset.empty in
      Array.iteri
        (fun i b ->
          List.iter
            (fun instr ->
              List.iter
                (fun t -> if not (Iset.mem t kill.(i)) then gen.(i) <- Iset.add t gen.(i))
                (Uses.uses_of instr);
              match Ir.def_of instr with
              | Some d -> kill.(i) <- Iset.add d kill.(i)
              | None -> ())
            b.Ir.body;
          List.iter
            (fun t -> if not (Iset.mem t kill.(i)) then gen.(i) <- Iset.add t gen.(i))
            (Uses.term_uses b.Ir.term))
        blocks;
      let live_in = Array.make n Iset.empty and live_out = Array.make n Iset.empty in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = n - 1 downto 0 do
          let out =
            List.fold_left
              (fun acc l ->
                match Hashtbl.find_opt index_of l with
                | Some j -> Iset.union acc live_in.(j)
                | None -> acc)
              Iset.empty
              (Ir.successors blocks.(i).Ir.term)
          in
          let inn = Iset.union gen.(i) (Iset.diff out kill.(i)) in
          if not (Iset.equal out live_out.(i)) || not (Iset.equal inn live_in.(i)) then begin
            live_out.(i) <- out;
            live_in.(i) <- inn;
            changed := true
          end
        done
      done;
      (blocks, live_in, live_out)

    let build_intervals (f : Ir.func) =
      let blocks, live_in, live_out = block_liveness f in
      (* Unrandomized: [lo]'s fold order is the tie order [Regalloc] must
         reproduce, under [OCAMLRUNPARAM=R] too. *)
      let lo = Hashtbl.create ~random:false 64 and hi = Hashtbl.create ~random:false 64 in
      let touch t pos =
        (match Hashtbl.find_opt lo t with
        | Some v when v <= pos -> ()
        | _ -> Hashtbl.replace lo t pos);
        match Hashtbl.find_opt hi t with
        | Some v when v >= pos -> ()
        | _ -> Hashtbl.replace hi t pos
      in
      let call_sites = ref [] in
      let pos = ref 0 in
      (* Parameters are defined by the prologue. *)
      List.iter (fun p -> touch p 0) f.f_params;
      Array.iteri
        (fun i b ->
          let block_start = !pos in
          List.iter
            (fun instr ->
              incr pos;
              List.iter (fun t -> touch t !pos) (Uses.uses_of instr);
              (match Ir.def_of instr with Some d -> touch d !pos | None -> ());
              match instr with Ir.Call _ -> call_sites := !pos :: !call_sites | _ -> ())
            b.Ir.body;
          incr pos;
          List.iter (fun t -> touch t !pos) (Uses.term_uses b.Ir.term);
          let block_end = !pos in
          Iset.iter (fun t -> touch t block_start) live_in.(i);
          Iset.iter
            (fun t ->
              touch t block_end;
              (* Live-out temps must cover the whole block tail. *)
              touch t block_start)
            live_out.(i);
          (* Live-in temps that are also live-out span everything between;
             linear scan over a linearised order handles loop-carried temps by
             the conservative [block_start, block_end] extension above applied
             to every block where the temp is live. *)
          ())
        blocks;
      let intervals =
        Hashtbl.fold
          (fun t l acc ->
            let h = Hashtbl.find hi t in
            let crosses = List.exists (fun c -> l < c && c < h) !call_sites in
            { temp = t; lo = l; hi = h; crosses_call = crosses } :: acc)
          lo []
      in
      List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi)) intervals

    let allocate (f : Ir.func) =
      let intervals = build_intervals f in
      let assign = Hashtbl.create 64 in
      let free_caller = ref caller_pool and free_callee = ref callee_pool in
      let active = ref [] in
      (* (interval, reg) sorted by increasing hi *)
      let spill_count = ref 0 in
      let used_callee = ref [] in
      let release reg =
        if List.exists (Reg.equal reg) caller_pool then free_caller := reg :: !free_caller
        else free_callee := reg :: !free_callee
      in
      let expire current_lo =
        let expired, still = List.partition (fun (iv, _) -> iv.hi < current_lo) !active in
        List.iter (fun (_, r) -> release r) expired;
        active := still
      in
      let take_reg iv =
        if iv.crosses_call then
          match !free_callee with
          | r :: rest ->
            free_callee := rest;
            if not (List.exists (Reg.equal r) !used_callee) then used_callee := r :: !used_callee;
            Some r
          | [] -> None
        else
          match !free_caller with
          | r :: rest ->
            free_caller := rest;
            Some r
          | [] -> (
            match !free_callee with
            | r :: rest ->
              free_callee := rest;
              if not (List.exists (Reg.equal r) !used_callee) then used_callee := r :: !used_callee;
              Some r
            | [] -> None)
      in
      let insert_active entry =
        let rec ins = function
          | [] -> [ entry ]
          | ((iv, _) as hd) :: tl -> if (fst entry).hi <= iv.hi then entry :: hd :: tl else hd :: ins tl
        in
        active := ins !active
      in
      let spill_slot () =
        let s = !spill_count in
        incr spill_count;
        s
      in
      List.iter
        (fun iv ->
          expire iv.lo;
          match take_reg iv with
          | Some r ->
            Hashtbl.replace assign iv.temp (Reg r);
            insert_active (iv, r)
          | None -> (
            (* Standard heuristic: spill whichever of {current, furthest-ending
               active with a compatible register} ends last. *)
            let compatible (aiv, r) =
              ignore aiv;
              if iv.crosses_call then List.exists (Reg.equal r) callee_pool else true
            in
            let candidates = List.filter compatible !active in
            match List.rev candidates with
            | (victim, vreg) :: _ when victim.hi > iv.hi ->
              Hashtbl.replace assign victim.temp (Spill (spill_slot ()));
              active := List.filter (fun (a, _) -> a.temp <> victim.temp) !active;
              Hashtbl.replace assign iv.temp (Reg vreg);
              insert_active (iv, vreg)
            | _ -> Hashtbl.replace assign iv.temp (Spill (spill_slot ()))))
        intervals;
      { assign; spill_slots = !spill_count; used_callee_saved = List.rev !used_callee }
  end
end

let test_dense_analyses_match_reference () =
  let sources =
    List.concat_map
      (fun (w : Eric_workloads.Workloads.t) ->
        [ (w.name ^ " small", w.source_small); (w.name ^ " large", w.source) ])
      Eric_workloads.Workloads.all
    @ List.init 200 (fun i ->
          let seed = Int64.of_int (i + 1) in
          (Printf.sprintf "gen %Ld" seed, (Eric_verif.Gen.generate ~seed ()).Eric_verif.Gen.source))
  in
  let rows ds = List.map (Format.asprintf "%a" Eric_lint.Diag.pp) ds in
  let reg r = Printf.sprintf "x%d" (Eric_rv.Reg.to_int r) in
  let assignment assign =
    Hashtbl.fold (fun t a acc -> (t, a) :: acc) assign []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (t, a) ->
           match a with
           | Regalloc.Reg r -> Printf.sprintf "t%d:%s" t (reg r)
           | Regalloc.Spill s -> Printf.sprintf "t%d:spill%d" t s)
  in
  (* Well-formed IR draws no diagnostics, so each function is also
     verified with every third instruction of a block deleted and a
     quarter of its temps out of range. *)
  let broken f =
    { (Ir.copy_func f) with
      Ir.f_blocks =
        List.map
          (fun b -> { b with Ir.body = List.filteri (fun i _ -> i mod 3 <> 1) b.Ir.body })
          f.Ir.f_blocks;
      f_temp_count = f.Ir.f_temp_count - (f.Ir.f_temp_count / 4) }
  in
  let diagnostics = ref 0 and spills = ref 0 in
  let same_allocation what f =
    let a = Regalloc.allocate f and r = Reference.Regalloc.allocate f in
    spills := !spills + r.Regalloc.spill_slots;
    check Alcotest.(list string) (what ^ ": assignment")
      (assignment r.Regalloc.assign) (assignment a.Regalloc.assign);
    check Alcotest.int (what ^ ": spill slots") r.Regalloc.spill_slots a.Regalloc.spill_slots;
    check Alcotest.(list string) (what ^ ": callee-saved")
      (List.map reg r.Regalloc.used_callee_saved)
      (List.map reg a.Regalloc.used_callee_saved)
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun optimize ->
          match Driver.compile_to_ir ~options:{ Driver.default_options with Driver.optimize } src with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok ir ->
            let verify = Ir_verify.verify_func ir and reference = Reference.Verify.verify_func ir in
            List.iter
              (fun f ->
                let what = Printf.sprintf "%s optimize=%b %s" name optimize f.Ir.f_name in
                let uses uses_of term_uses =
                  List.concat_map
                    (fun b -> List.map uses_of b.Ir.body @ [ term_uses b.Ir.term ])
                    f.Ir.f_blocks
                in
                check Alcotest.(list (list int)) (what ^ ": uses")
                  (uses Reference.Uses.uses_of Reference.Uses.term_uses)
                  (uses Ir.uses_of Ir.term_uses);
                List.iter
                  (fun (tag, f) ->
                    let expected = rows (reference f) in
                    diagnostics := !diagnostics + List.length expected;
                    check Alcotest.(list string) (what ^ tag ^ ": diagnostics") expected
                      (rows (verify f)))
                  [ ("", f); (" broken", broken f) ];
                same_allocation what f)
              ir.Ir.p_funcs)
        [ false; true ])
    sources;
  (* Obfuscated workloads have functions of hundreds of temps, whose ties
     the reference orders by a first-touch table grown to 256 and 512
     buckets. *)
  let obf = { Eric_obf.Obf.passes = Eric_obf.Obf.all_passes; seed = Eric_obf.Obf.default_seed } in
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      List.iter
        (fun (dataset, src) ->
          match Driver.compile_to_ir ~options:(Eric_obf.Obf.options obf) src with
          | Error e -> Alcotest.failf "%s %s obf: %s" w.name dataset e
          | Ok ir ->
            List.iter
              (fun f -> same_allocation (Printf.sprintf "%s %s obf %s" w.name dataset f.Ir.f_name) f)
              ir.Ir.p_funcs)
        [ ("small", w.source_small); ("large", w.source) ])
    Eric_workloads.Workloads.all;
  (* The corpus reaches the paths that matter: diagnostics to order and
     spills to hand out. *)
  check Alcotest.bool "some diagnostics compared" true (!diagnostics > 0);
  check Alcotest.bool "some spills compared" true (!spills > 0)

(* ------------------------------------------------------------------ *)
(* Assembler against its re-encode-every-pass reference                *)
(* ------------------------------------------------------------------ *)

(* The assembler as it was when every layout pass re-encoded every unit
   into parcel lists and resolved symbols by name.  Encoding each
   instruction once must give the same image, symbols included, and the
   same errors. *)
module Reference_assemble = struct
  open Eric_rv
  open Assemble

  let expand_la rd addr =
    let lo = addr land 0xFFF in
    let lo = if lo >= 2048 then lo - 4096 else lo in
    let hi = (addr - lo) asr 12 in
    [ Inst.U (Lui, rd, hi); Inst.I (Addi, rd, rd, lo) ]

  type unit_kind =
    | U_ins of Inst.t
    | U_branch of Inst.branch_op * Reg.t * Reg.t * string
    | U_jump of Reg.t * string
    | U_la of Reg.t * string

  type unit_state = {
    kind : unit_kind;
    mutable size : int;
    mutable relaxed : bool;  (** sticky: branch rewritten as inverted branch + jal *)
    mutable parcels : Program.parcel list;
  }

  let invert_branch : Inst.branch_op -> Inst.branch_op = function
    | Beq -> Bne | Bne -> Beq | Blt -> Bge | Bge -> Blt | Bltu -> Bgeu | Bgeu -> Bltu

  exception Asm_error of string

  let err fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

  let encode_unit ~compress ~resolve ~offset u =
    (* Produce the final instruction list for a unit given current symbol
       offsets, then parcelise (compressing eligible instructions). *)
    let insts =
      match u.kind with
      | U_ins i -> [ i ]
      | U_la (rd, sym) -> expand_la rd (resolve sym)
      | U_jump (rd, lbl) ->
        let delta = resolve lbl - offset in
        if not (Inst.fits_simm ~bits:21 delta) then err "jump to %s out of range (%d bytes)" lbl delta;
        [ Inst.Jal (rd, delta) ]
      | U_branch (op, rs1, rs2, lbl) ->
        let delta = resolve lbl - offset in
        if u.relaxed || not (Inst.fits_simm ~bits:13 delta) then begin
          u.relaxed <- true;
          (* Inverted branch skips the unconditional jump.  The branch's own
             size depends on compression, so the skip distance is computed
             from the encoded first instruction below; use the conservative
             4-byte form and never compress the inverted branch. *)
          let jal_delta = resolve lbl - (offset + 4) in
          if not (Inst.fits_simm ~bits:21 jal_delta) then
            err "relaxed branch to %s out of range" lbl;
          [ Inst.Branch (invert_branch op, rs1, rs2, 8); Inst.Jal (Reg.x0, jal_delta) ]
        end
        else [ Inst.Branch (op, rs1, rs2, delta) ]
    in
    let compressible inst =
      match u.kind with
      | U_la _ -> None (* fixed-size by design *)
      | U_branch _ when u.relaxed -> (
        (* Only the jal half may compress; the inverted branch's +8 skip
           assumed a 4-byte form, so keep it 4 bytes. *)
        match inst with Inst.Jal _ -> Rvc.compress inst | _ -> None)
      | _ -> Rvc.compress inst
    in
    let parcels =
      List.map
        (fun inst ->
          match if compress then compressible inst else None with
          | Some p -> Program.P16 p
          | None -> Program.P32 (Encode.encode inst))
        insts
    in
    (* A relaxed branch's skip distance depends on whether its jal half got
       compressed; re-encode the inverted branch with the actual jal size. *)
    let parcels =
      match (u.relaxed, u.kind, parcels) with
      | true, U_branch (op, rs1, rs2, _), [ Program.P32 _; jal ] ->
        let first = Inst.Branch (invert_branch op, rs1, rs2, 4 + Program.parcel_size jal) in
        [ Program.P32 (Encode.encode first); jal ]
      | _ -> parcels
    in
    u.parcels <- parcels;
    u.size <- List.fold_left (fun acc p -> acc + Program.parcel_size p) 0 parcels

  let assemble ?(compress = true) input =
    try
      (* Expand Li eagerly (sizes depend only on the constant). *)
      let items =
        List.concat_map
          (function
            | Li (rd, v) -> List.map (fun i -> Ins i) (expand_li rd v)
            | other -> [ other ])
          input.text
      in
      let units = ref [] and labels = Hashtbl.create 64 in
      let unit_count = ref 0 in
      List.iter
        (fun item ->
          match item with
          | Label name ->
            if Hashtbl.mem labels name then err "duplicate label %s" name;
            Hashtbl.add labels name !unit_count
          | Ins i ->
            (match Inst.validate i with Ok () -> () | Error m -> err "invalid instruction: %s" m);
            units := { kind = U_ins i; size = 4; relaxed = false; parcels = [] } :: !units;
            incr unit_count
          | Branch (op, r1, r2, lbl) ->
            units := { kind = U_branch (op, r1, r2, lbl); size = 4; relaxed = false; parcels = [] } :: !units;
            incr unit_count
          | Jump (rd, lbl) ->
            units := { kind = U_jump (rd, lbl); size = 4; relaxed = false; parcels = [] } :: !units;
            incr unit_count
          | La (rd, sym) ->
            units := { kind = U_la (rd, sym); size = 8; relaxed = false; parcels = [] } :: !units;
            incr unit_count
          | Li _ -> assert false)
        items;
      let units = Array.of_list (List.rev !units) in
      if Array.length units = 0 then err "empty text section";
      (* Per-label unit index -> byte offset, recomputed each iteration. *)
      let unit_offsets = Array.make (Array.length units + 1) 0 in
      let compute_offsets () =
        let off = ref 0 in
        Array.iteri
          (fun i u ->
            unit_offsets.(i) <- !off;
            off := !off + u.size)
          units;
        unit_offsets.(Array.length units) <- !off;
        !off
      in
      (* Data and BSS symbol offsets are layout-independent; absolute
         addresses depend on the (shrinking) text size. *)
      let bss_offsets =
        let off = ref 0 in
        List.map
          (fun (name, size) ->
            if size < 0 then err "negative bss size for %s" name;
            let here = !off in
            off := !off + ((size + 7) / 8 * 8);
            (name, here))
          input.bss_symbols
      in
      let bss_total = List.fold_left (fun acc (_, s) -> acc + ((s + 7) / 8 * 8)) 0 input.bss_symbols in
      (* Pad the data section to 8 bytes so the BSS that follows it stays
         naturally aligned for 64-bit stores. *)
      let data =
        let len = Bytes.length input.data in
        let padded = (len + 7) / 8 * 8 in
        if padded = len then input.data
        else begin
          let b = Bytes.make padded '\000' in
          Bytes.blit input.data 0 b 0 len;
          b
        end
      in
      let make_resolver text_size =
        let text_base = Program.Layout.text_base in
        let data_base = text_base + ((text_size + 0xFFF) / 0x1000 * 0x1000) in
        let bss_base = data_base + Bytes.length data in
        fun sym ->
          match Hashtbl.find_opt labels sym with
          | Some unit_index -> text_base + unit_offsets.(unit_index)
          | None -> (
            match List.assoc_opt sym input.data_symbols with
            | Some off -> data_base + off
            | None -> (
              match List.assoc_opt sym bss_offsets with
              | Some off -> bss_base + off
              | None -> err "undefined symbol %s" sym))
      in
      (* Label resolution for branches is text-relative; reuse the absolute
         resolver and subtract. *)
      let rec iterate n =
        if n > 64 then err "layout did not converge";
        let text_size = compute_offsets () in
        let resolve_abs = make_resolver text_size in
        let changed = ref false in
        Array.iteri
          (fun i u ->
            let before = u.size in
            let offset = Program.Layout.text_base + unit_offsets.(i) in
            (* Branch targets must be text labels; resolve gives absolute. *)
            encode_unit ~compress ~resolve:resolve_abs ~offset u;
            if u.size <> before then changed := true)
          units;
        if !changed then iterate (n + 1)
      in
      iterate 0;
      ignore (compute_offsets ());
      let parcels = Array.of_list (List.concat_map (fun u -> u.parcels) (Array.to_list units)) in
      let entry_offset =
        match Hashtbl.find_opt labels input.entry with
        | Some idx -> unit_offsets.(idx)
        | None -> err "entry label %s not defined" input.entry
      in
      let symbols = Hashtbl.fold (fun name idx acc -> (name, unit_offsets.(idx)) :: acc) labels [] in
      Ok
        {
          (Parcel_image.of_parcels parcels) with
          Program.data = Bytes.copy data;
          bss_size = bss_total;
          entry_offset;
          symbols = List.sort compare symbols;
        }
    with Asm_error msg -> Error msg
end

let test_assembler_matches_reference () =
  let open Eric_rv in
  let outcome = function
    | Ok p -> Ok (Digest.to_hex (Digest.bytes (Program.to_binary ~with_symbols:true p)))
    | Error e -> Error e
  in
  let same what ~compress input =
    check
      Alcotest.(result string string)
      (Printf.sprintf "%s compress=%b" what compress)
      (outcome (Reference_assemble.assemble ~compress input))
      (outcome (Assemble.assemble ~compress input))
  in
  (* Compiler output: both datasets and generated programs, under the
     default options, without compression, without optimisation and with
     every obfuscation pass. *)
  let obf = { Eric_obf.Obf.passes = Eric_obf.Obf.all_passes; seed = Eric_obf.Obf.default_seed } in
  let base = Driver.default_options in
  let option_sets =
    [ ("default", base);
      ("compress=false", { base with Driver.compress = false });
      ("optimize=false", { base with Driver.optimize = false });
      ("obf", Eric_obf.Obf.options obf) ]
  in
  let sources =
    List.concat_map
      (fun (w : Eric_workloads.Workloads.t) ->
        [ (w.name ^ " small", w.source_small); (w.name ^ " large", w.source) ])
      Eric_workloads.Workloads.all
    @ List.init 100 (fun i ->
          let seed = Int64.of_int (i + 1) in
          (Printf.sprintf "gen %Ld" seed, (Eric_verif.Gen.generate ~seed ()).Eric_verif.Gen.source))
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (oname, (options : Driver.options)) ->
          match Driver.compile_to_ir ~options src with
          | Error e -> Alcotest.failf "%s %s: %s" name oname e
          | Ok ir ->
            let ir = { ir with Ir.p_funcs = Opt.reachable_functions ir ~entry:"main" } in
            same (name ^ " " ^ oname) ~compress:options.compress (Codegen.gen_program ir))
        option_sets)
    sources;
  (* Branches around the B-type reach (4094 bytes forward, 4096 back),
     over fillers that never compress and fillers that do.  Pass 0 sizes
     every unit at 4 bytes, so a compressed filler relaxes branches whose
     final distance is in reach. *)
  let input ?(data_symbols = []) text =
    { Assemble.text;
      data = Bytes.of_string "abc";
      data_symbols;
      bss_symbols = [ ("buf", 12) ];
      entry = "main" }
  in
  let ret = Assemble.Ins (Inst.Jalr (Reg.x0, Reg.ra, 0)) in
  let wide = Assemble.Ins (Inst.I (Addi, Reg.t_ 0, Reg.t_ 1, 1000))
  and narrow = Assemble.Ins (Inst.I (Addi, Reg.a 0, Reg.a 0, 1)) in
  let branch = Assemble.Branch (Bne, Reg.a 0, Reg.a 1, "target") in
  List.iter
    (fun (fname, filler) ->
      List.iter
        (fun k ->
          let fill = List.init k (fun _ -> filler) in
          let forward = (Assemble.Label "main" :: branch :: fill) @ [ Assemble.Label "target"; ret ]
          and backward =
            Assemble.Label "main" :: Assemble.Label "target" :: (fill @ [ branch; ret ])
          in
          List.iter
            (fun compress ->
              same (Printf.sprintf "forward over %d %s" k fname) ~compress (input forward);
              same (Printf.sprintf "backward over %d %s" k fname) ~compress (input backward))
            [ true; false ])
        (List.init 8 (fun i -> 1020 + i) @ List.init 8 (fun i -> 2043 + i)))
    [ ("wide", wide); ("narrow", narrow) ];
  (* Symbols in data and BSS, a text address, and the errors. *)
  let far = [ ("far", 0x200000); ("msg", 1) ] in
  let main items = Assemble.Label "main" :: (items @ [ ret ]) in
  let la sym = Assemble.La (Reg.a 0, sym) in
  let jump sym = Assemble.Jump (Reg.x0, sym) in
  List.iter
    (fun (what, input) -> List.iter (fun compress -> same what ~compress input) [ true; false ])
    [ ("la data, bss and text", input ~data_symbols:far (main [ la "msg"; la "buf"; la "main" ]));
      ( "more units than items",
        input
          (main [ Assemble.Li (Reg.a 0, Int64.max_int); Assemble.Li (Reg.a 1, Int64.min_int) ]) );
      ( "relaxed branch, jal out of range",
        input ~data_symbols:far (main [ Assemble.Branch (Beq, Reg.a 0, Reg.a 1, "far") ]) );
      ("jump out of range", input ~data_symbols:far (main [ jump "far" ]));
      ("first error wins", input ~data_symbols:far (main [ jump "far"; jump "nowhere" ]));
      ("first error wins, reversed", input ~data_symbols:far (main [ jump "nowhere"; jump "far" ]));
      ("undefined label", input (main [ Assemble.Branch (Beq, Reg.a 0, Reg.x0, "nowhere") ]));
      ("undefined jump", input (main [ Assemble.Jump (Reg.ra, "nowhere") ]));
      ("undefined la symbol", input (main [ la "nowhere" ]));
      ("duplicate label", input (main [ ret; Assemble.Label "main" ]));
      ("invalid instruction", input (main [ Assemble.Ins (Inst.I (Addi, Reg.a 0, Reg.a 0, 5000)) ]));
      ("undefined entry", input [ Assemble.Label "start"; ret ]);
      ("negative bss", { (input (main [])) with Assemble.bss_symbols = [ ("b", -1) ] });
      ("empty text", input []);
      ("labels only", input [ Assemble.Label "main" ]) ]

let () =
  Alcotest.run "eric_cc"
    [ ( "lexer",
        [ Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "integer literal range" `Quick test_lexer_literal_range;
          Alcotest.test_case "comments and positions" `Quick test_lexer_comments_positions ] );
      ( "diagnostics",
        [ Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "no main" `Quick test_no_main;
          Alcotest.test_case "positions count from the source" `Quick
            test_positions_count_from_source ] );
      ( "golden",
        [ Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "short circuit" `Quick test_short_circuit_effects;
          Alcotest.test_case "while/break/continue" `Quick test_while_break_continue;
          Alcotest.test_case "for scoping" `Quick test_for_scoping;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "ackermann" `Quick test_recursion_ackermann;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion_two_pass;
          Alcotest.test_case "global arrays and strings" `Quick test_global_arrays_and_strings;
          Alcotest.test_case "char semantics" `Quick test_char_semantics;
          Alcotest.test_case "pointers and args" `Quick test_pointers_and_args;
          Alcotest.test_case "pointer difference" `Quick test_pointer_difference;
          Alcotest.test_case "eight args" `Quick test_eight_args;
          Alcotest.test_case "big frame" `Quick test_big_frame;
          Alcotest.test_case "register pressure" `Quick test_register_pressure;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "exit builtin" `Quick test_exit_builtin;
          Alcotest.test_case "print_int extremes" `Quick test_print_int_extremes ] );
      ( "extended-language",
        [ Alcotest.test_case "compound assignment" `Quick test_compound_assignment;
          Alcotest.test_case "incr/decr" `Quick test_incr_decr;
          Alcotest.test_case "address-of and deref" `Quick test_address_of_and_deref;
          Alcotest.test_case "pointer incr scaling" `Quick test_pointer_incr_scaling;
          Alcotest.test_case "ternary" `Quick test_ternary;
          Alcotest.test_case "sizeof" `Quick test_sizeof;
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "char compound wraps" `Quick test_char_compound_wraps;
          Alcotest.test_case "addressed parameter" `Quick test_addressed_param;
          Alcotest.test_case "type errors" `Quick test_extended_type_errors;
          Alcotest.test_case "runtime string helpers" `Quick test_runtime_string_helpers;
          Alcotest.test_case "linker GC drops unused" `Quick test_linker_gc_drops_unused_prelude;
          Alcotest.test_case "linker GC keeps recursion" `Quick test_linker_gc_keeps_recursion;
          Alcotest.test_case "counter intrinsics" `Quick test_counter_intrinsics ] );
      ( "passes",
        [ Alcotest.test_case "optimize preserves semantics" `Quick test_optimize_preserves_semantics;
          Alcotest.test_case "compress preserves semantics" `Quick test_compress_preserves_semantics;
          Alcotest.test_case "optimizer shrinks IR" `Quick test_optimizer_shrinks_ir;
          Alcotest.test_case "const fold unit" `Quick test_const_fold_unit;
          Alcotest.test_case "copy prop unit" `Quick test_copy_prop_unit;
          Alcotest.test_case "dce unit" `Quick test_dce_unit;
          Alcotest.test_case "dce transitive" `Quick test_dce_transitive;
          Alcotest.test_case "simplify cfg unit" `Quick test_simplify_cfg_unit;
          Alcotest.test_case "regalloc coverage" `Quick test_regalloc_assigns_everything;
          Alcotest.test_case "regalloc call crossing" `Quick test_regalloc_call_crossing_callee_saved;
          Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
          Alcotest.test_case "emit-asm roundtrip" `Quick test_emit_assembly_roundtrip;
          Alcotest.test_case "emit-asm workloads" `Slow test_emit_assembly_workloads;
          Alcotest.test_case "cse unit" `Quick test_cse_unit;
          Alcotest.test_case "cse redefinition safety" `Quick test_cse_redefinition_safe;
          Alcotest.test_case "cse shrinks loops" `Quick test_cse_shrinks_array_loops;
          Alcotest.test_case "unchanged iteration needs no check" `Quick
            test_unchanged_iteration_needs_no_check ] );
      ( "differential",
        [ differential_expressions;
          differential_unoptimised;
          differential_programs;
          Alcotest.test_case "interpreter memory pages" `Quick test_interp_pages;
          Alcotest.test_case "dense analyses = Set.Make (Int) references" `Quick
            test_dense_analyses_match_reference;
          Alcotest.test_case "assembler = re-encode-every-pass reference" `Quick
            test_assembler_matches_reference ]
        @ List.map
            (fun (kind, src, msg) ->
              Alcotest.test_case (kind ^ " past max_int traps") `Quick (test_wrapping_access src msg))
            wrapping_accesses
        @ [ Alcotest.test_case "oversized globals refused" `Quick test_oversized_globals_refused;
            Alcotest.test_case "interpreter = paged-copy reference" `Quick
              test_interp_matches_reference ] );
      ( "prelude",
        [ Alcotest.test_case "template isolated from transforms" `Quick
            test_template_isolated_from_transforms;
          Alcotest.test_case "templates equal a fresh compile" `Quick test_prelude_templates;
          Alcotest.test_case "no data or bss" `Quick test_prelude_has_no_data ] ) ]
