type token =
  | INT_LIT of int64
  | STR_LIT of string
  | IDENT of string
  | KW_INT | KW_CHAR | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | KW_SIZEOF
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | PERCENTEQ
  | AMPEQ | PIPEEQ | CARETEQ | SHLEQ | SHREQ
  | PLUSPLUS | MINUSMINUS
  | QUESTION | COLON
  | AMP | PIPE | CARET | TILDE | BANG
  | SHL | SHR
  | LT | LE | GT | GE | EQEQ | NEQ
  | ANDAND | OROR
  | ASSIGN
  | EOF

let token_name = function
  | INT_LIT _ -> "integer literal"
  | STR_LIT _ -> "string literal"
  | IDENT s -> "identifier '" ^ s ^ "'"
  | KW_INT -> "'int'" | KW_CHAR -> "'char'" | KW_VOID -> "'void'"
  | KW_IF -> "'if'" | KW_ELSE -> "'else'" | KW_WHILE -> "'while'" | KW_DO -> "'do'"
  | KW_FOR -> "'for'" | KW_SIZEOF -> "'sizeof'"
  | KW_RETURN -> "'return'" | KW_BREAK -> "'break'" | KW_CONTINUE -> "'continue'"
  | LPAREN -> "'('" | RPAREN -> "')'" | LBRACE -> "'{'" | RBRACE -> "'}'"
  | LBRACKET -> "'['" | RBRACKET -> "']'"
  | SEMI -> "';'" | COMMA -> "','"
  | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'" | PERCENT -> "'%'"
  | PLUSEQ -> "'+='" | MINUSEQ -> "'-='" | STAREQ -> "'*='" | SLASHEQ -> "'/='"
  | PERCENTEQ -> "'%='" | AMPEQ -> "'&='" | PIPEEQ -> "'|='" | CARETEQ -> "'^='"
  | SHLEQ -> "'<<='" | SHREQ -> "'>>='" | PLUSPLUS -> "'++'" | MINUSMINUS -> "'--'"
  | QUESTION -> "'?'" | COLON -> "':'"
  | AMP -> "'&'" | PIPE -> "'|'" | CARET -> "'^'" | TILDE -> "'~'" | BANG -> "'!'"
  | SHL -> "'<<'" | SHR -> "'>>'"
  | LT -> "'<'" | LE -> "'<='" | GT -> "'>'" | GE -> "'>='" | EQEQ -> "'=='" | NEQ -> "'!='"
  | ANDAND -> "'&&'" | OROR -> "'||'"
  | ASSIGN -> "'='"
  | EOF -> "end of input"

type loc_token = { tok : token; pos : Ast.pos }

exception Lex_error of string * Ast.pos

let keyword_or_ident = function
  | "int" -> KW_INT
  | "char" -> KW_CHAR
  | "void" -> KW_VOID
  | "if" -> KW_IF
  | "else" -> KW_ELSE
  | "while" -> KW_WHILE
  | "do" -> KW_DO
  | "for" -> KW_FOR
  | "return" -> KW_RETURN
  | "break" -> KW_BREAK
  | "continue" -> KW_CONTINUE
  | "sizeof" -> KW_SIZEOF
  | word -> IDENT word

type state = { src : string; mutable idx : int; mutable line : int; mutable col : int }

let pos st = { Ast.line = st.line; col = st.col }
let error st msg = raise (Lex_error (msg, pos st))

(* Characters are read in place: [peek] and [peek2] answer NUL past the
   end of the source, so a caller that must tell a NUL byte from the end
   tests [at_end]. *)
let at_end st = st.idx >= String.length st.src
let peek st = if st.idx < String.length st.src then String.unsafe_get st.src st.idx else '\000'

let peek2 st =
  if st.idx + 1 < String.length st.src then String.unsafe_get st.src (st.idx + 1) else '\000'

let advance st =
  if st.idx < String.length st.src then begin
    if String.unsafe_get st.src st.idx = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1
  end;
  st.idx <- st.idx + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* [is_digit], [is_hex] and [is_ident] reject NUL, so these loops stop at
   the end of the source. *)
let skip_while st p =
  while p (peek st) do
    advance st
  done

let rec skip_space st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_space st
  | '/' when peek2 st = '/' ->
    while (not (at_end st)) && peek st <> '\n' do
      advance st
    done;
    skip_space st
  | '/' when peek2 st = '*' ->
    advance st;
    advance st;
    let rec eat () =
      if at_end st then error st "unterminated block comment"
      else if peek st = '*' && peek2 st = '/' then begin
        advance st;
        advance st
      end
      else begin
        advance st;
        eat ()
      end
    in
    eat ();
    skip_space st
  | _ -> ()

let lex_number st =
  let p = pos st in
  let start = st.idx in
  let hex = peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') in
  let literal =
    if hex then begin
      advance st;
      advance st;
      skip_while st is_hex;
      if st.idx = start + 2 then error st "hex literal needs digits";
      "0x" ^ String.sub st.src (start + 2) (st.idx - start - 2)
    end
    else begin
      skip_while st is_digit;
      String.sub st.src start (st.idx - start)
    end
  in
  (* Decimal literals must fit a signed 64-bit integer, hex ones 64 bits. *)
  match Int64.of_string_opt literal with
  | Some v -> v
  | None -> raise (Lex_error ("integer literal out of range", p))

let lex_escape st =
  if at_end st then error st "unterminated escape";
  match peek st with
  | 'n' -> advance st; '\n'
  | 't' -> advance st; '\t'
  | 'r' -> advance st; '\r'
  | '0' -> advance st; '\000'
  | '\\' -> advance st; '\\'
  | '\'' -> advance st; '\''
  | '"' -> advance st; '"'
  | c -> error st (Printf.sprintf "unknown escape '\\%c'" c)

let lex_char st =
  advance st;
  (* opening quote *)
  if at_end st then error st "unterminated character literal";
  let c =
    match peek st with
    | '\\' ->
      advance st;
      lex_escape st
    | '\'' -> error st "empty character literal"
    | c ->
      advance st;
      c
  in
  if peek st = '\'' then advance st
  else error st "character literal must contain exactly one character";
  Int64.of_int (Char.code c)

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated string literal";
    match peek st with
    | '"' -> advance st
    | '\\' ->
      advance st;
      Buffer.add_char buf (lex_escape st);
      go ()
    | c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

(* Lex a one-character token [t1] that becomes [t2] when followed by [b]
   (never NUL). *)
let two st b t1 t2 =
  advance st;
  if peek st = b then begin
    advance st;
    t2
  end
  else t1

let tokenize src =
  let st = { src; idx = 0; line = 1; col = 1 } in
  let toks = ref [] in
  let emit p t = toks := { tok = t; pos = p } :: !toks in
  let rec loop () =
    skip_space st;
    let p = pos st in
    if at_end st then emit p EOF
    else begin
      (match peek st with
      | c when is_digit c -> emit p (INT_LIT (lex_number st))
      | c when is_ident_start c ->
        let start = st.idx in
        skip_while st is_ident;
        emit p (keyword_or_ident (String.sub src start (st.idx - start)))
      | '\'' -> emit p (INT_LIT (lex_char st))
      | '"' -> emit p (STR_LIT (lex_string st))
      | '(' -> advance st; emit p LPAREN
      | ')' -> advance st; emit p RPAREN
      | '{' -> advance st; emit p LBRACE
      | '}' -> advance st; emit p RBRACE
      | '[' -> advance st; emit p LBRACKET
      | ']' -> advance st; emit p RBRACKET
      | ';' -> advance st; emit p SEMI
      | ',' -> advance st; emit p COMMA
      | '+' ->
        advance st;
        (match peek st with
        | '+' -> advance st; emit p PLUSPLUS
        | '=' -> advance st; emit p PLUSEQ
        | _ -> emit p PLUS)
      | '-' ->
        advance st;
        (match peek st with
        | '-' -> advance st; emit p MINUSMINUS
        | '=' -> advance st; emit p MINUSEQ
        | _ -> emit p MINUS)
      | '*' -> emit p (two st '=' STAR STAREQ)
      | '/' -> emit p (two st '=' SLASH SLASHEQ)
      | '%' -> emit p (two st '=' PERCENT PERCENTEQ)
      | '^' -> emit p (two st '=' CARET CARETEQ)
      | '~' -> advance st; emit p TILDE
      | '?' -> advance st; emit p QUESTION
      | ':' -> advance st; emit p COLON
      | '&' ->
        advance st;
        (match peek st with
        | '&' -> advance st; emit p ANDAND
        | '=' -> advance st; emit p AMPEQ
        | _ -> emit p AMP)
      | '|' ->
        advance st;
        (match peek st with
        | '|' -> advance st; emit p OROR
        | '=' -> advance st; emit p PIPEEQ
        | _ -> emit p PIPE)
      | '!' -> emit p (two st '=' BANG NEQ)
      | '=' -> emit p (two st '=' ASSIGN EQEQ)
      | '<' ->
        advance st;
        (match peek st with
        | '<' ->
          advance st;
          (match peek st with
          | '=' -> advance st; emit p SHLEQ
          | _ -> emit p SHL)
        | '=' -> advance st; emit p LE
        | _ -> emit p LT)
      | '>' ->
        advance st;
        (match peek st with
        | '>' ->
          advance st;
          (match peek st with
          | '=' -> advance st; emit p SHREQ
          | _ -> emit p SHR)
        | '=' -> advance st; emit p GE
        | _ -> emit p GT)
      | c -> error st (Printf.sprintf "unexpected character '%c'" c));
      loop ()
    end
  in
  loop ();
  List.rev !toks
