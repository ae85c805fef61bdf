(** Hand-rolled lexer for the input language. *)

type token =
  | IDENT of string  (** bare identifiers: primitive ops, keywords' neighbours *)
  | VAR of string  (** [%name] *)
  | GLOBAL of string  (** [@name] *)
  | INT of int
  | FLOAT of float
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW  (** [->] *)
  | DARROW  (** [=>] *)
  | ASSIGN  (** [=] *)
  | EQEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | ANDAND
  | OROR
  | BANG
  | EOF

type located = { tok : token; line : int; col : int }

exception Error of string

let fail line col fmt =
  Fmt.kstr (fun m -> raise (Error (Fmt.str "lexer: line %d, col %d: %s" line col m))) fmt

let token_name = function
  | IDENT s -> Fmt.str "identifier %S" s
  | VAR s -> Fmt.str "%%%s" s
  | GLOBAL s -> Fmt.str "@%s" s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | DOT -> "."
  | ARROW -> "->"
  | DARROW -> "=>"
  | ASSIGN -> "="
  | EQEQ -> "=="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : located list =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let advance () =
    (match src.[!pos] with
    | '\n' ->
      incr line;
      col := 1
    | _ -> incr col);
    incr pos
  in
  let out = ref [] in
  let emit tok l c = out := { tok; line = l; col = c } :: !out in
  let read_while pred =
    let start = !pos in
    while !pos < n && pred src.[!pos] do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  let skip_block_comment l c =
    (* Already past the opening "(*". Nested comments supported. *)
    let depth = ref 1 in
    while !depth > 0 do
      if !pos >= n then fail l c "unterminated comment";
      match src.[!pos], peek 1 with
      | '(', Some '*' ->
        advance ();
        advance ();
        incr depth
      | '*', Some ')' ->
        advance ();
        advance ();
        decr depth
      | _ -> advance ()
    done
  in
  while !pos < n do
    let l = !line and c = !col in
    let ch = src.[!pos] in
    match ch with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '(' when peek 1 = Some '*' ->
      advance ();
      advance ();
      skip_block_comment l c
    | '/' when peek 1 = Some '/' -> ignore (read_while (fun c -> c <> '\n'))
    | '(' ->
      advance ();
      emit LPAREN l c
    | ')' ->
      advance ();
      emit RPAREN l c
    | '{' ->
      advance ();
      emit LBRACE l c
    | '}' ->
      advance ();
      emit RBRACE l c
    | '[' ->
      advance ();
      emit LBRACKET l c
    | ']' ->
      advance ();
      emit RBRACKET l c
    | ',' ->
      advance ();
      emit COMMA l c
    | ';' ->
      advance ();
      emit SEMI l c
    | ':' ->
      advance ();
      emit COLON l c
    | '.' ->
      advance ();
      emit DOT l c
    | '+' ->
      advance ();
      emit PLUS l c
    | '*' ->
      advance ();
      emit STAR l c
    | '/' ->
      advance ();
      emit SLASH l c
    | '!' ->
      advance ();
      emit BANG l c
    | '-' ->
      advance ();
      if peek 0 = Some '>' then begin
        advance ();
        emit ARROW l c
      end
      else emit MINUS l c
    | '=' ->
      advance ();
      (match peek 0 with
      | Some '=' ->
        advance ();
        emit EQEQ l c
      | Some '>' ->
        advance ();
        emit DARROW l c
      | _ -> emit ASSIGN l c)
    | '<' ->
      advance ();
      if peek 0 = Some '=' then begin
        advance ();
        emit LE l c
      end
      else emit LT l c
    | '>' ->
      advance ();
      if peek 0 = Some '=' then begin
        advance ();
        emit GE l c
      end
      else emit GT l c
    | '&' when peek 1 = Some '&' ->
      advance ();
      advance ();
      emit ANDAND l c
    | '|' when peek 1 = Some '|' ->
      advance ();
      advance ();
      emit OROR l c
    | '%' when (match peek 1 with Some c -> is_ident_start c | None -> false) ->
      advance ();
      emit (VAR (read_while is_ident_char)) l c
    | '%' ->
      advance ();
      emit PERCENT l c
    | '@' ->
      advance ();
      if not (match peek 0 with Some c -> is_ident_start c | None -> false) then
        fail l c "expected identifier after '@'";
      emit (GLOBAL (read_while is_ident_char)) l c
    | c0 when is_digit c0 ->
      let intpart = read_while is_digit in
      let isfloat =
        peek 0 = Some '.' && (match peek 1 with Some c -> is_digit c | None -> false)
      in
      if isfloat then begin
        advance ();
        let frac = read_while is_digit in
        let expo =
          if peek 0 = Some 'e' || peek 0 = Some 'E' then begin
            advance ();
            let sign =
              if peek 0 = Some '-' || peek 0 = Some '+' then (
                let s = String.make 1 src.[!pos] in
                advance ();
                s)
              else ""
            in
            "e" ^ sign ^ read_while is_digit
          end
          else ""
        in
        emit (FLOAT (float_of_string (intpart ^ "." ^ frac ^ expo))) l c
      end
      else begin
        match int_of_string_opt intpart with
        | Some n -> emit (INT n) l c
        | None -> fail l c "integer literal %s out of range" intpart
      end
    | c0 when is_ident_start c0 -> emit (IDENT (read_while is_ident_char)) l c
    | c0 -> fail l c "unexpected character %C" c0
  done;
  emit EOF !line !col;
  List.rev !out
