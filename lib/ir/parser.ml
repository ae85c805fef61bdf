(** Recursive-descent parser for the input language.

    Grammar (informal):
    {v
    program := def*
    def     := "def" GLOBAL "(" params? ")" "->" ty "{" expr "}"
    ty      := "Tensor" "[" "(" ints ")" "]" | "List" "[" ty "]"
             | "Tree" "[" ty "]" | "Int" | "Bool" | "Float"
             | "fn" "(" tys? ")" "->" ty | "(" tys ")"
    expr    := "let" VAR "=" expr ";" expr
             | "if" "(" expr ")" block "else" block
             | "match" "(" expr ")" "{" (pat "=>" expr),+ "}"
             | "fn" "(" params? ")" block
             | binary-operator expression over postfix/atoms
    v}
    Tensor primitives appear as ordinary calls on bare identifiers:
    [matmul(a, b)], [sigmoid(x)], [slice(x, 0, 64)], [zeros((1, 64))],
    [const((1, 64), 0.5)], [random((1, 1))], [concat(a, b)], ... *)

open Lexer

exception Error of string

type state = { toks : located array; mutable at : int }

let fail st fmt =
  let { tok; line; col } = st.toks.(st.at) in
  Fmt.kstr
    (fun m ->
      raise (Error (Fmt.str "parse error: line %d, col %d (at %s): %s" line col (token_name tok) m)))
    fmt

let peek st = st.toks.(st.at).tok
let peek2 st = if st.at + 1 < Array.length st.toks then st.toks.(st.at + 1).tok else EOF
let advance st = st.at <- st.at + 1

let eat st tok =
  if peek st = tok then advance st else fail st "expected %s" (token_name tok)

let eat_var st =
  match peek st with
  | VAR s ->
    advance st;
    s
  | _ -> fail st "expected %%variable"

let eat_int st =
  match peek st with
  | INT n ->
    advance st;
    n
  | _ -> fail st "expected integer literal"

(* --- Types --- *)

let rec parse_ty st : Ty.t =
  match peek st with
  | IDENT "Tensor" ->
    advance st;
    eat st LBRACKET;
    eat st LPAREN;
    let dims = parse_int_list st in
    eat st RPAREN;
    eat st RBRACKET;
    Ty.Tensor dims
  | IDENT "List" ->
    advance st;
    eat st LBRACKET;
    let t = parse_ty st in
    eat st RBRACKET;
    Ty.List t
  | IDENT "Tree" ->
    advance st;
    eat st LBRACKET;
    let t = parse_ty st in
    eat st RBRACKET;
    Ty.Tree t
  | IDENT "Int" ->
    advance st;
    Ty.Int
  | IDENT "Bool" ->
    advance st;
    Ty.Bool
  | IDENT "Float" ->
    advance st;
    Ty.Float
  | IDENT "fn" ->
    advance st;
    eat st LPAREN;
    let args = if peek st = RPAREN then [] else parse_ty_list st in
    eat st RPAREN;
    eat st ARROW;
    let ret = parse_ty st in
    Ty.Fn (args, ret)
  | LPAREN ->
    advance st;
    let ts = parse_ty_list st in
    eat st RPAREN;
    (match ts with [ t ] -> t | ts -> Ty.Tup ts)
  | _ -> fail st "expected a type"

and parse_ty_list st =
  let t = parse_ty st in
  if peek st = COMMA then begin
    advance st;
    t :: parse_ty_list st
  end
  else [ t ]

and parse_int_list st =
  match peek st with
  | RPAREN -> []
  | INT n ->
    advance st;
    if peek st = COMMA then begin
      advance st;
      n :: parse_int_list st
    end
    else [ n ]
  | _ -> fail st "expected integer dimension"

(* --- Expressions --- *)

let prim_of_name st name nargs : Op.t option =
  match name, nargs with
  | "add", 2 -> Some Op.Add
  | "sub", 2 -> Some Op.Sub
  | "mul", 2 -> Some Op.Mul
  | "div", 2 -> Some Op.Div
  | "matmul", 2 -> Some Op.Matmul
  | "sigmoid", 1 -> Some Op.Sigmoid
  | "tanh", 1 -> Some Op.Tanh
  | "relu", 1 -> Some Op.Relu
  | "gelu", 1 -> Some Op.Gelu
  | "exp", 1 -> Some Op.Exp
  | "softmax", 1 -> Some Op.Softmax
  | "argmax", 1 -> Some Op.Argmax
  | "transpose", 1 -> Some Op.Transpose
  | "reduce_sum", 1 -> Some Op.Reduce_sum
  | "reduce_mean", 1 -> Some Op.Reduce_mean
  | "layernorm", 3 -> Some Op.Layernorm
  | "entropy", 1 -> Some Op.Entropy
  | "concat", n when n >= 2 -> Some (Op.Concat n)
  | ( ( "add" | "sub" | "mul" | "div" | "matmul" | "sigmoid" | "tanh" | "relu" | "gelu"
      | "exp" | "softmax" | "argmax" | "transpose" | "reduce_sum" | "reduce_mean"
      | "layernorm" | "entropy" | "concat" ),
      n ) ->
    fail st "primitive %s applied to %d arguments" name n
  | _ -> None

let rec parse_expr st : Ast.expr =
  match peek st with
  | IDENT "let" ->
    advance st;
    let v = eat_var st in
    eat st ASSIGN;
    let rhs = parse_expr st in
    eat st SEMI;
    let body = parse_expr st in
    Ast.Let (v, rhs, body)
  | IDENT "if" ->
    advance st;
    eat st LPAREN;
    let cond = parse_expr st in
    eat st RPAREN;
    let thn = parse_block st in
    eat st (IDENT "else");
    let els =
      (* Allow "else if (...)" chains without braces. *)
      if peek st = IDENT "if" then parse_expr st else parse_block st
    in
    Ast.If (cond, thn, els)
  | IDENT "match" ->
    advance st;
    eat st LPAREN;
    let scrut = parse_expr st in
    eat st RPAREN;
    eat st LBRACE;
    let cases = parse_cases st in
    eat st RBRACE;
    Ast.Match (scrut, cases)
  | IDENT "fn" ->
    advance st;
    eat st LPAREN;
    let params = if peek st = RPAREN then [] else parse_params st in
    eat st RPAREN;
    let body = parse_block st in
    Ast.Fn (params, body)
  | _ -> parse_or st

and parse_block st =
  eat st LBRACE;
  let e = parse_expr st in
  eat st RBRACE;
  e

and parse_params st =
  let v = eat_var st in
  eat st COLON;
  let t = parse_ty st in
  if peek st = COMMA then begin
    advance st;
    (v, t) :: parse_params st
  end
  else [ v, t ]

and parse_cases st =
  let pat = parse_pat st in
  eat st DARROW;
  let body = parse_expr st in
  let case = pat, body in
  if peek st = COMMA then begin
    advance st;
    if peek st = RBRACE then [ case ] else case :: parse_cases st
  end
  else [ case ]

and parse_pat st : Ast.pat =
  match peek st with
  | IDENT "Nil" ->
    advance st;
    Ast.Pnil
  | IDENT "Cons" ->
    advance st;
    eat st LPAREN;
    let a = eat_var st in
    eat st COMMA;
    let b = eat_var st in
    eat st RPAREN;
    Ast.Pcons (a, b)
  | IDENT "Leaf" ->
    advance st;
    eat st LPAREN;
    let a = eat_var st in
    eat st RPAREN;
    Ast.Pleaf a
  | IDENT "Node" ->
    advance st;
    eat st LPAREN;
    let a = eat_var st in
    eat st COMMA;
    let b = eat_var st in
    eat st RPAREN;
    Ast.Pnode (a, b)
  | IDENT "_" ->
    advance st;
    Ast.Pwild
  | _ -> fail st "expected pattern (Nil, Cons, Leaf, Node or _)"

and parse_or st =
  let lhs = parse_and st in
  if peek st = OROR then begin
    advance st;
    Ast.Binop (Ast.Or, lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if peek st = ANDAND then begin
    advance st;
    Ast.Binop (Ast.And, lhs, parse_and st)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | LT -> Some Ast.Lt
    | LE -> Some Ast.Le
    | GT -> Some Ast.Gt
    | GE -> Some Ast.Ge
    | EQEQ -> Some Ast.Eq
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Binop (op, lhs, parse_add st)

and parse_add st =
  let lhs = ref (parse_mul st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PLUS ->
      advance st;
      lhs := Ast.Binop (Ast.Add, !lhs, parse_mul st)
    | MINUS ->
      advance st;
      lhs := Ast.Binop (Ast.Sub, !lhs, parse_mul st)
    | _ -> continue := false
  done;
  !lhs

and parse_mul st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | STAR ->
      advance st;
      lhs := Ast.Binop (Ast.Mul, !lhs, parse_unary st)
    | SLASH ->
      advance st;
      lhs := Ast.Binop (Ast.Div, !lhs, parse_unary st)
    | PERCENT ->
      advance st;
      lhs := Ast.Binop (Ast.Mod, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | BANG ->
    advance st;
    Ast.Not (parse_unary st)
  | MINUS ->
    advance st;
    (match parse_unary st with
    | Ast.Int_lit n -> Ast.Int_lit (-n)
    | Ast.Float_lit f -> Ast.Float_lit (-.f)
    | e -> Ast.Binop (Ast.Sub, Ast.Int_lit 0, e))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | DOT ->
      advance st;
      let k = eat_int st in
      e := Ast.Proj (!e, k)
    | LPAREN ->
      advance st;
      let args = if peek st = RPAREN then [] else parse_args st in
      eat st RPAREN;
      e := Ast.Call (!e, args)
    | _ -> continue := false
  done;
  !e

and parse_args st =
  let a = parse_expr st in
  if peek st = COMMA then begin
    advance st;
    a :: parse_args st
  end
  else [ a ]

and parse_shape_literal st : int list =
  eat st LPAREN;
  let dims = parse_int_list st in
  eat st RPAREN;
  dims

and parse_atom st : Ast.expr =
  match peek st with
  | INT n ->
    advance st;
    Ast.Int_lit n
  | FLOAT f ->
    advance st;
    Ast.Float_lit f
  | IDENT "true" ->
    advance st;
    Ast.Bool_lit true
  | IDENT "false" ->
    advance st;
    Ast.Bool_lit false
  | VAR v ->
    advance st;
    Ast.Var v
  | GLOBAL g ->
    advance st;
    Ast.Global g
  | LBRACE -> parse_block st
  | LPAREN ->
    advance st;
    let es = parse_args st in
    eat st RPAREN;
    (match es with [ e ] -> e | es -> Ast.Tuple es)
  | IDENT "Nil" ->
    advance st;
    Ast.Nil
  | IDENT "Cons" ->
    advance st;
    eat st LPAREN;
    let a = parse_expr st in
    eat st COMMA;
    let b = parse_expr st in
    eat st RPAREN;
    Ast.Cons (a, b)
  | IDENT "Leaf" ->
    advance st;
    eat st LPAREN;
    let a = parse_expr st in
    eat st RPAREN;
    Ast.Leaf a
  | IDENT "Node" ->
    advance st;
    eat st LPAREN;
    let a = parse_expr st in
    eat st COMMA;
    let b = parse_expr st in
    eat st RPAREN;
    Ast.Node (a, b)
  | IDENT "concurrent" ->
    advance st;
    eat st LPAREN;
    let es = parse_args st in
    eat st RPAREN;
    Ast.Concurrent es
  | IDENT "map" ->
    advance st;
    eat st LPAREN;
    let f = parse_expr st in
    eat st COMMA;
    let xs = parse_expr st in
    eat st RPAREN;
    Ast.Map (f, xs)
  | IDENT "scalar" ->
    advance st;
    eat st LPAREN;
    let e = parse_expr st in
    eat st RPAREN;
    Ast.Scalar e
  | IDENT "choice" ->
    advance st;
    eat st LPAREN;
    let e = parse_expr st in
    eat st RPAREN;
    Ast.Choice e
  | IDENT "coin" ->
    advance st;
    eat st LPAREN;
    let e = parse_expr st in
    eat st RPAREN;
    Ast.Coin e
  | IDENT "zeros" ->
    advance st;
    eat st LPAREN;
    let shape = parse_shape_literal st in
    eat st RPAREN;
    Ast.Prim (Op.Constant { shape; value = 0.0 }, [])
  | IDENT "ones" ->
    advance st;
    eat st LPAREN;
    let shape = parse_shape_literal st in
    eat st RPAREN;
    Ast.Prim (Op.Constant { shape; value = 1.0 }, [])
  | IDENT "const" ->
    advance st;
    eat st LPAREN;
    let shape = parse_shape_literal st in
    eat st COMMA;
    let v =
      match peek st with
      | FLOAT f ->
        advance st;
        f
      | INT n ->
        advance st;
        float_of_int n
      | _ -> fail st "expected numeric constant"
    in
    eat st RPAREN;
    Ast.Prim (Op.Constant { shape; value = v }, [])
  | IDENT "random" ->
    advance st;
    eat st LPAREN;
    let shape = parse_shape_literal st in
    eat st RPAREN;
    Ast.Prim (Op.Random { shape }, [])
  | IDENT "slice" ->
    advance st;
    eat st LPAREN;
    let e = parse_expr st in
    eat st COMMA;
    let lo = eat_int st in
    eat st COMMA;
    let hi = eat_int st in
    eat st RPAREN;
    Ast.Prim (Op.Slice { lo; hi }, [ e ])
  | IDENT name -> begin
    (* A primitive-operator call, e.g. [matmul(a, b)]. *)
    match peek2 st with
    | LPAREN ->
      advance st;
      advance st;
      let args = if peek st = RPAREN then [] else parse_args st in
      eat st RPAREN;
      (match prim_of_name st name (List.length args) with
      | Some op -> Ast.Prim (op, args)
      | None -> fail st "unknown operator or function %S" name)
    | _ -> fail st "unexpected identifier %S" name
  end
  | _ -> fail st "expected expression"

(* --- Definitions --- *)

let parse_def st : Ast.def =
  eat st (IDENT "def");
  let name =
    match peek st with
    | GLOBAL g ->
      advance st;
      g
    | _ -> fail st "expected @name after def"
  in
  eat st LPAREN;
  let params = if peek st = RPAREN then [] else parse_params st in
  eat st RPAREN;
  eat st ARROW;
  let ret = parse_ty st in
  let body = parse_block st in
  { Ast.name; params; ret; body }

let parse_program_tokens st : Ast.program =
  let defs = ref [] in
  while peek st <> EOF do
    defs := parse_def st :: !defs
  done;
  { Ast.defs = List.rev !defs }

(** Parse a whole program from source text. *)
let program (src : string) : Ast.program =
  let toks = Array.of_list (Lexer.tokenize src) in
  parse_program_tokens { toks; at = 0 }

(** Parse a single expression (mostly for tests). *)
let expression (src : string) : Ast.expr =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; at = 0 } in
  let e = parse_expr st in
  eat st EOF;
  e
