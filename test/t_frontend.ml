(** Tests for the language frontend: lexer, parser, pretty-printer
    round-trips, type checker and elaboration. *)

open Acrobat
open T_util
module Lexer = Ir.Lexer
module Parser = Ir.Parser
module Ast = Ir.Ast
module Ty = Ir.Ty
module Op = Ir.Op
module Typecheck = Ir.Typecheck
module Pp = Ir.Pp

(* --- Lexer --- *)

let test_lex_basic () =
  let toks = Lexer.tokenize "let %x = @f(%y) + 3;" in
  let kinds = List.map (fun (l : Lexer.located) -> l.tok) toks in
  Alcotest.(check int) "token count" 11 (List.length kinds);
  check_true "var" (List.mem (Lexer.VAR "x") kinds);
  check_true "global" (List.mem (Lexer.GLOBAL "f") kinds);
  check_true "int" (List.mem (Lexer.INT 3) kinds)

let test_lex_operators () =
  let toks = Lexer.tokenize "-> => == <= >= && || < > = + - * / %" in
  let kinds = List.map (fun (l : Lexer.located) -> l.tok) toks in
  Alcotest.(check int) "count" 16 (List.length kinds);
  check_true "arrow" (List.mem Lexer.ARROW kinds);
  check_true "darrow" (List.mem Lexer.DARROW kinds);
  check_true "percent alone" (List.mem Lexer.PERCENT kinds)

let test_lex_comments () =
  let toks = Lexer.tokenize "1 (* a (* nested *) b *) 2 // line\n3" in
  let ints =
    List.filter_map (fun (l : Lexer.located) -> match l.tok with Lexer.INT n -> Some n | _ -> None) toks
  in
  Alcotest.(check (list int)) "comments skipped" [ 1; 2; 3 ] ints

let test_lex_floats () =
  let toks = Lexer.tokenize "3.25 1.5e3 2.0e-2" in
  let floats =
    List.filter_map (fun (l : Lexer.located) -> match l.tok with Lexer.FLOAT f -> Some f | _ -> None) toks
  in
  Alcotest.(check (list (float 1e-12))) "floats" [ 3.25; 1500.0; 0.02 ] floats

let test_lex_error_position () =
  match Lexer.tokenize "let %x =\n  # bad" with
  | exception Lexer.Error msg -> check_true "mentions line 2" (T_util.contains msg "line 2")
  | _ -> Alcotest.fail "expected lexer error"

let test_lex_int_overflow () =
  match Lexer.tokenize "Tensor[(99999999999999999999)]" with
  | exception Lexer.Error msg ->
    check_true "out of range" (T_util.contains msg "col 9: integer literal 99999999999999999999 out of range")
  | _ -> Alcotest.fail "expected lexer error"

(* --- Parser --- *)

let test_parse_precedence () =
  match Parser.expression "1 + 2 * 3 < 10 && true" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)), _), Ast.Bool_lit true)
    -> ()
  | e -> Alcotest.failf "wrong parse: %a" Pp.pp_expr e

let test_parse_unary_minus () =
  match Parser.expression "-5" with
  | Ast.Int_lit (-5) -> ()
  | e -> Alcotest.failf "wrong parse: %a" Pp.pp_expr e

let test_parse_prim_ops () =
  (match Parser.expression "matmul(%a, %b)" with
  | Ast.Prim (Op.Matmul, [ Ast.Var "a"; Ast.Var "b" ]) -> ()
  | e -> Alcotest.failf "matmul: %a" Pp.pp_expr e);
  (match Parser.expression "slice(%x, 0, 4)" with
  | Ast.Prim (Op.Slice { lo = 0; hi = 4 }, [ Ast.Var "x" ]) -> ()
  | e -> Alcotest.failf "slice: %a" Pp.pp_expr e);
  match Parser.expression "zeros((1, 8))" with
  | Ast.Prim (Op.Constant { shape = [ 1; 8 ]; value = 0.0 }, []) -> ()
  | e -> Alcotest.failf "zeros: %a" Pp.pp_expr e

let test_parse_concat_arity () =
  match Parser.expression "concat(%a, %b, %c)" with
  | Ast.Prim (Op.Concat 3, _) -> ()
  | e -> Alcotest.failf "concat: %a" Pp.pp_expr e

let test_parse_proj_chain () =
  (* [.0.1] would lex as a float literal; nested projection needs parens. *)
  match Parser.expression "(%p.0).1" with
  | Ast.Proj (Ast.Proj (Ast.Var "p", 0), 1) -> ()
  | e -> Alcotest.failf "proj: %a" Pp.pp_expr e

let test_parse_call_chain () =
  match Parser.expression "%f(%x)(%y)" with
  | Ast.Call (Ast.Call (Ast.Var "f", [ _ ]), [ _ ]) -> ()
  | e -> Alcotest.failf "call chain: %a" Pp.pp_expr e

let test_parse_error_reports_location () =
  match Parser.program "def @f() -> Int { let }" with
  | exception Parser.Error msg -> check_true "mentions line" (T_util.contains msg "line 1")
  | _ -> Alcotest.fail "expected parse error"

let test_parse_unknown_op () =
  match Parser.expression "frobnicate(%x)" with
  | exception Parser.Error _ -> ()
  | e -> Alcotest.failf "expected error, got %a" Pp.pp_expr e

let test_parse_types () =
  let p =
    Parser.program
      "def @f(%x: Tensor[(2, 3)], %l: List[Int], %t: Tree[(Bool, Float)], %g: fn(Int) -> Bool) -> Int { 1 }"
  in
  match (List.hd p.Ast.defs).Ast.params with
  | [ (_, Ty.Tensor [ 2; 3 ]); (_, Ty.List Ty.Int); (_, Ty.Tree (Ty.Tup [ Ty.Bool; Ty.Float ]));
      (_, Ty.Fn ([ Ty.Int ], Ty.Bool)) ] ->
    ()
  | _ -> Alcotest.fail "wrong parameter types"

(* --- Pretty-printer round trip --- *)

let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = map (fun i -> Ast.Var (Fmt.str "v%d" i)) (int_range 0 5) in
  let base =
    oneof
      [
        var;
        map (fun n -> Ast.Int_lit n) (int_range (-20) 20);
        map (fun k -> Ast.Float_lit (float_of_int k /. 8.0)) (int_range 0 64);
        map (fun b -> Ast.Bool_lit b) bool;
        return Ast.Nil;
      ]
  in
  let binop =
    oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Lt; Ast.Le; Ast.Eq; Ast.And; Ast.Or ]
  in
  fix
    (fun self n ->
      if n = 0 then base
      else
        let sub = self (n / 2) in
        oneof
          [
            base;
            map3 (fun op a b -> Ast.Binop (op, a, b)) binop sub sub;
            map (fun a -> Ast.Not a) sub;
            map3 (fun x a b -> Ast.Let (Fmt.str "x%d" x, a, b)) (int_range 0 3) sub sub;
            map3 (fun c a b -> Ast.If (c, a, b)) sub sub sub;
            map2 (fun a b -> Ast.Cons (a, b)) sub sub;
            map (fun a -> Ast.Leaf a) sub;
            map2 (fun a b -> Ast.Node (a, b)) sub sub;
            map2 (fun a b -> Ast.Tuple [ a; b ]) sub sub;
            map2 (fun a k -> Ast.Proj (a, k)) sub (int_range 0 1);
            map2 (fun a b -> Ast.Prim (Ir.Op.Add, [ a; b ])) sub sub;
            map (fun a -> Ast.Prim (Ir.Op.Sigmoid, [ a ])) sub;
            map2 (fun f xs -> Ast.Map (f, xs)) sub sub;
            map (fun a -> Ast.Scalar a) sub;
            map (fun a -> Ast.Choice a) sub;
            map (fun a -> Ast.Coin a) sub;
            map (fun es -> Ast.Concurrent es) (list_size (int_range 1 3) sub);
            map2 (fun s arms ->
                Ast.Match
                  ( s,
                    List.mapi
                      (fun i body ->
                        let pat =
                          match i mod 3 with
                          | 0 -> Ast.Pnil
                          | 1 -> Ast.Pcons ("h", "t")
                          | _ -> Ast.Pwild
                        in
                        pat, body)
                      arms ))
              sub
              (list_size (int_range 1 3) sub);
            map (fun args -> Ast.Call (Ast.Global "g", args)) (list_size (int_range 0 2) sub);
          ])
    5

let prop_pp_roundtrip =
  qtest ~count:500 "parser: print-then-parse is identity" gen_expr (fun e ->
      let printed = Fmt.str "%a" Pp.pp_expr e in
      match Parser.expression printed with
      | e' -> e' = e
      | exception _ -> false)

let test_program_roundtrip () =
  List.iter
    (fun id ->
      let m = Models.tiny id in
      let p = Parser.program m.Model.source in
      let printed = Pp.program_to_string p in
      let p' = Parser.program printed in
      Alcotest.(check int)
        (id ^ ": same number of defs")
        (List.length p.Ast.defs) (List.length p'.Ast.defs);
      check_true (id ^ ": round trip") (p = p'))
    Models.tiny_ids

(* --- Typechecker --- *)

let check_type_error src fragment =
  match Typecheck.parse_and_check src with
  | exception Typecheck.Type_error msg ->
    if not (T_util.contains msg fragment) then
      Alcotest.failf "error %S does not mention %S" msg fragment
  | _ -> Alcotest.fail "expected type error"

let test_typecheck_elaborates_tensor_arith () =
  let p = Typecheck.parse_and_check
      "def @main(%a: Tensor[(1, 4)], %b: Tensor[(1, 4)]) -> Tensor[(1, 4)] { %a + %b }"
  in
  match (List.hd p.Ast.defs).Ast.body with
  | Ast.Prim (Op.Add, _) -> ()
  | e -> Alcotest.failf "not elaborated: %a" Pp.pp_expr e

let test_typecheck_shape_mismatch () =
  check_type_error
    "def @main(%a: Tensor[(1, 4)], %b: Tensor[(4, 8)]) -> Tensor[(1, 8)] { %a + %b }"
    "broadcast"

let test_typecheck_matmul_shapes () =
  check_type_error
    "def @main(%a: Tensor[(1, 4)], %b: Tensor[(5, 8)]) -> Tensor[(1, 8)] { matmul(%a, %b) }"
    "matmul"

let test_typecheck_unbound_var () =
  check_type_error "def @main(%a: Int) -> Int { %b }" "unbound variable"

let test_typecheck_unbound_global () =
  check_type_error "def @main(%a: Int) -> Int { @nope(%a) }" "unbound global"

let test_typecheck_arity () =
  check_type_error
    "def @f(%a: Int, %b: Int) -> Int { %a } def @main(%x: Int) -> Int { @f(%x) }"
    "arguments"

let test_typecheck_branch_types () =
  check_type_error "def @main(%c: Bool) -> Int { if (%c) { 1 } else { true } }" "expected"

let test_typecheck_nil_in_context () =
  let src =
    "def @main(%x: Int) -> List[Int] { Cons(%x, Nil) }"
  in
  ignore (Typecheck.parse_and_check src)

let test_typecheck_match_list_on_tree () =
  check_type_error
    "def @main(%t: Tree[Int]) -> Int { match (%t) { Nil => 0, _ => 1 } }"
    "list pattern"

let test_typecheck_scalar_requires_single_element () =
  check_type_error
    "def @main(%x: Tensor[(2, 3)]) -> Float { scalar(%x) }"
    "single-element"

let test_typecheck_map () =
  let src =
    "def @main(%xs: List[Int]) -> List[Bool] { map(fn(%x: Int) { %x < 3 }, %xs) }"
  in
  ignore (Typecheck.parse_and_check src);
  check_type_error
    "def @main(%xs: List[Int]) -> List[Bool] { map(fn(%x: Bool) { %x }, %xs) }"
    "map"

let test_typecheck_duplicate_def () =
  check_type_error "def @f(%x: Int) -> Int { %x } def @f(%y: Int) -> Int { %y } def @main(%x: Int) -> Int { %x }"
    "duplicate"

let test_typecheck_mod_on_float () =
  check_type_error "def @main(%x: Float) -> Float { %x % 2.0 }" "Int"

let test_typecheck_layernorm_params () =
  check_type_error
    "def @main(%x: Tensor[(1, 8)], %g: Tensor[(1, 4)], %b: Tensor[(1, 4)]) -> Tensor[(1, 8)] \
     { layernorm(%x, %g, %b) }"
    "in @main: layernorm: gain (1, 4) and bias (1, 4) must have 8 elements"

let test_typecheck_concat_rank0 () =
  check_type_error
    "def @main(%a: Tensor[()], %b: Tensor[()]) -> Tensor[(2)] { concat(%a, %b) }"
    "in @main: concat2: cannot concatenate rank-0 tensors"

(* 2^32 * 2^32 wraps to 0 in [int]: an unchecked count would give [%x] an
   empty array that the kernels then index far past its end. *)
let test_typecheck_shape_overflow () =
  check_type_error
    "def @main(%x: Tensor[(4294967296, 4294967296)]) -> Tensor[(4294967296, 4294967296)] \
     { transpose(%x) }"
    "in @main: element count of (4294967296, 4294967296) overflows int";
  check_type_error
    "def @main(%a: Tensor[(4294967296, 0)], %b: Tensor[(0, 4294967296)]) -> Tensor[(1)] \
     { reduce_sum(matmul(%a, %b)) }"
    "in @main: element count of (4294967296, 4294967296) overflows int";
  check_type_error
    "def @main(%x: Tensor[(1)]) -> Tensor[(1)] \
     { let %f = fn(%y: Tensor[(4294967296, 4294967296)]) { %y }; %x }"
    "in @main: element count of (4294967296, 4294967296) overflows int"

let test_all_models_typecheck () =
  List.iter
    (fun id ->
      let m = Models.tiny id in
      ignore (Typecheck.parse_and_check m.Model.source))
    Models.tiny_ids;
  List.iter
    (fun (e : Models.entry) ->
      List.iter
        (fun size -> ignore (Typecheck.parse_and_check (e.Models.make size).Model.source))
        [ Model.Small; Model.Large ])
    Models.all

let suite =
  [
    Alcotest.test_case "lexer: basic" `Quick test_lex_basic;
    Alcotest.test_case "lexer: operators" `Quick test_lex_operators;
    Alcotest.test_case "lexer: comments" `Quick test_lex_comments;
    Alcotest.test_case "lexer: floats" `Quick test_lex_floats;
    Alcotest.test_case "lexer: error position" `Quick test_lex_error_position;
    Alcotest.test_case "lexer: int literal overflow" `Quick test_lex_int_overflow;
    Alcotest.test_case "parser: precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parser: unary minus" `Quick test_parse_unary_minus;
    Alcotest.test_case "parser: primitive ops" `Quick test_parse_prim_ops;
    Alcotest.test_case "parser: concat arity" `Quick test_parse_concat_arity;
    Alcotest.test_case "parser: projection chain" `Quick test_parse_proj_chain;
    Alcotest.test_case "parser: call chain" `Quick test_parse_call_chain;
    Alcotest.test_case "parser: error location" `Quick test_parse_error_reports_location;
    Alcotest.test_case "parser: unknown op" `Quick test_parse_unknown_op;
    Alcotest.test_case "parser: types" `Quick test_parse_types;
    prop_pp_roundtrip;
    Alcotest.test_case "pp: model sources round trip" `Quick test_program_roundtrip;
    Alcotest.test_case "typecheck: elaboration" `Quick test_typecheck_elaborates_tensor_arith;
    Alcotest.test_case "typecheck: shape mismatch" `Quick test_typecheck_shape_mismatch;
    Alcotest.test_case "typecheck: matmul shapes" `Quick test_typecheck_matmul_shapes;
    Alcotest.test_case "typecheck: unbound var" `Quick test_typecheck_unbound_var;
    Alcotest.test_case "typecheck: unbound global" `Quick test_typecheck_unbound_global;
    Alcotest.test_case "typecheck: call arity" `Quick test_typecheck_arity;
    Alcotest.test_case "typecheck: branch types" `Quick test_typecheck_branch_types;
    Alcotest.test_case "typecheck: Nil in context" `Quick test_typecheck_nil_in_context;
    Alcotest.test_case "typecheck: pattern/scrutinee" `Quick test_typecheck_match_list_on_tree;
    Alcotest.test_case "typecheck: scalar shape" `Quick test_typecheck_scalar_requires_single_element;
    Alcotest.test_case "typecheck: map" `Quick test_typecheck_map;
    Alcotest.test_case "typecheck: duplicate defs" `Quick test_typecheck_duplicate_def;
    Alcotest.test_case "typecheck: layernorm gain/bias width" `Quick test_typecheck_layernorm_params;
    Alcotest.test_case "typecheck: rank-0 concat" `Quick test_typecheck_concat_rank0;
    Alcotest.test_case "typecheck: shape overflow" `Quick test_typecheck_shape_overflow;
    Alcotest.test_case "typecheck: mod on float" `Quick test_typecheck_mod_on_float;
    Alcotest.test_case "typecheck: all models" `Quick test_all_models_typecheck;
  ]
