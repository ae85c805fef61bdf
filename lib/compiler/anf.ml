(** A-normal form: every tensor-operator argument becomes a let-bound
    variable, so static-block (coarsening) and fusion decisions can work on a
    flat sequence of single-op bindings. Only {!Ast.Prim} applications are
    flattened; scalar expressions, data-structure constructors and calls are
    left in place. *)

open Acrobat_ir

(* The number [n] of an identifier spelled [_t<n>], if it is one. *)
let temp_number x =
  if String.length x > 2 && x.[0] = '_' && x.[1] = 't' then
    int_of_string_opt (String.sub x 2 (String.length x - 2))
  else None

(* [normalize fresh e k] rewrites [e] so that all Prims are let-bound,
   naming each by [fresh ()], then passes the atomic result expression to
   the continuation [k]. *)
let rec normalize fresh (e : Ast.expr) (k : Ast.expr -> Ast.expr) : Ast.expr =
  let normalize = normalize fresh and normalize_list = normalize_list fresh
  and tail = tail fresh in
  match e with
  | Ast.Var _ | Ast.Global _ | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Nil ->
    k e
  | Ast.Prim (op, args) ->
    normalize_list args (fun args' ->
        let v = fresh () in
        Ast.Let (v, Ast.Prim (op, args'), k (Ast.Var v)))
  | Ast.Let (x, rhs, body) ->
    (* Keep user lets in place; normalize both sides. *)
    normalize_named fresh x rhs (fun () -> normalize body k)
  | Ast.If (c, a, b) -> normalize c (fun c' -> k (Ast.If (c', tail a, tail b)))
  | Ast.Match (s, cases) ->
    normalize s (fun s' -> k (Ast.Match (s', List.map (fun (p, e) -> p, tail e) cases)))
  | Ast.Call (f, args) ->
    normalize f (fun f' -> normalize_list args (fun args' -> k (Ast.Call (f', args'))))
  | Ast.Fn (params, body) -> k (Ast.Fn (params, tail body))
  | Ast.Cons (a, b) -> normalize a (fun a' -> normalize b (fun b' -> k (Ast.Cons (a', b'))))
  | Ast.Leaf a -> normalize a (fun a' -> k (Ast.Leaf a'))
  | Ast.Node (a, b) -> normalize a (fun a' -> normalize b (fun b' -> k (Ast.Node (a', b'))))
  | Ast.Tuple es -> normalize_list es (fun es' -> k (Ast.Tuple es'))
  | Ast.Proj (a, i) -> normalize a (fun a' -> k (Ast.Proj (a', i)))
  | Ast.Binop (op, a, b) ->
    normalize a (fun a' -> normalize b (fun b' -> k (Ast.Binop (op, a', b'))))
  | Ast.Not a -> normalize a (fun a' -> k (Ast.Not a'))
  | Ast.Concurrent es -> k (Ast.Concurrent (List.map tail es))
  | Ast.Map (f, xs) ->
    normalize f (fun f' -> normalize xs (fun xs' -> k (Ast.Map (f', xs'))))
  | Ast.Scalar a -> normalize a (fun a' -> k (Ast.Scalar a'))
  | Ast.Choice a -> normalize a (fun a' -> k (Ast.Choice a'))
  | Ast.Coin a -> normalize a (fun a' -> k (Ast.Coin a'))

(* Normalize a let-bound right-hand side, preserving the user's binding name
   for the outermost value. *)
and normalize_named fresh x rhs (k : unit -> Ast.expr) : Ast.expr =
  match rhs with
  | Ast.Prim (op, args) ->
    normalize_list fresh args (fun args' -> Ast.Let (x, Ast.Prim (op, args'), k ()))
  | _ -> normalize fresh rhs (fun rhs' -> Ast.Let (x, rhs', k ()))

and normalize_list fresh es (k : Ast.expr list -> Ast.expr) : Ast.expr =
  match es with
  | [] -> k []
  | e :: rest ->
    normalize fresh e (fun e' -> normalize_list fresh rest (fun rest' -> k (e' :: rest')))

(* Normalize an expression in tail position. *)
and tail fresh e = normalize fresh e (fun atom -> atom)

(** Temporaries are named [_t<n>], numbered per program from above every
    [n] the program's own identifiers spell, so none equals a source
    name. *)
let program (p : Ast.program) : Ast.program =
  let last = ref 0 in
  let see x = Option.iter (fun n -> last := max !last n) (temp_number x) in
  List.iter
    (fun (d : Ast.def) ->
      List.iter (fun (x, _) -> see x) d.params;
      Ast.fold_expr
        (fun () -> function
          | Ast.Var x | Ast.Let (x, _, _) -> see x
          | Ast.Fn (params, _) -> List.iter (fun (x, _) -> see x) params
          | Ast.Match (_, cases) ->
            List.iter (fun (pat, _) -> List.iter see (Ast.pat_vars pat)) cases
          | _ -> ())
        () d.body)
    p.defs;
  let fresh () =
    incr last;
    Fmt.str "_t%d" !last
  in
  { Ast.defs = List.map (fun (d : Ast.def) -> { d with body = tail fresh d.body }) p.defs }
