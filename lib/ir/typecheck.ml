(** Bidirectional type checker and elaborator.

    Checking is mostly syntax-directed inference; expected types are
    propagated into positions that cannot infer on their own ([Nil], [Fn]
    bodies, match arms, ...). Elaboration rewrites arithmetic operators
    applied to tensors ([a + b]) into primitive tensor ops ([add(a, b)]),
    so downstream passes only ever see {!Ast.Prim} for tensor work. *)

exception Type_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Type_error m)) fmt

type env = { vars : (string * Ty.t) list; globals : (string * Ty.t) list }

let lookup_var env x =
  match List.assoc_opt x env.vars with
  | Some t -> t
  | None -> fail "unbound variable %%%s" x

let lookup_global env g =
  match List.assoc_opt g env.globals with
  | Some t -> t
  | None -> fail "unbound global @%s" g

let bind env x t = { env with vars = (x, t) :: env.vars }

let def_signature (d : Ast.def) = Ty.Fn (List.map snd d.params, d.ret)

let is_tensor = function Ty.Tensor _ -> true | _ -> false

(* Kernels index tensors up to [Shape.numel], which rejects shapes whose
   element count overflows [int]; reject them here, where they are written. *)
let rec check_ty : Ty.t -> unit = function
  | Ty.Tensor s -> (
    try ignore (Acrobat_tensor.Shape.numel s)
    with Acrobat_tensor.Shape.Mismatch m -> fail "%s" m)
  | Ty.Int | Ty.Bool | Ty.Float -> ()
  | Ty.List t | Ty.Tree t -> check_ty t
  | Ty.Tup ts -> List.iter check_ty ts
  | Ty.Fn (ts, t) -> List.iter check_ty (t :: ts)

let binop_prim : Ast.binop -> Op.t option = function
  | Ast.Add -> Some Op.Add
  | Ast.Sub -> Some Op.Sub
  | Ast.Mul -> Some Op.Mul
  | Ast.Div -> Some Op.Div
  | Ast.Mod | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.And | Ast.Or -> None

(* Inference returns the elaborated expression along with its type. *)
let rec infer env (e : Ast.expr) : Ast.expr * Ty.t =
  match e with
  | Ast.Var x -> e, lookup_var env x
  | Ast.Global g -> e, lookup_global env g
  | Ast.Int_lit _ -> e, Ty.Int
  | Ast.Float_lit _ -> e, Ty.Float
  | Ast.Bool_lit _ -> e, Ty.Bool
  | Ast.Let (x, rhs, body) ->
    let rhs', trhs = infer env rhs in
    let body', tbody = infer (bind env x trhs) body in
    Ast.Let (x, rhs', body'), tbody
  | Ast.If (c, a, b) ->
    let c' = check env c Ty.Bool in
    let a', ta = infer env a in
    let b' = check env b ta in
    Ast.If (c', a', b'), ta
  | Ast.Prim (op, args) -> infer_prim env op args
  | Ast.Call (callee, args) -> begin
    let callee', tc = infer env callee in
    match tc with
    | Ty.Fn (tps, ret) ->
      if List.length tps <> List.length args then
        fail "call expects %d arguments, got %d" (List.length tps) (List.length args);
      let args' = List.map2 (fun a t -> check env a t) args tps in
      Ast.Call (callee', args'), ret
    | t -> fail "calling a non-function of type %a" Ty.pp t
  end
  | Ast.Fn (params, body) ->
    List.iter (fun (_, t) -> check_ty t) params;
    let env' = List.fold_left (fun e (x, t) -> bind e x t) env params in
    let body', tb = infer env' body in
    Ast.Fn (params, body'), Ty.Fn (List.map snd params, tb)
  | Ast.Match (scrut, cases) -> begin
    let scrut', ts = infer env scrut in
    let envs = case_envs env ts cases in
    (* Find one arm that infers, then check the others against it. *)
    let rec try_infer = function
      | [] -> fail "cannot infer the type of any match arm"
      | ((_, body), env_c) :: rest -> (
        try infer env_c body, rest with Type_error _ when rest <> [] -> try_infer rest)
    in
    let (_, t_arm), _ = try_infer (List.combine cases envs) in
    let cases' =
      List.map2 (fun (p, body) env_c -> p, check env_c body t_arm) cases envs
    in
    Ast.Match (scrut', cases'), t_arm
  end
  | Ast.Nil -> fail "cannot infer the element type of Nil (add context)"
  | Ast.Cons (h, t) ->
    let h', th = infer env h in
    let t' = check env t (Ty.List th) in
    Ast.Cons (h', t'), Ty.List th
  | Ast.Leaf v ->
    let v', tv = infer env v in
    Ast.Leaf v', Ty.Tree tv
  | Ast.Node (l, r) ->
    let l', tl = infer env l in
    let r' = check env r tl in
    (match tl with
    | Ty.Tree _ -> Ast.Node (l', r'), tl
    | t -> fail "Node children must be trees, got %a" Ty.pp t)
  | Ast.Tuple es ->
    let es', ts = List.split (List.map (infer env) es) in
    Ast.Tuple es', Ty.Tup ts
  | Ast.Proj (e0, k) -> begin
    let e0', t0 = infer env e0 in
    match t0 with
    | Ty.Tup ts when k < List.length ts -> Ast.Proj (e0', k), List.nth ts k
    | Ty.Tup _ -> fail "tuple projection .%d out of bounds" k
    | t -> fail "projection from non-tuple of type %a" Ty.pp t
  end
  | Ast.Binop (op, a, b) -> infer_binop env op a b
  | Ast.Not e0 -> Ast.Not (check env e0 Ty.Bool), Ty.Bool
  | Ast.Concurrent es ->
    let es', ts = List.split (List.map (infer env) es) in
    Ast.Concurrent es', Ty.Tup ts
  | Ast.Map (f, xs) -> begin
    let f', tf = infer env f in
    let xs', txs = infer env xs in
    match tf, txs with
    | Ty.Fn ([ ta ], tb), Ty.List telem when Ty.equal ta telem -> Ast.Map (f', xs'), Ty.List tb
    | Ty.Fn ([ ta ], _), Ty.List telem ->
      fail "map: function takes %a but list holds %a" Ty.pp ta Ty.pp telem
    | tf, _ -> fail "map: expected unary function and list, got %a and %a" Ty.pp tf Ty.pp txs
  end
  | Ast.Scalar e0 -> begin
    let e0', t0 = infer env e0 in
    match t0 with
    | Ty.Tensor s when Acrobat_tensor.Shape.numel s = 1 -> Ast.Scalar e0', Ty.Float
    | Ty.Tensor s ->
      fail "scalar() requires a single-element tensor, got shape %a" Acrobat_tensor.Shape.pp s
    | t -> fail "scalar() requires a tensor, got %a" Ty.pp t
  end
  | Ast.Choice e0 -> Ast.Choice (check env e0 Ty.Int), Ty.Int
  | Ast.Coin e0 -> Ast.Coin (check env e0 Ty.Float), Ty.Bool

and infer_prim env op args =
  let args', ts = List.split (List.map (infer env) args) in
  let shapes =
    List.map
      (function
        | Ty.Tensor s -> s
        | t -> fail "operator %s applied to non-tensor of type %a" (Op.name op) Ty.pp t)
      ts
  in
  let out =
    try Op.out_shape op shapes with
    | Op.Shape_error m -> fail "%s" m
    | Acrobat_tensor.Shape.Mismatch m -> fail "%s" m
  in
  check_ty (Ty.Tensor out);
  Ast.Prim (op, args'), Ty.Tensor out

and infer_binop env op a b =
  let a', ta = infer env a in
  match op, ta with
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), Ty.Tensor _ -> begin
    let b', tb = infer env b in
    if not (is_tensor tb) then fail "mixing tensor and %a in %s" Ty.pp tb (Ast.binop_name op);
    match binop_prim op with
    | Some prim -> infer_prim env prim [ a'; b' ]
    | None -> assert false
  end
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), (Ty.Int | Ty.Float) ->
    let b' = check env b ta in
    (if op = Ast.Mod && ta <> Ty.Int then fail "%% requires Int operands");
    Ast.Binop (op, a', b'), ta
  | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq), (Ty.Int | Ty.Float | Ty.Bool) ->
    let b' = check env b ta in
    Ast.Binop (op, a', b'), Ty.Bool
  | (Ast.And | Ast.Or), Ty.Bool ->
    let b' = check env b Ty.Bool in
    Ast.Binop (op, a', b'), Ty.Bool
  | op, t -> fail "operator %s not applicable to %a" (Ast.binop_name op) Ty.pp t

and case_envs env scrut_ty cases =
  List.map
    (fun (pat, _) ->
      match pat, scrut_ty with
      | Ast.Pwild, _ -> env
      | Ast.Pnil, Ty.List _ -> env
      | Ast.Pcons (h, t), Ty.List telem -> bind (bind env h telem) t scrut_ty
      | Ast.Pleaf v, Ty.Tree telem -> bind env v telem
      | Ast.Pnode (l, r), Ty.Tree _ -> bind (bind env l scrut_ty) r scrut_ty
      | (Ast.Pnil | Ast.Pcons _), t -> fail "list pattern against %a" Ty.pp t
      | (Ast.Pleaf _ | Ast.Pnode _), t -> fail "tree pattern against %a" Ty.pp t)
    cases

and check env (e : Ast.expr) (expected : Ty.t) : Ast.expr =
  match e, expected with
  | Ast.Nil, Ty.List _ -> Ast.Nil
  | Ast.Nil, t -> fail "Nil where %a expected" Ty.pp t
  | Ast.Cons (h, t), Ty.List telem ->
    Ast.Cons (check env h telem, check env t expected)
  | Ast.Leaf v, Ty.Tree telem -> Ast.Leaf (check env v telem)
  | Ast.Node (l, r), Ty.Tree _ -> Ast.Node (check env l expected, check env r expected)
  | Ast.Tuple es, Ty.Tup ts when List.length es = List.length ts ->
    Ast.Tuple (List.map2 (check env) es ts)
  | Ast.If (c, a, b), _ ->
    Ast.If (check env c Ty.Bool, check env a expected, check env b expected)
  | Ast.Let (x, rhs, body), _ ->
    let rhs', trhs = infer env rhs in
    Ast.Let (x, rhs', check (bind env x trhs) body expected)
  | Ast.Match (scrut, cases), _ ->
    let scrut', ts = infer env scrut in
    let envs = case_envs env ts cases in
    let cases' =
      List.map2 (fun (p, body) env_c -> p, check env_c body expected) cases envs
    in
    Ast.Match (scrut', cases')
  | Ast.Fn (params, body), Ty.Fn (tps, ret)
    when List.length params = List.length tps
         && List.for_all2 (fun (_, t) tp -> Ty.equal t tp) params tps ->
    let env' = List.fold_left (fun e (x, t) -> bind e x t) env params in
    Ast.Fn (params, check env' body ret)
  | e, _ ->
    let e', t = infer env e in
    if Ty.equal t expected then e'
    else fail "expected %a but found %a" Ty.pp expected Ty.pp t

(** Type check and elaborate a whole program. Raises {!Type_error}. *)
let program (p : Ast.program) : Ast.program =
  let globals = List.map (fun (d : Ast.def) -> d.name, def_signature d) p.defs in
  let names = List.map fst globals in
  let dup = List.filter (fun n -> List.length (List.filter (( = ) n) names) > 1) names in
  (match dup with
  | [] -> ()
  | n :: _ -> fail "duplicate definition of @%s" n);
  let check_def (d : Ast.def) =
    let env = { vars = d.params; globals } in
    try
      check_ty (def_signature d);
      { d with body = check env d.body d.ret }
    with Type_error m -> fail "in @%s: %s" d.name m
  in
  { Ast.defs = List.map check_def p.defs }

(** Convenience: parse then check. *)
let parse_and_check src = program (Parser.program src)
