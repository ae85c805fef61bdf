(** 1-context-sensitive taint analysis for parameter reuse and hoisting
    (paper §5.1, §B.1, §C.1).

    For every tensor-operator argument, in every calling context, the
    analysis decides:

    - is it a *statically-known single tensor* (a model parameter or a
      constant)? Then the generated batched kernel treats it as **shared**:
      one copy reused by the whole batch, no memory gather (§5.1);
    - is it *hoistable* — derived only from parameters, constants and raw
      input tensors, never from recursion-carried state? Then the operator
      can be scheduled at a static depth, effectively hoisted out of the
      recursion (§B.1).

    Context sensitivity keys the analysis on the entry call site (collapsing
    recursive cycles), which is what lets a function reused with different
    parameters — the forward and backward RNNs of a BiRNN — keep precise
    per-context sharing. Specializing code per context during lowering is the
    paper's code-duplication transformation (§C.1). *)

open Acrobat_ir
open Acrobat_tensor

type single = Sparam of string | Sconst of { shape : Shape.t; value : float }

let single_equal a b =
  match a, b with
  | Sparam x, Sparam y -> x = y
  | Sconst a, Sconst b -> Shape.equal a.shape b.shape && a.value = b.value
  | (Sparam _ | Sconst _), _ -> false

(** Static scheduling depth of a tensor value (§B.1). Parameters, constants
    and raw inputs are [Dstatic (-1)]; an operator's output is one more than
    the max of its arguments when that is a program-invariant constant, and
    [Ddyn] otherwise (recursion-carried values widen to [Ddyn] at the
    fixpoint). A [Dstatic] operator can be hoisted: it gets a compile-time
    depth instead of consuming the runtime depth counter. *)
type sdepth = Dstatic of int | Ddyn

let join_sdepth a b =
  match a, b with
  | Dstatic x, Dstatic y when x = y -> Dstatic x
  | _ -> Ddyn

type aval =
  | Abot  (** No information yet (fixpoint bottom). *)
  | Atensor of { single : single option; sdepth : sdepth }
  | Ascalar
  | Alist of aval
  | Atree of aval
  | Atup of aval list
  | Aclos of clos
  | Aglobal of string
  | Atop

and clos = {
  cparams : string list;
  cbody : Ast.expr;
  cenv : (string * aval) list;
  cctx : string;
  cdef : string;  (** The def the lambda appears in (for SCC checks). *)
}

let tensor_of_param p = Atensor { single = Some (Sparam p); sdepth = Dstatic (-1) }

let tensor_const ~shape ~value =
  Atensor { single = Some (Sconst { shape; value }); sdepth = Dstatic (-1) }

let tensor_input = Atensor { single = None; sdepth = Dstatic (-1) }
let tensor_derived ~sdepth = Atensor { single = None; sdepth }

let sdepth_of = function
  | Atensor { sdepth; _ } -> sdepth
  | Ascalar | Abot -> Dstatic (-1)
  | Alist _ | Atree _ | Atup _ | Aclos _ | Aglobal _ | Atop -> Ddyn

(** The static depth an operator output would get from these arguments:
    one past the deepest argument, or [Ddyn] if any argument is dynamic. *)
let out_sdepth avals =
  List.fold_left
    (fun acc v ->
      match acc, sdepth_of v with
      | Dstatic a, Dstatic b -> Dstatic (max a b)
      | _ -> Ddyn)
    (Dstatic (-1)) avals
  |> function
  | Dstatic d -> Dstatic (d + 1)
  | Ddyn -> Ddyn

(** The abstract value of an [op] output from its arguments' values: the
    transfer function of the analysis, which lowering reapplies over each
    straight-line run. *)
let op_result (op : Op.t) avals =
  match op with
  | Op.Constant { shape; value } -> tensor_const ~shape ~value
  | Op.Random _ -> tensor_derived ~sdepth:(Dstatic 0)
  | _ -> tensor_derived ~sdepth:(out_sdepth avals)

let rec join a b =
  match a, b with
  | Abot, x | x, Abot -> x
  | Atensor x, Atensor y ->
    let single =
      match x.single, y.single with
      | Some s1, Some s2 when single_equal s1 s2 -> Some s1
      | _ -> None
    in
    Atensor { single; sdepth = join_sdepth x.sdepth y.sdepth }
  | Ascalar, Ascalar -> Ascalar
  | Alist x, Alist y -> Alist (join x y)
  | Atree x, Atree y -> Atree (join x y)
  | Atup xs, Atup ys when List.length xs = List.length ys -> Atup (List.map2 join xs ys)
  | Aclos c1, Aclos c2 when c1.cbody == c2.cbody && c1.cctx = c2.cctx -> a
  | Aglobal g1, Aglobal g2 when g1 = g2 -> a
  | _ -> Atop

let rec equal_aval a b =
  match a, b with
  | Abot, Abot | Ascalar, Ascalar | Atop, Atop -> true
  | Atensor x, Atensor y ->
    x.sdepth = y.sdepth
    && (match x.single, y.single with
       | None, None -> true
       | Some s1, Some s2 -> single_equal s1 s2
       | _ -> false)
  | Alist x, Alist y | Atree x, Atree y -> equal_aval x y
  | Atup xs, Atup ys -> List.length xs = List.length ys && List.for_all2 equal_aval xs ys
  | Aclos c1, Aclos c2 -> c1.cbody == c2.cbody && c1.cctx = c2.cctx
  | Aglobal g1, Aglobal g2 -> g1 = g2
  | _ -> false

(** Initial abstract value for an input (per-instance) parameter of the
    given type: tensors are fresh per-instance values. *)
let rec aval_of_input_ty : Ty.t -> aval = function
  | Ty.Tensor _ -> tensor_input
  | Ty.Int | Ty.Bool | Ty.Float -> Ascalar
  | Ty.List t -> Alist (aval_of_input_ty t)
  | Ty.Tree t -> Atree (aval_of_input_ty t)
  | Ty.Tup ts -> Atup (List.map aval_of_input_ty ts)
  | Ty.Fn _ -> Atop

(** Abstract value for a weight parameter: a Tensor is exactly that
    parameter; containers of tensors hold fixed-but-unidentified tensors. *)
let rec aval_of_weight_ty name : Ty.t -> aval = function
  | Ty.Tensor _ -> tensor_of_param name
  | Ty.Int | Ty.Bool | Ty.Float -> Ascalar
  | Ty.List t -> Alist (aval_of_weight_ty name t)
  | Ty.Tree t -> Atree (aval_of_weight_ty name t)
  | Ty.Tup ts -> Atup (List.map (aval_of_weight_ty name) ts)
  | Ty.Fn _ -> Atop

type summary = { mutable args : aval list; mutable result : aval }

type t = {
  sites : Sites.t;
  summaries : (string * string, summary) Hashtbl.t;  (** (def, ctx) -> summary *)
  prim_args : (int * string, aval list) Hashtbl.t;
      (** (prim site, ctx) -> joined argument avals *)
  callee_ctx : (int * string, string) Hashtbl.t;
      (** (call site, caller ctx) -> callee ctx *)
  mutable dirty : bool;
  cg : Call_graph.t;
  program : Ast.program;
  context_sensitive : bool;
}

let root_ctx = "root"

let find_summary t key =
  match Hashtbl.find_opt t.summaries key with
  | Some s -> s
  | None ->
    let s = { args = []; result = Abot } in
    Hashtbl.replace t.summaries key s;
    s

let record_prim t site ctx avals =
  let key = site, ctx in
  let joined =
    match Hashtbl.find_opt t.prim_args key with
    | None -> avals
    | Some old -> List.map2 join old avals
  in
  (match Hashtbl.find_opt t.prim_args key with
  | Some old when List.for_all2 equal_aval old joined -> ()
  | _ ->
    t.dirty <- true;
    Hashtbl.replace t.prim_args key joined)

(* Abstract evaluation of an expression under an environment. [defname] and
   [ctx] identify the specialization being analyzed. *)
let rec eval t defname ctx env (e : Ast.expr) : aval =
  match e with
  | Ast.Var x -> (try List.assoc x env with Not_found -> Atop)
  | Ast.Global g -> Aglobal g
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> Ascalar
  | Ast.Let (x, rhs, body) ->
    let v = eval t defname ctx env rhs in
    eval t defname ctx ((x, v) :: env) body
  | Ast.If (c, a, b) ->
    ignore (eval t defname ctx env c);
    join (eval t defname ctx env a) (eval t defname ctx env b)
  | Ast.Prim (op, args) -> begin
    let avals = List.map (eval t defname ctx env) args in
    record_prim t (Sites.id t.sites e) ctx avals;
    op_result op avals
  end
  | Ast.Call (callee, args) -> begin
    let fv = eval t defname ctx env callee in
    let avals = List.map (eval t defname ctx env) args in
    match fv with
    | Aglobal g -> apply_global t defname ctx (Sites.id t.sites e) g avals
    | Aclos c -> apply_clos t c avals
    | _ -> Atop
  end
  | Ast.Fn (params, body) ->
    Aclos { cparams = List.map fst params; cbody = body; cenv = env; cctx = ctx; cdef = defname }
  | Ast.Match (scrut, cases) -> begin
    let sv = eval t defname ctx env scrut in
    match sv with
    | Abot -> Abot
    | _ ->
      List.fold_left
        (fun acc (pat, body) ->
          let env' = bind_pattern env pat sv in
          join acc (eval t defname ctx env' body))
        Abot cases
  end
  | Ast.Nil -> Alist Abot
  | Ast.Cons (h, tl) -> begin
    let hv = eval t defname ctx env h in
    let tv = eval t defname ctx env tl in
    match tv with
    | Alist ev -> Alist (join hv ev)
    | Abot -> Alist hv
    | _ -> Atop
  end
  | Ast.Leaf v -> Atree (eval t defname ctx env v)
  | Ast.Node (l, r) -> begin
    let lv = eval t defname ctx env l in
    let rv = eval t defname ctx env r in
    match join lv rv with
    | Atree _ as tv -> tv
    | Abot -> Abot
    | _ -> Atop
  end
  | Ast.Tuple es -> Atup (List.map (eval t defname ctx env) es)
  | Ast.Proj (e0, k) -> begin
    match eval t defname ctx env e0 with
    | Atup vs when k < List.length vs -> List.nth vs k
    | Abot -> Abot
    | _ -> Atop
  end
  | Ast.Binop (_, a, b) ->
    ignore (eval t defname ctx env a);
    ignore (eval t defname ctx env b);
    Ascalar
  | Ast.Not a ->
    ignore (eval t defname ctx env a);
    Ascalar
  | Ast.Concurrent es -> Atup (List.map (eval t defname ctx env) es)
  | Ast.Map (f, xs) -> begin
    let fv = eval t defname ctx env f in
    let xsv = eval t defname ctx env xs in
    let elem = match xsv with Alist ev -> ev | Abot -> Abot | _ -> Atop in
    if elem = Abot then Abot
    else
      let out =
        match fv with
        | Aclos c -> apply_clos t c [ elem ]
        | Aglobal g -> apply_global t defname ctx (Sites.id t.sites e) g [ elem ]
        | _ -> Atop
      in
      Alist out
  end
  | Ast.Scalar e0 ->
    ignore (eval t defname ctx env e0);
    Ascalar
  | Ast.Choice e0 | Ast.Coin e0 ->
    ignore (eval t defname ctx env e0);
    Ascalar

and bind_pattern env pat sv =
  match pat, sv with
  | Ast.Pwild, _ | Ast.Pnil, _ -> env
  | Ast.Pcons (h, tl), Alist ev -> (h, ev) :: (tl, sv) :: env
  | Ast.Pleaf v, Atree ev -> (v, ev) :: env
  | Ast.Pnode (l, r), Atree _ -> (l, sv) :: (r, sv) :: env
  | Ast.Pcons (h, tl), _ -> (h, Atop) :: (tl, Atop) :: env
  | Ast.Pleaf v, _ -> (v, Atop) :: env
  | Ast.Pnode (l, r), _ -> (l, Atop) :: (r, Atop) :: env

and apply_clos t c avals =
  let env = List.combine c.cparams avals @ c.cenv in
  (* The closure's body belongs to the def it was written in; its prim sites
     are recorded under the context the closure was created in. *)
  eval t c.cdef c.cctx env c.cbody

and apply_global t caller_def caller_ctx site g avals =
  let ctx =
    if not t.context_sensitive then root_ctx
    else if Call_graph.same_scc t.cg caller_def g then
      (* Recursive cycles stay in the entry context: the whole cycle is one
         specialization. *)
      caller_ctx
    else Fmt.str "s%d" site
  in
  Hashtbl.replace t.callee_ctx (site, caller_ctx) ctx;
  let s = find_summary t (g, ctx) in
  let joined =
    match s.args with [] -> avals | old -> List.map2 join old avals
  in
  if s.args = [] || not (List.for_all2 equal_aval s.args joined) then begin
    s.args <- joined;
    t.dirty <- true
  end;
  s.result

(** Run the analysis.

    [inputs] names the @main parameters that vary per batch instance; all
    other @main parameters are model weights (shared across the batch). *)
let analyze ?(context_sensitive = true) (sites : Sites.t) (p : Ast.program)
    ~(inputs : string list) : t =
  let cg = Call_graph.build p in
  let t =
    {
      sites;
      summaries = Hashtbl.create 32;
      prim_args = Hashtbl.create 64;
      callee_ctx = Hashtbl.create 32;
      dirty = true;
      cg;
      program = p;
      context_sensitive;
    }
  in
  let main = Ast.main_def p in
  let main_args =
    List.map
      (fun (name, ty) ->
        if List.mem name inputs then aval_of_input_ty ty else aval_of_weight_ty name ty)
      main.params
  in
  let s = find_summary t ("main", root_ctx) in
  s.args <- main_args;
  let max_rounds = 100 in
  let rounds = ref 0 in
  while t.dirty && !rounds < max_rounds do
    t.dirty <- false;
    incr rounds;
    (* Snapshot: evaluation may add summaries while we iterate. *)
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.summaries [] in
    List.iter
      (fun ((name, ctx) as key) ->
        match Ast.find_def p name with
        | None -> ()
        | Some d ->
          let s = find_summary t key in
          if s.args <> [] then begin
            let env = List.combine (List.map fst d.params) s.args in
            let r = join s.result (eval t name ctx env d.body) in
            if not (equal_aval s.result r) then begin
              s.result <- r;
              t.dirty <- true
            end
          end)
      (List.sort compare keys)
  done;
  if !rounds >= max_rounds then
    Fmt.failwith "taint analysis did not converge in %d rounds" max_rounds;
  t

(** Joined abstract argument values at a tensor-op site in a context (falls
    back to the context-insensitive join if the exact context is missing). *)
let prim_avals t ~site ~ctx ~arity : aval list =
  match Hashtbl.find_opt t.prim_args (site, ctx) with
  | Some avals -> avals
  | None ->
    (* Site never reached in this context (dead branch): conservative. *)
    List.init arity (fun _ -> Atop)

(** The context a call site resolves to. *)
let callee_context t ~site ~ctx : string option = Hashtbl.find_opt t.callee_ctx (site, ctx)

(** All (def, ctx) specializations reached from @main. *)
let reached t : (string * string) list =
  Hashtbl.fold (fun (name, ctx) s acc -> if s.args <> [] then (name, ctx) :: acc else acc)
    t.summaries []
  |> List.sort compare
