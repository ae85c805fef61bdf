(** The interpreted execution path: a tree-walking "Relay VM" over the
    lowered program (paper §E.2, Table 7).

    Unlike {!Aot}, which stages each definition into closures once, the VM
    re-dispatches on the expression tree and searches an association-list
    environment on every variable access, charging the per-instruction
    dispatch overhead to the profiler. This is the baseline ACROBAT's AOT
    compilation beats by up to 13.45x in the paper. *)

open Acrobat_compiler
open Acrobat_runtime
open Value
module Ast = Acrobat_ir.Ast
module L = Lowered
module Device = Acrobat_device.Device

type t = {
  rt : Runtime.t;
  policy : Policy.t;
  lprog : L.t;
  fibers : bool;
  base_depth : int;
}

let create ~rt ~policy ~fibers (lprog : L.t) : t =
  Runtime.share_plans rt lprog.L.registry.Kernel.plan_table;
  { rt; policy; lprog; fibers; base_depth = lprog.L.max_static_depth + 1 }

type env = (string * value) list

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> fail "VM: unbound variable %s" x

let forks st = st.fibers && st.policy.Policy.allow_fork

let rec eval (st : t) (env : env) (ictx : ictx) (e : L.lexpr) : value =
  (* Every expression node pays interpreter dispatch (the VM overhead AOT
     compilation removes). *)
  Device.charge_vm_dispatch (Runtime.device st.rt);
  match e with
  | L.Lvar x -> lookup env x
  | L.Lglobal g -> Vfun (fun ictx args -> call st g args ictx)
  | L.Lint n -> Vint n
  | L.Lfloat f -> Vfloat f
  | L.Lbool b -> Vbool b
  | L.Llet (x, rhs, body) ->
    let v = eval st env ictx rhs in
    eval st ((x, v) :: env) ictx body
  | L.Lif (c, a, b) ->
    if to_bool (eval st env ictx c) then eval st env ictx a else eval st env ictx b
  | L.Lblock (b, cont) ->
    (* Every argument expression is evaluated, and pays its dispatch; the
       node keeps the batched ones. *)
    let all = Array.of_list (List.map (fun a -> to_handle (eval st env ictx a)) b.args) in
    let args = Array.map (fun pos -> all.(pos)) b.kernel.Kernel.batched in
    let depth = Aot.node_depth b.depth ictx in
    let bound = Runtime.bind st.rt b.kernel in
    let node ictx =
      let plan = Runtime.plan_in st.rt bound args in
      let sig_key = st.policy.Policy.sig_of st.rt plan args in
      let first =
        Runtime.invoke st.rt bound ~plan ~args ~instance:ictx.ictx_instance
          ~phase:ictx.ictx_phase ~depth ~sig_key
      in
      if st.policy.Policy.eager then Runtime.flush st.rt;
      first
    in
    let outs =
      if L.runs_once b then Runtime.once st.rt bound ictx node
      else
        let first = node ictx in
        Array.init (List.length b.outs) (fun k -> Vtensor (Runtime.output st.rt first k))
    in
    let env' =
      List.fold_left2 (fun acc name v -> (name, v) :: acc) env b.outs (Array.to_list outs)
    in
    eval st env' ictx cont
  | L.Lcall (f, args) ->
    let fv = to_fun (eval st env ictx f) in
    fv ictx (List.map (eval st env ictx) args)
  | L.Lfn (params, body) ->
    Vfun
      (fun ictx args ->
        let env' =
          try List.combine params args @ env
          with Invalid_argument _ -> fail "VM: closure arity mismatch"
        in
        eval st env' ictx body)
  | L.Lmatch (s, cases) -> begin
    let sv = eval st env ictx s in
    let rec dispatch = function
      | [] -> fail "VM: match failure"
      | (pat, body) :: rest -> begin
        match (pat : Ast.pat), sv with
        | Ast.Pwild, _ -> eval st env ictx body
        | Ast.Pnil, Vnil -> eval st env ictx body
        | Ast.Pcons (h, t), Vcons (hv, tv) -> eval st ((h, hv) :: (t, tv) :: env) ictx body
        | Ast.Pleaf x, Vleaf v -> eval st ((x, v) :: env) ictx body
        | Ast.Pnode (l, r), Vnode (lv, rv) -> eval st ((l, lv) :: (r, rv) :: env) ictx body
        | _ -> dispatch rest
      end
    in
    dispatch cases
  end
  | L.Lnil -> Vnil
  | L.Lcons (a, b) ->
    let av = eval st env ictx a in
    Vcons (av, eval st env ictx b)
  | L.Lleaf a -> Vleaf (eval st env ictx a)
  | L.Lnode (a, b) ->
    let av = eval st env ictx a in
    Vnode (av, eval st env ictx b)
  | L.Ltuple es -> Vtuple (Array.of_list (List.map (eval st env ictx) es))
  | L.Lproj (a, k) -> begin
    match eval st env ictx a with
    | Vtuple vs when k < Array.length vs -> vs.(k)
    | _ -> fail "VM: bad tuple projection"
  end
  | L.Lbinop (op, a, b) ->
    let av = eval st env ictx a in
    Aot.eval_binop op av (eval st env ictx b)
  | L.Lnot a -> Vbool (not (to_bool (eval st env ictx a)))
  | L.Lconcurrent es ->
    let es = Array.of_list es in
    Vtuple
      (Aot.run_parallel ~fork:(forks st) ictx (Array.length es)
         (fun i es c -> eval st env c es.(i))
         es)
  | L.Lmap (f, xs) ->
    let fv = to_fun (eval st env ictx f) in
    let elems = Array.of_list (to_list (eval st env ictx xs)) in
    let results =
      Aot.run_parallel ~fork:(forks st) ictx (Array.length elems) Aot.apply_elem (fv, elems)
    in
    of_list (Array.to_list results)
  | L.Lscalar a ->
    let h = to_handle (eval st env ictx a) in
    Aot.ensure_ready ~rt:st.rt ~fibers:st.fibers ~base_depth:st.base_depth ictx h;
    Vfloat (Runtime.scalar_value st.rt h)
  | L.Lchoice a ->
    let n = to_int (eval st env ictx a) in
    Aot.decision_barrier ~rt:st.rt ~fibers:st.fibers ~base_depth:st.base_depth ictx;
    Vint (Runtime.decision_int st.rt ~instance:ictx.ictx_instance n)
  | L.Lcoin a ->
    let p = to_float (eval st env ictx a) in
    Aot.decision_barrier ~rt:st.rt ~fibers:st.fibers ~base_depth:st.base_depth ictx;
    Vbool (Runtime.decision_bool st.rt ~instance:ictx.ictx_instance p)
  | L.Lghost (n, cont) ->
    ictx.ictx_depth <- ictx.ictx_depth + n;
    eval st env ictx cont
  | L.Lphase (k, cont) ->
    ictx.ictx_phase <- k;
    ictx.ictx_depth <- st.base_depth;
    eval st env ictx cont
  | L.Lshared bind -> Vtensor (Runtime.shared_handle st.rt bind)

and call st name args ictx =
  let d = L.find_def st.lprog name in
  let env =
    try List.combine d.L.lparams args
    with Invalid_argument _ -> fail "VM: arity mismatch calling %s" name
  in
  eval st env ictx d.L.lbody

let new_ictx st ~instance = { ictx_instance = instance; ictx_depth = st.base_depth; ictx_phase = 0 }

let run_main st ~instance (args : value list) : value =
  call st st.lprog.L.entry args (new_ictx st ~instance)
