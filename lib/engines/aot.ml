(** Ahead-of-time compilation of the lowered program to native closures
    (paper §6, §D.2, Table 7).

    Each definition is staged once into a tree of OCaml closures with
    variables resolved to array slots — the analogue of ACROBAT's AOT
    compilation to C++, which eliminates the interpretive dispatch and
    environment-lookup overheads the Relay VM pays (see {!Vm} for the
    interpreted counterpart). *)

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
  fibers : bool;  (** Run instances as fibers (TDC present and enabled). *)
  base_depth : int;  (** Initial dynamic depth (above all static depths). *)
  table : (string, value list -> ictx -> value) Hashtbl.t;
}

(* Compile-time scope: variable name -> environment slot. Every binding
   occurrence gets a distinct slot, so closures capturing the environment
   array never see later bindings overwrite what they read. *)
type scope = { mutable slots : (string * int) list; mutable next : int }

let fresh_slot scope x =
  let i = scope.next in
  scope.next <- scope.next + 1;
  scope.slots <- (x, i) :: scope.slots;
  i

let slot_of scope x =
  match List.assoc_opt x scope.slots with
  | Some i -> i
  | None -> fail "unbound variable %s (AOT compilation bug)" x

(* Wait for a handle to materialize: suspend the fiber (the driver flushes
   on stall) or flush directly in sequential mode. *)
(* After any barrier everything previously pending has executed, so the
   per-instance dynamic depth counter restarts at the base: scheduling
   depths only order nodes within one flush window, and restarting re-aligns
   instances whose counters drifted apart under data-dependent iteration
   counts. *)
let ensure_ready st ictx h =
  if not (handle_ready h) then begin
    if st.fibers then begin
      Device.charge_fiber_switch (Runtime.device st.rt);
      Fiber.suspend ()
    end;
    if not (handle_ready h) then Runtime.flush st.rt;
    ictx.ictx_depth <- st.base_depth
  end

(* Barrier before a tensor-dependent decision: emulated TDC still forces the
   pending DFG to evaluate (§E.1). *)
let decision_barrier st ictx =
  if Runtime.has_pending st.rt then begin
    if st.fibers then begin
      (* Suspending is the whole barrier: the driver flushes when every
         fiber is blocked. Nodes pending after resume belong to fibers that
         ran ahead of us and must NOT be forced here, or concurrent
         instances degrade into singleton batches. *)
      Device.charge_fiber_switch (Runtime.device st.rt);
      Fiber.suspend ()
    end
    else Runtime.flush st.rt;
    ictx.ictx_depth <- st.base_depth
  end

let eval_binop op a b =
  match op, a, b with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | Ast.Div, Vint x, Vint y -> Vint (x / y)
  | Ast.Mod, Vint x, Vint y -> Vint (x mod y)
  | Ast.Add, Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Ast.Sub, Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Ast.Mul, Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Ast.Div, Vfloat x, Vfloat y -> Vfloat (x /. y)
  | Ast.Lt, Vint x, Vint y -> Vbool (x < y)
  | Ast.Le, Vint x, Vint y -> Vbool (x <= y)
  | Ast.Gt, Vint x, Vint y -> Vbool (x > y)
  | Ast.Ge, Vint x, Vint y -> Vbool (x >= y)
  | Ast.Eq, Vint x, Vint y -> Vbool (x = y)
  | Ast.Lt, Vfloat x, Vfloat y -> Vbool (x < y)
  | Ast.Le, Vfloat x, Vfloat y -> Vbool (x <= y)
  | Ast.Gt, Vfloat x, Vfloat y -> Vbool (x > y)
  | Ast.Ge, Vfloat x, Vfloat y -> Vbool (x >= y)
  | Ast.Eq, Vfloat x, Vfloat y -> Vbool (x = y)
  | Ast.Eq, Vbool x, Vbool y -> Vbool (x = y)
  | Ast.And, Vbool x, Vbool y -> Vbool (x && y)
  | Ast.Or, Vbool x, Vbool y -> Vbool (x || y)
  | _ -> fail "binary operator %s applied to incompatible values" (Ast.binop_name op)

(* Run independent thunks: forked as fibers when allowed, else sequentially
   with the instance-parallelism depth rule (same start depth; join at the
   max, §4.1). Each thunk receives its own ictx clone. *)
let run_parallel st ictx (n : int) (thunk_of : int -> ictx -> value) : value array =
  let clones = Array.init n (fun _ -> clone_ictx ictx) in
  let results =
    if st.fibers && st.policy.Policy.allow_fork && n > 1 then
      Fiber.fork (Array.init n (fun i () -> thunk_of i clones.(i)))
    else begin
      (* Explicit ascending loop: Array.init's evaluation order is
         unspecified, and thunk order decides DFG node order. *)
      let out = Array.make n Vnil in
      for i = 0 to n - 1 do
        out.(i) <- thunk_of i clones.(i)
      done;
      out
    end
  in
  let maxd = Array.fold_left (fun acc c -> max acc c.ictx_depth) ictx.ictx_depth clones in
  ictx.ictx_depth <- maxd;
  results

let rec compile (st : t) (scope : scope) (e : L.lexpr) : value array -> ictx -> value =
  match e with
  | L.Lvar x ->
    let i = slot_of scope x in
    fun env _ -> env.(i)
  | L.Lglobal g -> fun _ _ -> Vfun (fun ictx args -> call st g args ictx)
  | L.Lint n ->
    let v = Vint n in
    fun _ _ -> v
  | L.Lfloat f ->
    let v = Vfloat f in
    fun _ _ -> v
  | L.Lbool b ->
    let v = Vbool b in
    fun _ _ -> v
  | L.Llet (x, rhs, body) ->
    let rhs_f = compile st scope rhs in
    let i = fresh_slot scope x in
    let body_f = compile st scope body in
    fun env ictx ->
      env.(i) <- rhs_f env ictx;
      body_f env ictx
  | L.Lif (c, a, b) ->
    let c_f = compile st scope c and a_f = compile st scope a and b_f = compile st scope b in
    fun env ictx -> if to_bool (c_f env ictx) then a_f env ictx else b_f env ictx
  | L.Lblock (b, cont) ->
    let arg_fs = Array.of_list (List.map (compile st scope) b.args) in
    let out_slots = List.map (fresh_slot scope) b.outs in
    let cont_f = compile st scope cont in
    let kernel = b.kernel in
    fun env ictx ->
      let args = Array.map (fun f -> to_handle (f env ictx)) arg_fs in
      let depth =
        match b.depth with
        | L.Static d -> d
        | L.Dynamic ->
          let d = ictx.ictx_depth in
          ictx.ictx_depth <- d + 1;
          d
      in
      let plan = Runtime.plan st.rt kernel args in
      let sig_key = st.policy.Policy.sig_of ~base:plan.signature kernel args in
      let outs =
        Runtime.invoke st.rt ~plan ~args ~instance:ictx.ictx_instance ~phase:ictx.ictx_phase ~depth
          ~sig_key
      in
      if st.policy.Policy.eager then Runtime.flush st.rt;
      List.iteri (fun k slot -> env.(slot) <- Vtensor outs.(k)) out_slots;
      cont_f env ictx
  | L.Lcall (f, args) ->
    let f_f = compile st scope f in
    let arg_fs = List.map (compile st scope) args in
    fun env ictx ->
      let fv = to_fun (f_f env ictx) in
      fv ictx (List.map (fun g -> g env ictx) arg_fs)
  | L.Lfn (params, body) ->
    let param_slots = List.map (fresh_slot scope) params in
    let body_f = compile st scope body in
    fun env _ ->
      Vfun
        (fun ictx args ->
          (* Fresh environment per application so concurrently mapped
             applications do not clobber each other's parameters. *)
          let env' = Array.copy env in
          (try List.iter2 (fun slot a -> env'.(slot) <- a) param_slots args
           with Invalid_argument _ -> fail "arity mismatch in closure call");
          body_f env' ictx)
  | L.Lmatch (s, cases) ->
    let s_f = compile st scope s in
    let compiled =
      List.map
        (fun (pat, body) ->
          match pat with
          | Ast.Pwild | Ast.Pnil ->
            let body_f = compile st scope body in
            pat, (fun env ictx _bind -> body_f env ictx), [||]
          | Ast.Pcons (h, t) | Ast.Pnode (h, t) ->
            let sh = fresh_slot scope h and stl = fresh_slot scope t in
            let body_f = compile st scope body in
            pat, (fun env ictx _ -> body_f env ictx), [| sh; stl |]
          | Ast.Pleaf v ->
            let sv = fresh_slot scope v in
            let body_f = compile st scope body in
            pat, (fun env ictx _ -> body_f env ictx), [| sv |])
        cases
    in
    fun env ictx ->
      let sv = s_f env ictx in
      let rec dispatch = function
        | [] -> fail "match failure"
        | (pat, body_f, slots) :: rest -> begin
          match pat, sv with
          | Ast.Pwild, _ -> body_f env ictx ()
          | Ast.Pnil, Vnil -> body_f env ictx ()
          | Ast.Pcons _, Vcons (h, t) ->
            env.(slots.(0)) <- h;
            env.(slots.(1)) <- t;
            body_f env ictx ()
          | Ast.Pleaf _, Vleaf v ->
            env.(slots.(0)) <- v;
            body_f env ictx ()
          | Ast.Pnode _, Vnode (l, r) ->
            env.(slots.(0)) <- l;
            env.(slots.(1)) <- r;
            body_f env ictx ()
          | _ -> dispatch rest
        end
      in
      dispatch compiled
  | L.Lnil -> fun _ _ -> Vnil
  | L.Lcons (a, b) ->
    let a_f = compile st scope a and b_f = compile st scope b in
    fun env ictx ->
      let av = a_f env ictx in
      Vcons (av, b_f env ictx)
  | L.Lleaf a ->
    let a_f = compile st scope a in
    fun env ictx -> Vleaf (a_f env ictx)
  | L.Lnode (a, b) ->
    let a_f = compile st scope a and b_f = compile st scope b in
    fun env ictx ->
      let av = a_f env ictx in
      Vnode (av, b_f env ictx)
  | L.Ltuple es ->
    let fs = Array.of_list (List.map (compile st scope) es) in
    fun env ictx -> Vtuple (Array.map (fun f -> f env ictx) fs)
  | L.Lproj (a, k) ->
    let a_f = compile st scope a in
    fun env ictx -> begin
      match a_f env ictx with
      | Vtuple vs when k < Array.length vs -> vs.(k)
      | _ -> fail "bad tuple projection"
    end
  | L.Lbinop (op, a, b) ->
    let a_f = compile st scope a and b_f = compile st scope b in
    fun env ictx ->
      let av = a_f env ictx in
      eval_binop op av (b_f env ictx)
  | L.Lnot a ->
    let a_f = compile st scope a in
    fun env ictx -> Vbool (not (to_bool (a_f env ictx)))
  | L.Lconcurrent es ->
    let fs = Array.of_list (List.map (compile st scope) es) in
    fun env ictx ->
      Vtuple (run_parallel st ictx (Array.length fs) (fun i c -> fs.(i) env c))
  | L.Lmap (f, xs) ->
    let f_f = compile st scope f and xs_f = compile st scope xs in
    fun env ictx ->
      let fv = to_fun (f_f env ictx) in
      let elems = Array.of_list (to_list (xs_f env ictx)) in
      let results =
        run_parallel st ictx (Array.length elems) (fun i c -> fv c [ elems.(i) ])
      in
      of_list (Array.to_list results)
  | L.Lscalar a ->
    let a_f = compile st scope a in
    fun env ictx ->
      let h = to_handle (a_f env ictx) in
      ensure_ready st ictx h;
      Vfloat (Runtime.scalar_value st.rt h)
  | L.Lchoice a ->
    let a_f = compile st scope a in
    fun env ictx ->
      let n = to_int (a_f env ictx) in
      decision_barrier st ictx;
      Vint (Runtime.decision_int st.rt ~instance:ictx.ictx_instance n)
  | L.Lcoin a ->
    let a_f = compile st scope a in
    fun env ictx ->
      let p = to_float (a_f env ictx) in
      decision_barrier st ictx;
      Vbool (Runtime.decision_bool st.rt ~instance:ictx.ictx_instance p)
  | L.Lghost (n, cont) ->
    let cont_f = compile st scope cont in
    fun env ictx ->
      ictx.ictx_depth <- ictx.ictx_depth + n;
      cont_f env ictx
  | L.Lphase (k, cont) ->
    let cont_f = compile st scope cont in
    fun env ictx ->
      ictx.ictx_phase <- k;
      ictx.ictx_depth <- st.base_depth;
      cont_f env ictx
  | L.Lshared bind ->
    let cache = ref None in
    fun _ _ -> begin
      match !cache with
      | Some v -> v
      | None ->
        let v = Vtensor (Runtime.shared_handle st.rt bind) in
        cache := Some v;
        v
    end

and compile_def (st : t) (d : L.ldef) : value list -> ictx -> value =
  let scope = { slots = []; next = 0 } in
  let param_slots = List.map (fresh_slot scope) d.lparams in
  let body_f = compile st scope d.lbody in
  let nslots = scope.next in
  fun args ictx ->
    let env = Array.make nslots Vnil in
    (try List.iter2 (fun slot a -> env.(slot) <- a) param_slots args
     with Invalid_argument _ ->
       fail "arity mismatch calling %s (%d args for %d params)" d.lname (List.length args)
         (List.length d.lparams));
    body_f env ictx

and call st name args ictx =
  match Hashtbl.find_opt st.table name with
  | Some f -> f args ictx
  | None -> begin
    match Hashtbl.find_opt st.lprog.L.defs name with
    | None -> fail "no definition %s" name
    | Some d ->
      let f = compile_def st d in
      Hashtbl.replace st.table name f;
      f args ictx
  end

(** Stage the whole program. *)
let create ~rt ~policy ~fibers (lprog : L.t) : t =
  let st =
    {
      rt;
      policy;
      lprog;
      fibers;
      base_depth = lprog.L.max_static_depth + 1;
      table = Hashtbl.create 16;
    }
  in
  (* Compile eagerly so compilation cost is not on the execution path. *)
  Hashtbl.iter
    (fun name d ->
      if not (Hashtbl.mem st.table name) then Hashtbl.replace st.table name (compile_def st d))
    lprog.L.defs;
  st

(** Fresh per-instance context. *)
let new_ictx st ~instance = { ictx_instance = instance; ictx_depth = st.base_depth; ictx_phase = 0 }

(** Run @main for one instance. *)
let run_main st ~instance (args : value list) : value =
  call st st.lprog.L.entry args (new_ictx st ~instance)
