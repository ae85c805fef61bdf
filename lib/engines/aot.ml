(** Ahead-of-time compilation of the lowered program to native closures
    (paper §6, §D.2, Table 7).

    Each definition is staged once into a tree of OCaml closures — the
    analogue of ACROBAT's AOT compilation to C++, which eliminates the
    interpretive dispatch and environment-lookup overheads the Relay VM
    pays (see {!Vm} for the interpreted counterpart). Every variable gets a
    frame slot, and an expression's operands that are variables, fields
    of tuple variables or constants are resolved at staging to reads of a
    slot or of a constant, with no closure call ({!operand}); only a
    compound operand is a closure of its own. A parameter the definition only forwards
    ({!Forwarded}, computed when the program is staged) gets no frame
    slot and is not passed by direct calls; an [fn] gets a frame of its
    own, holding just what its body reads.

    Staging ({!stage}) holds no runtime: a compiled program is staged once
    and every mini-batch binds its own runtime for the length of one run
    ({!with_runtime}), as the paper's AOT-compiled model is built once and
    each mini-batch pays only for DFG construction, scheduling and kernels
    (DESIGN.md §27). Each kernel call site keeps the plan its first node
    found, in whatever run that was, as ACROBAT's AOT code calls each
    kernel at shapes fixed before the run (DESIGN.md §34). *)

open Acrobat_compiler
open Acrobat_runtime
open Value
module Ast = Acrobat_ir.Ast
module L = Lowered
module Device = Acrobat_device.Device

(* A staged definition. Every definition gets its cell before any body is
   compiled, so each call site — self and mutually recursive ones included
   — resolves its callee once, at staging time, and reads the fields
   staging fills in when it runs. *)
type staged = {
  def : L.ldef;
  params : int array;
      (** Frame slot of each parameter, in order. A forwarded-only
          parameter ({!Forwarded}) has none ([-1]) and direct calls do not
          pass it; the others take the first slots, in order. *)
  mutable frame : unit -> value array;
      (** A fresh frame: one slot per binding occurrence, all [Vnil]. *)
  mutable body : value array -> ictx -> value;
}

(* [Vnil], opaque to the compiler: an array literal of more than four
   constants compiles to a copy of a static block, a call into the
   runtime's C code, and one of this value allocates inline. *)
let nil = Sys.opaque_identity Vnil

(* A fresh frame of [n] slots, all [Vnil]. Up to 16 slots an array literal
   allocates it inline on the minor heap; [Array.make] would call into the
   runtime's C code once per call (DESIGN.md §29). Chosen at staging, once
   per frame size. *)
let frame_alloc n : unit -> value array =
  match n with
  | 0 -> fun () -> [||]
  | 1 -> fun () -> [| nil |]
  | 2 -> fun () -> [| nil; nil |]
  | 3 -> fun () -> [| nil; nil; nil |]
  | 4 -> fun () -> [| nil; nil; nil; nil |]
  | 5 -> fun () -> [| nil; nil; nil; nil; nil |]
  | 6 -> fun () -> [| nil; nil; nil; nil; nil; nil |]
  | 7 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil |]
  | 8 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil |]
  | 9 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 10 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 11 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 12 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 13 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 14 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 15 -> fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | 16 ->
    fun () -> [| nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil; nil |]
  | n -> fun () -> Array.make n Vnil

(* A fresh array of [n] [Vnil]s, [n] known only at run time: inline up to
   16, as a frame is. *)
let nils n = frame_alloc n ()

(* What one run binds: its runtime, and its policy. *)
type binding = { rt : Runtime.t; policy : Policy.t }

(* A staged program. It holds no runtime: the closure tree reads the run
   in progress from [bound] and [shared], and the run builds its DFG in
   [store]; besides them only [sites] changes after staging. *)
type t = {
  lprog : L.t;
  fibers : bool;  (** Run instances as fibers (TDC present and enabled). *)
  base_depth : int;  (** Initial dynamic depth (above all static depths). *)
  defs : (string, staged) Hashtbl.t;  (** Every definition, staged. *)
  mutable main : staged option;  (** @main's cell, if the program defines it. *)
  mutable bound : binding option;  (** The run in progress. *)
  mutable shared : value array;
      (** Per [Lshared] site, the handle the run in progress resolved there
          ([Vnil] until it first evaluates). Device addresses differ per
          run, so these are per-run state, cleared with the binding. *)
  mutable sites : Kernel.plan option array;
      (** Per [Lblock] site, the plan its first node found ([None] until
          the site first evaluates), kept for every later node of every
          run: @main's arguments have their declared types
          ({!Driver.run_batch} checks them), so every node of a site has
          the batched shapes of its first, and every binding has the
          shared shapes of the kernel's plans ({!Runtime.bind} checks
          them). *)
  store : Store.t;
      (** The DFG node store every run of the program reuses
          ({!Runtime.share_store}); empty between runs. *)
}

(* The run in progress; a closure reached outside a run (a function value
   @main returned, applied afterwards) fails here. *)
let binding st =
  match st.bound with
  | Some b -> b
  | None -> fail "AOT: program evaluated outside a run (no runtime bound)"

(* Compile-time scope: variable name -> frame slot. Every binding
   occurrence gets a distinct slot, so closures capturing the frame never
   see later bindings overwrite what they read. An [fn] body has a scope
   (and frame) of its own: a variable it reads from the enclosing scope
   gets a slot of its own, [captured] as (enclosing slot, own slot) and
   copied in at each application. *)
type scope = {
  mutable slots : (string * int) list;
  mutable next : int;
  outer : scope option;
  mutable captured : (int * int) list;
}

let new_scope outer = { slots = []; next = 0; outer; captured = [] }

let fresh_slot scope x =
  let i = scope.next in
  scope.next <- scope.next + 1;
  scope.slots <- (x, i) :: scope.slots;
  i

let rec slot_of scope x =
  match List.assoc_opt x scope.slots, scope.outer with
  | Some i, _ -> i
  | None, Some outer ->
    let src = slot_of outer x in
    let i = fresh_slot scope x in
    scope.captured <- (src, i) :: scope.captured;
    i
  | None, None -> fail "unbound variable %s (AOT compilation bug)" x

(* Wait for a handle to materialize: suspend the fiber (the driver flushes
   on stall) or flush directly in sequential mode. {!Vm} shares this and
   [decision_barrier], so both take the engine state they read
   explicitly. *)
(* After any barrier everything previously pending has executed, so the
   per-instance dynamic depth counter restarts at the base: scheduling
   depths only order nodes within one flush window, and restarting re-aligns
   instances whose counters drifted apart under data-dependent iteration
   counts. *)
let ensure_ready ~rt ~fibers ~base_depth ictx h =
  if not (handle_ready h) then begin
    if fibers then begin
      Device.charge_fiber_switch (Runtime.device rt);
      Fiber.suspend ()
    end;
    if not (handle_ready h) then Runtime.flush rt;
    ictx.ictx_depth <- base_depth
  end

(* Barrier before a tensor-dependent decision: emulated TDC still forces the
   pending DFG to evaluate (§E.1). *)
let decision_barrier ~rt ~fibers ~base_depth ictx =
  if Runtime.has_pending rt then begin
    if fibers then begin
      (* Suspending is the whole barrier: the driver flushes when every
         fiber is blocked. Nodes pending after resume belong to fibers that
         ran ahead of us and must NOT be forced here, or concurrent
         instances degrade into singleton batches. *)
      Device.charge_fiber_switch (Runtime.device rt);
      Fiber.suspend ()
    end
    else Runtime.flush rt;
    ictx.ictx_depth <- base_depth
  end

let eval_binop op a b =
  match op, a, b with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | (Ast.Div | Ast.Mod), Vint _, Vint 0 -> fail "integer %s by zero" (Ast.binop_name op)
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

(* Run [n] independent branches [thunk i x c], each on its own clone [c]
   of the instance context: forked as fibers when [fork], else
   sequentially; either way with the instance-parallelism depth rule (same
   start depth; join at the max, §4.1). The branch's data comes as [x], so
   a caller can pass a [thunk] built once, at staging. *)
let run_parallel ~fork ictx n (thunk : int -> 'a -> ictx -> value) (x : 'a) : value array =
  if fork && n > 1 then begin
    let clones = Array.init n (fun _ -> clone_ictx ictx) in
    let results = Fiber.fork (Array.init n (fun i () -> thunk i x clones.(i))) in
    ictx.ictx_depth <- Array.fold_left (fun acc c -> max acc c.ictx_depth) ictx.ictx_depth clones;
    results
  end
  else begin
    (* Explicit ascending loop: branch order decides DFG node order. A
       branch changes only its own clone, so cloning just before it runs
       gives every branch the context it would get cloned up front. *)
    let out = nils n in
    let maxd = ref ictx.ictx_depth in
    for i = 0 to n - 1 do
      let c = clone_ictx ictx in
      out.(i) <- thunk i x c;
      if c.ictx_depth > !maxd then maxd := c.ictx_depth
    done;
    ictx.ictx_depth <- !maxd;
    out
  end

(* [run_parallel]'s [fork]: fibers are on and the run's policy forks them. *)
let forks st = st.fibers && (binding st).policy.Policy.allow_fork

let apply_elem i (fv, elems) c = fv c [ elems.(i) ]

(* A [map]'s list, walked without building an OCaml list: its length
   ([to_list]'s failure on a non-list), its elements into [a] from [i],
   and [a.(0 .. i)] consed back onto [acc]. *)
let rec list_length v n =
  match v with
  | Vnil -> n
  | Vcons (_, t) -> list_length t (n + 1)
  | _ -> fail "expected a list"

let rec list_into a v i =
  match v with
  | Vcons (h, t) ->
    a.(i) <- h;
    list_into a t (i + 1)
  | _ -> ()

let rec list_of_array a i acc = if i < 0 then acc else list_of_array a (i - 1) (Vcons (a.(i), acc))

(* [args] into [frame] at [slots] from the [k]-th on, a [-1] slot
   dropping its argument; false when there are more or fewer. *)
let rec bind_args frame slots k args =
  match args with
  | a :: rest when k < Array.length slots ->
    let slot = slots.(k) in
    if slot >= 0 then frame.(slot) <- a;
    bind_args frame slots (k + 1) rest
  | [] -> k = Array.length slots
  | _ :: _ -> false

(* Call a staged definition with a list of arguments: the path of
   first-class globals and of @main. *)
let apply (d : staged) (args : value list) ictx =
  let frame = d.frame () in
  if not (bind_args frame d.params 0 args) then
    fail "arity mismatch calling %s (%d args for %d params)" d.def.L.lname (List.length args)
      (Array.length d.params);
  d.body frame ictx

(* Calls of a known definition with the right number of arguments are
   direct; any other call takes the general path through a [Vfun], which
   raises the arity or missing-definition error when it is applied. *)
let direct_call st g args =
  match Hashtbl.find_opt st.defs g with
  | Some d -> List.compare_length_with args (List.length d.def.L.lparams) = 0
  | None -> false

(* An operand: what an expression consumes, resolved at staging. A
   variable is a read of its frame slot, a field of a tuple variable a
   read of the slot and a projection, a literal or a global a constant;
   only a compound expression keeps its closure, so reading the common
   operands makes no call (DESIGN.md §33). *)
type operand =
  | Slot of int
  | Field of int * int  (** Field [k] of the tuple in slot [i]. *)
  | Const of value
  | Expr of (value array -> ictx -> value)

let proj v k =
  match v with Vtuple vs when k < Array.length vs -> vs.(k) | _ -> fail "bad tuple projection"

let[@inline] read o env ictx =
  match o with
  | Slot i -> env.(i)
  | Field (i, k) -> proj env.(i) k
  | Const v -> v
  | Expr f -> f env ictx

(* [Array.map (fun o -> conv (read o env ictx)) os] without allocating
   the closure: left to right, since argument order decides DFG node
   order. *)
let read_array conv (os : operand array) env ictx =
  let n = Array.length os in
  if n = 0 then [||]
  else begin
    let out = Array.make n (conv (read os.(0) env ictx)) in
    for k = 1 to n - 1 do
      out.(k) <- conv (read os.(k) env ictx)
    done;
    out
  end

(* The operands [os] read into a fresh array: up to two (a tuple's
   fields) or four (a kernel's batched arguments, as tensors) allocated
   inline, as {!frame_alloc} does frames, and more through
   [read_array]. Chosen at staging. *)
let values (os : operand array) : value array -> ictx -> value array =
  match os with
  | [| o0; o1 |] ->
    fun env ictx ->
      let v0 = read o0 env ictx in
      [| v0; read o1 env ictx |]
  | _ -> read_array Fun.id os

let handles (os : operand array) : value array -> ictx -> handle array =
  match os with
  | [||] -> fun _ _ -> [||]
  | [| o0 |] -> fun env ictx -> [| to_handle (read o0 env ictx) |]
  | [| o0; o1 |] ->
    fun env ictx ->
      let h0 = to_handle (read o0 env ictx) in
      [| h0; to_handle (read o1 env ictx) |]
  | [| o0; o1; o2 |] ->
    fun env ictx ->
      let h0 = to_handle (read o0 env ictx) in
      let h1 = to_handle (read o1 env ictx) in
      [| h0; h1; to_handle (read o2 env ictx) |]
  | [| o0; o1; o2; o3 |] ->
    fun env ictx ->
      let h0 = to_handle (read o0 env ictx) in
      let h1 = to_handle (read o1 env ictx) in
      let h2 = to_handle (read o2 env ictx) in
      [| h0; h1; h2; to_handle (read o3 env ictx) |]
  | _ -> read_array to_handle os

(* The scheduling depth of a node of a block of depth [d]: a [Dynamic]
   one takes the instance's counter and bumps it. *)
let node_depth (d : L.depth_spec) ictx =
  match d with
  | L.Static d -> d
  | L.Dynamic ->
    let d = ictx.ictx_depth in
    ictx.ictx_depth <- d + 1;
    d

(* One node of the [Lblock] site [site], of [bound]'s kernel, with
   batched arguments [args]: its first output slot. *)
let node st site rt policy bound args ictx depth =
  let plan =
    match st.sites.(site) with
    | Some p -> p
    | None ->
      (* The site's first node: {!Runtime.plan_in} checks its shapes. *)
      let p = Runtime.plan_in rt bound args in
      st.sites.(site) <- Some p;
      p
  in
  let sig_key = policy.Policy.sig_of rt plan args in
  let first =
    Runtime.invoke rt bound ~plan ~args ~instance:ictx.ictx_instance ~phase:ictx.ictx_phase
      ~depth ~sig_key
  in
  if policy.Policy.eager then Runtime.flush rt;
  first

(* A compiled match case: the pattern's variables' slots and the body. *)
type case = { pat : Ast.pat; slots : int array; body : value array -> ictx -> value }

(* The first case matching [sv] binds its variables and runs; a loop over
   the case array, so a match allocates nothing to dispatch. *)
let rec dispatch_match (cases : case array) i sv env ictx =
  if i = Array.length cases then fail "match failure"
  else begin
    let c = cases.(i) in
    match c.pat, sv with
    | Ast.Pwild, _ | Ast.Pnil, Vnil -> c.body env ictx
    | Ast.Pcons _, Vcons (a, b) | Ast.Pnode _, Vnode (a, b) ->
      env.(c.slots.(0)) <- a;
      env.(c.slots.(1)) <- b;
      c.body env ictx
    | Ast.Pleaf _, Vleaf v ->
      env.(c.slots.(0)) <- v;
      c.body env ictx
    | _ -> dispatch_match cases (i + 1) sv env ictx
  end

let rec compile (st : t) (scope : scope) (e : L.lexpr) : value array -> ictx -> value =
  match e with
  | L.Lvar _ | L.Lglobal _ | L.Lint _ | L.Lfloat _ | L.Lbool _ | L.Lnil | L.Lproj (L.Lvar _, _) ->
    let o = operand st scope e in
    fun env ictx -> read o env ictx
  | L.Llet (x, rhs, body) ->
    let rhs = operand st scope rhs in
    let i = fresh_slot scope x in
    let body_f = compile st scope body in
    fun env ictx ->
      env.(i) <- read rhs env ictx;
      body_f env ictx
  | L.Lif (c, a, b) ->
    let c = operand st scope c in
    let a_f = compile st scope a and b_f = compile st scope b in
    fun env ictx -> if to_bool (read c env ictx) then a_f env ictx else b_f env ictx
  | L.Lblock (b, cont) ->
    let eval_args = handles (operands st scope b.batched_args) in
    let out_slots = Array.of_list (List.map (fresh_slot scope) b.outs) in
    let cont_f = compile st scope cont in
    let kernel = b.kernel and depth = b.depth in
    let site = Array.length st.sites in
    st.sites <- Array.append st.sites [| None |];
    if L.runs_once b then begin
      let build ictx =
        let { rt; policy } = binding st in
        node st site rt policy (Runtime.bind rt kernel) [||] ictx (node_depth depth ictx)
      in
      fun env ictx ->
        let rt = (binding st).rt in
        let outs = Runtime.once rt (Runtime.bind rt kernel) ictx build in
        for k = 0 to Array.length out_slots - 1 do
          env.(out_slots.(k)) <- outs.(k)
        done;
        cont_f env ictx
    end
    else
      fun env ictx ->
        let args = eval_args env ictx in
        let d = node_depth depth ictx in
        let { rt; policy } = binding st in
        let first = node st site rt policy (Runtime.bind rt kernel) args ictx d in
        for k = 0 to Array.length out_slots - 1 do
          env.(out_slots.(k)) <- Vtensor (Runtime.output rt first k)
        done;
        cont_f env ictx
  | L.Lcall (L.Lglobal g, args) when direct_call st g args ->
    (* A direct call: the callee's frame is allocated at its final size
       and the arguments, read left to right, go straight into its
       parameter slots — no argument list, no [Vfun], no table lookup. A
       variable passed for a dropped parameter is not even read; any other
       expression there still runs, for its effects, into slot [-1]. *)
    let d = Hashtbl.find st.defs g in
    let args = Array.of_list args in
    let passed = Array.make (Array.length args) 0 and npassed = ref 0 in
    Array.iteri
      (fun k a ->
        match a with
        | L.Lvar _ when d.params.(k) < 0 -> ()
        | _ ->
          passed.(!npassed) <- k;
          incr npassed)
      args;
    let passed = Array.sub passed 0 !npassed in
    let slots = Array.map (fun k -> d.params.(k)) passed in
    let arg_os = Array.map (fun k -> operand st scope args.(k)) passed in
    fun env ictx ->
      let frame = d.frame () in
      for j = 0 to Array.length arg_os - 1 do
        let v = read arg_os.(j) env ictx in
        let slot = slots.(j) in
        if slot >= 0 then frame.(slot) <- v
      done;
      d.body frame ictx
  | L.Lcall (f, args) ->
    let f = operand st scope f in
    let args = List.map (operand st scope) args in
    fun env ictx ->
      let fv = to_fun (read f env ictx) in
      fv ictx (List.map (fun o -> read o env ictx) args)
  | L.Lfn (params, body) ->
    let inner = new_scope (Some scope) in
    let param_slots = Array.of_list (List.map (fresh_slot inner) params) in
    let body_f = compile st inner body in
    let new_frame = frame_alloc inner.next in
    let captured = Array.of_list inner.captured in
    fun env _ ->
      Vfun
        (fun ictx args ->
          (* A fresh frame per application, so concurrently mapped
             applications do not clobber each other's parameters; the
             enclosing frame's variables are read as of the application. *)
          let frame = new_frame () in
          for k = 0 to Array.length captured - 1 do
            let src, dst = captured.(k) in
            frame.(dst) <- env.(src)
          done;
          if not (bind_args frame param_slots 0 args) then fail "arity mismatch in closure call";
          body_f frame ictx)
  | L.Lmatch (s, cases) ->
    let s = operand st scope s in
    let cases =
      Array.of_list
        (List.map
           (fun (pat, body) ->
             let slots = Array.of_list (List.map (fresh_slot scope) (Ast.pat_vars pat)) in
             { pat; slots; body = compile st scope body })
           cases)
    in
    fun env ictx -> dispatch_match cases 0 (read s env ictx) env ictx
  | L.Lcons (a, b) ->
    let a = operand st scope a and b = operand st scope b in
    fun env ictx ->
      let av = read a env ictx in
      Vcons (av, read b env ictx)
  | L.Lleaf a ->
    let a = operand st scope a in
    fun env ictx -> Vleaf (read a env ictx)
  | L.Lnode (a, b) ->
    let a = operand st scope a and b = operand st scope b in
    fun env ictx ->
      let av = read a env ictx in
      Vnode (av, read b env ictx)
  | L.Ltuple es ->
    let eval_fields = values (operands st scope es) in
    fun env ictx -> Vtuple (eval_fields env ictx)
  | L.Lproj (a, k) ->
    let a = operand st scope a in
    fun env ictx -> proj (read a env ictx) k
  | L.Lbinop (op, a, b) ->
    let a = operand st scope a and b = operand st scope b in
    fun env ictx ->
      let av = read a env ictx in
      eval_binop op av (read b env ictx)
  | L.Lnot a ->
    let a = operand st scope a in
    fun env ictx -> Vbool (not (to_bool (read a env ictx)))
  | L.Lconcurrent es ->
    let os = operands st scope es in
    let n = Array.length os in
    let branch i env c = read os.(i) env c in
    fun env ictx -> Vtuple (run_parallel ~fork:(forks st) ictx n branch env)
  | L.Lmap (f, xs) ->
    let f = operand st scope f and xs = operand st scope xs in
    fun env ictx ->
      let fv = to_fun (read f env ictx) in
      let xs = read xs env ictx in
      let elems = nils (list_length xs 0) in
      list_into elems xs 0;
      let results = run_parallel ~fork:(forks st) ictx (Array.length elems) apply_elem (fv, elems) in
      list_of_array results (Array.length results - 1) Vnil
  | L.Lscalar a ->
    let a = operand st scope a in
    fun env ictx ->
      let h = to_handle (read a env ictx) in
      let rt = (binding st).rt in
      ensure_ready ~rt ~fibers:st.fibers ~base_depth:st.base_depth ictx h;
      Vfloat (Runtime.scalar_value rt h)
  | L.Lchoice a ->
    let a = operand st scope a in
    fun env ictx ->
      let n = to_int (read a env ictx) in
      let rt = (binding st).rt in
      decision_barrier ~rt ~fibers:st.fibers ~base_depth:st.base_depth ictx;
      Vint (Runtime.decision_int rt ~instance:ictx.ictx_instance n)
  | L.Lcoin a ->
    let a = operand st scope a in
    fun env ictx ->
      let p = to_float (read a env ictx) in
      let rt = (binding st).rt in
      decision_barrier ~rt ~fibers:st.fibers ~base_depth:st.base_depth ictx;
      Vbool (Runtime.decision_bool rt ~instance:ictx.ictx_instance p)
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
    (* Resolved at the site's first evaluation in each run, so every run's
       device makes the same allocations in the same order. *)
    let site = Array.length st.shared in
    st.shared <- Array.append st.shared [| Vnil |];
    fun _ _ -> begin
      match st.shared.(site) with
      | Vnil ->
        let v = Vtensor (Runtime.shared_handle (binding st).rt bind) in
        st.shared.(site) <- v;
        v
      | v -> v
    end

(* [e] as an operand; only a compound expression is compiled to a
   closure. Variables resolve to their slots here, at staging. *)
and operand st scope (e : L.lexpr) : operand =
  match e with
  | L.Lvar x -> Slot (slot_of scope x)
  | L.Lproj (L.Lvar x, k) -> Field (slot_of scope x, k)
  | L.Lint n -> Const (Vint n)
  | L.Lfloat f -> Const (Vfloat f)
  | L.Lbool b -> Const (Vbool b)
  | L.Lnil -> Const Vnil
  | L.Lglobal g -> begin
    match Hashtbl.find_opt st.defs g with
    | Some d -> Const (Vfun (fun ictx args -> apply d args ictx))
    | None -> Const (Vfun (fun _ _ -> fail "no definition %s" g))
  end
  | _ -> Expr (compile st scope e)

(* Operands of [es], resolved left to right. *)
and operands st scope es = Array.of_list (List.map (operand st scope) es)

let unstaged _ _ = fail "AOT: definition called before it was staged"
let unstaged_frame () = fail "AOT: definition called before it was staged"

(** Stage the whole program, once: the forwarded-only masks of its
    definitions and a cell for every definition first, then every body,
    so compilation cost is not on the execution path. The
    result holds no runtime and no policy; {!with_runtime} binds them for
    each run. *)
let stage ~fibers (lprog : L.t) : t =
  let st =
    {
      lprog;
      fibers;
      base_depth = lprog.L.max_static_depth + 1;
      defs = Hashtbl.create 16;
      main = None;
      bound = None;
      shared = [||];
      sites = [||];
      store = Store.create ();
    }
  in
  let masks = Forwarded.analyze ~entry:lprog.L.entry lprog.L.defs in
  Hashtbl.iter
    (fun name (def : L.ldef) ->
      let kept = ref 0 in
      let params =
        Array.map
          (fun dropped ->
            if dropped then -1
            else begin
              incr kept;
              !kept - 1
            end)
          (Hashtbl.find masks name)
      in
      Hashtbl.replace st.defs name { def; params; frame = unstaged_frame; body = unstaged })
    lprog.L.defs;
  Hashtbl.iter
    (fun _ (d : staged) ->
      let scope = new_scope None in
      List.iteri (fun k x -> if d.params.(k) >= 0 then ignore (fresh_slot scope x)) d.def.L.lparams;
      let body = compile st scope d.def.L.lbody in
      d.frame <- frame_alloc scope.next;
      d.body <- body)
    st.defs;
  st.main <- Hashtbl.find_opt st.defs lprog.L.entry;
  st

let bind st ~policy ~share_store rt =
  (match st.bound with
  | Some _ -> invalid_arg "Aot.with_runtime: the staged program is already running"
  | None -> ());
  if share_store then Runtime.share_store rt st.store;
  Runtime.share_plans rt st.lprog.L.registry.Kernel.plan_table;
  st.bound <- Some { rt; policy }

(** [with_runtime st ~policy rt f] runs [f] (which calls {!run_main}) with
    [st] bound to [rt] and [policy], and [rt] building its DFG in [st]'s
    store; it unbinds them when [f] returns or raises: a staged program
    outlives many runs, and must not keep the last one's runtime, device or
    tensors alive. [rt] must not have registered a value yet, and [f] must
    carry what it keeps of the run out of the store ({!Store.exporter}). A
    run started while another run of [st] is in progress raises
    [Invalid_argument], leaving that run's binding as it was. *)
let with_runtime st ~policy rt f =
  bind st ~policy ~share_store:true rt;
  (* Not [Fun.protect], whose closures add ~43 minor words per request
     served on serve-birnn (0.3%). *)
  let release () =
    st.bound <- None;
    Array.fill st.shared 0 (Array.length st.shared) Vnil;
    Store.reset st.store
  in
  match f () with
  | v ->
    release ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release ();
    Printexc.raise_with_backtrace e bt

(** Stage [lprog] and bind it to [rt] for good: a one-shot engine for a
    single run, in [rt]'s own store. *)
let create ~rt ~policy ~fibers (lprog : L.t) : t =
  let st = stage ~fibers lprog in
  bind st ~policy ~share_store:false rt;
  st

(** Fresh per-instance context. *)
let new_ictx st ~instance = { ictx_instance = instance; ictx_depth = st.base_depth; ictx_phase = 0 }

(** Run @main for one instance, on the runtime [st] is bound to. *)
let run_main st ~instance (args : value list) : value =
  match st.main with
  | Some d -> apply d args (new_ictx st ~instance)
  | None -> fail "no definition %s" st.lprog.L.entry
