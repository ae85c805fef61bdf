(** Lowering: ANF program + analysis results -> {!Lowered.t}.

    This pass implements, driven by {!Config}:
    - {e grain-size coarsening} (§B.2): maximal straight-line runs of tensor
      ops become one scheduling block;
    - {e kernel fusion} (standard §7.3 + horizontal §C.1): partitions each
      run into device-launch groups; without coarsening, each fused group is
      its own scheduling block;
    - {e parameter-reuse roles} (§5.1): statically-single arguments become
      [Shared] kernel arguments bound to weights/constants;
    - {e code duplication} (§C.1): definitions are specialized per calling
      context, so contexts binding different parameters get distinct kernels;
    - {e operator hoisting} (§B.1): blocks whose inputs all have static
      depths get compile-time depths;
    - {e ghost operators} and {e program phases} (§4.1, §B.3). *)

open Acrobat_ir
module L = Lowered

module SSet = Set.Make (String)

(* Free variables of an ANF expression (for block-output liveness). *)
let rec free_vars (e : Ast.expr) : SSet.t =
  match e with
  | Ast.Var x -> SSet.singleton x
  | Ast.Global _ | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Nil -> SSet.empty
  | Ast.Let (x, rhs, body) -> SSet.union (free_vars rhs) (SSet.remove x (free_vars body))
  | Ast.If (a, b, c) -> SSet.union (free_vars a) (SSet.union (free_vars b) (free_vars c))
  | Ast.Prim (_, es) | Ast.Tuple es | Ast.Concurrent es ->
    List.fold_left (fun acc e -> SSet.union acc (free_vars e)) SSet.empty es
  | Ast.Call (f, es) ->
    List.fold_left (fun acc e -> SSet.union acc (free_vars e)) (free_vars f) es
  | Ast.Fn (params, body) ->
    List.fold_left (fun acc (x, _) -> SSet.remove x acc) (free_vars body) params
  | Ast.Match (s, cases) ->
    List.fold_left
      (fun acc (pat, body) ->
        let bound = Ast.pat_vars pat in
        SSet.union acc (List.fold_left (fun s x -> SSet.remove x s) (free_vars body) bound))
      (free_vars s) cases
  | Ast.Cons (a, b) | Ast.Node (a, b) | Ast.Map (a, b) | Ast.Binop (_, a, b) ->
    SSet.union (free_vars a) (free_vars b)
  | Ast.Leaf a | Ast.Proj (a, _) | Ast.Not a | Ast.Scalar a | Ast.Choice a | Ast.Coin a ->
    free_vars a

type state = {
  cfg : Config.t;
  sites : Sites.t;
  taint : Taint.t option;  (** None when parameter-reuse analysis is off. *)
  registry : Kernel.registry;
  prog : Ast.program;
  out_defs : (string, L.ldef) Hashtbl.t;
  mutable max_static : int;
  mutable pending : (string * string * int) list;  (** (def, ctx, rec nesting) *)
  visited : (string * string, unit) Hashtbl.t;
  cg : Call_graph.t;
  hints : (int, float) Hashtbl.t;  (** kernel id -> static frequency weight *)
  mutable cur_depth : int;  (** recursion-nesting depth of the def being lowered *)
}

let root = Taint.root_ctx

let spec_name name ctx = if ctx = root then name else Fmt.str "%s$%s" name ctx

let prim_avals st ~site ~ctx ~arity =
  match st.taint with
  | Some t when st.cfg.parameter_reuse -> Taint.prim_avals t ~site ~ctx ~arity
  | _ -> List.init arity (fun _ -> Taint.Atop)

let callee_ctx st ~site ~ctx =
  if not st.cfg.context_sensitive then root
  else
    match st.taint with
    | Some t -> Option.value ~default:root (Taint.callee_context t ~site ~ctx)
    | None -> root

(* Request specialization of (name, ctx); [bonus] adds nesting weight for
   per-element invocation (map). The static-frequency heuristic estimates a
   kernel's invocation count as 30^nesting (each recursion or map level
   multiplies invocations by roughly a sequence length). *)
let request ?(bonus = 0) st name ctx =
  let key = name, ctx in
  if not (Hashtbl.mem st.visited key) then begin
    Hashtbl.replace st.visited key ();
    let depth =
      st.cur_depth + bonus + if Call_graph.is_recursive st.cg name then 1 else 0
    in
    st.pending <- (name, ctx, depth) :: st.pending
  end;
  spec_name name ctx

(* One tensor op of a straight-line run. *)
type run_op = { var : string; op : Op.t; args : Ast.expr list; site : int }

(* --- Partitioning a run into launches (fusion) --- *)

(* Vertical (standard) fusion: partition a run's instructions, temporary
   [i] at index [i], into launch groups. Non-elementwise ops anchor a new
   group; an elementwise op joins the group of its latest temporary
   operand (the producer's group), which is exactly "fuse elementwise
   consumers into their producers". Fusing into the latest producer group
   is always legal: all of the instruction's dependencies live in that
   group or earlier ones, and groups launch in creation order. *)
let vertical_groups ~fusion (instrs : Kernel.instr array) =
  if not fusion then Array.to_list (Array.map (fun i -> [ i ]) instrs)
  else begin
    let n = Array.length instrs in
    let group_of_tmp = Array.make n (-1) and members = Array.make n [] and count = ref 0 in
    Array.iter
      (fun (i : Kernel.instr) ->
        let latest =
          List.fold_left
            (fun acc -> function Kernel.Tmp j -> max acc group_of_tmp.(j) | Kernel.Arg _ -> acc)
            (-1) i.srcs
        in
        let g =
          if Op.is_elementwise i.op && latest >= 0 then latest
          else begin
            incr count;
            !count - 1
          end
        in
        members.(g) <- i :: members.(g);
        group_of_tmp.(i.dst) <- g)
      instrs;
    List.init !count (fun g -> List.rev members.(g))
  end

(* Horizontal fusion: merge adjacent groups anchored by matmuls that share
   their first operand (e.g. the four gate projections of an LSTM cell all
   multiplying the same input), when the later group does not consume any
   temporary of the earlier one. *)
let horizontal_merge ~horizontal groups =
  if not horizontal then groups
  else begin
    let anchor_src = function
      | { Kernel.op = Op.Matmul; srcs = s0 :: _; _ } :: _ -> Some s0
      | _ -> None
    in
    let consumes g2 d =
      List.exists (fun (i : Kernel.instr) -> List.mem (Kernel.Tmp d) i.srcs) g2
    in
    let rec merge = function
      | g :: g2 :: rest
        when (match anchor_src g, anchor_src g2 with
             | Some (Kernel.Arg a), Some (Kernel.Arg b) -> a = b
             | _ -> false)
             && not (List.exists (fun (i : Kernel.instr) -> consumes g2 i.dst) g) ->
        merge ((g @ g2) :: rest)
      | g :: rest -> g :: merge rest
      | [] -> []
    in
    merge groups
  end

(* --- Building kernels & blocks from a straight-line run of ops --- *)

let single_of_aval = function
  | Taint.Atensor { single = Some s; _ } -> Some s
  | _ -> None

let bind_of_single = function
  | Taint.Sparam p -> Kernel.Bparam p
  | Taint.Sconst { shape; value } -> Kernel.Bconst { shape; value }

(* Abstract values over a straight-line run, by the analysis' own
   transfer function ({!Taint.op_result}) in run order. Returns each op's
   output value and, per op and argument, the run index of the op that
   produces it (-1 for a value from outside the run) and its value: a run
   output's as recomputed here, an external's from the taint analysis. *)
let run_avals st ~ctx (run : run_op array) =
  let producer = Hashtbl.create 8 in
  let out_avals = Array.make (Array.length run) Taint.Atop in
  let args =
    Array.mapi
      (fun i r ->
        let args =
          List.map2
            (fun arg aval ->
              match arg with
              | Ast.Var x when Hashtbl.mem producer x ->
                let j = Hashtbl.find producer x in
                j, out_avals.(j)
              | _ -> -1, aval)
            r.args
            (prim_avals st ~site:r.site ~ctx ~arity:(List.length r.args))
        in
        out_avals.(i) <- Taint.op_result r.op (List.map snd args);
        Hashtbl.replace producer r.var i;
        args)
      run
  in
  out_avals, args

(* Lower a run of tensor ops into scheduling blocks, returning a function
   that wraps a continuation lexpr, and the blocks. The run is partitioned
   into launch groups once, here (fusion); coarsening keeps them all in
   one block, and without it each group is its own block. [lower] lowers
   argument expressions. [ctx] is the current context. [once] maps a
   variable an earlier block that runs once bound to its [Bonce] binding:
   the run reads it as a shared argument. *)
let lower_run st ~ctx ~(lower : Ast.expr -> L.lexpr) ~once (run : run_op array)
    (cont_free : SSet.t) : (L.lexpr -> L.lexpr) * L.block list =
  let n = Array.length run in
  let out_avals, arg_info = run_avals st ~ctx run in
  (* The run's external arguments, a variable once however often it is
     read: its expression and abstract value per extern index. *)
  let extern_of_var = Hashtbl.create 8 and externs = ref [] and n_externs = ref 0 in
  let extern lexpr aval =
    externs := (lexpr, aval) :: !externs;
    incr n_externs;
    !n_externs - 1
  in
  let instrs =
    Array.mapi
      (fun i r ->
        let srcs =
          List.map2
            (fun arg (producer, aval) ->
              if producer >= 0 then Kernel.Tmp producer
              else
                match arg with
                | Ast.Var x -> (
                  match Hashtbl.find_opt extern_of_var x with
                  | Some e -> Kernel.Arg e
                  | None ->
                    let e = extern (L.Lvar x) aval in
                    Hashtbl.replace extern_of_var x e;
                    Kernel.Arg e)
                | other -> Kernel.Arg (extern (lower other) aval))
            r.args arg_info.(i)
        in
        { Kernel.op = r.op; srcs; dst = i })
      run
  in
  let externs = Array.of_list (List.rev !externs) in
  let groups =
    vertical_groups ~fusion:st.cfg.kernel_fusion instrs
    |> horizontal_merge ~horizontal:st.cfg.horizontal_fusion
  in
  let pieces = if st.cfg.grain_coarsening then [ groups ] else List.map (fun g -> [ g ]) groups in
  let piece_of_tmp = Array.make n 0 in
  List.iteri
    (fun p piece ->
      List.iter (List.iter (fun (i : Kernel.instr) -> piece_of_tmp.(i.dst) <- p)) piece)
    pieces;
  (* A run tmp is a block output when the continuation or another piece
     reads it. *)
  let is_out = Array.map (fun r -> SSet.mem r.var cont_free) run in
  Array.iter
    (fun (i : Kernel.instr) ->
      List.iter
        (function
          | Kernel.Tmp j when piece_of_tmp.(j) <> piece_of_tmp.(i.dst) -> is_out.(j) <- true
          | Kernel.Tmp _ | Kernel.Arg _ -> ())
        i.srcs)
    instrs;
  (* Build one block per piece, renumbering its arguments and tmps. *)
  let local_tmp = Array.make n (-1) in
  let blocks =
    List.mapi
      (fun p piece ->
        let args = ref [] and nargs = ref 0 in
        let arg_of_extern = Array.make (Array.length externs) (-1)
        and arg_of_tmp = Array.make n (-1) in
        let local_arg table k (lexpr, aval) =
          if table.(k) < 0 then begin
            table.(k) <- !nargs;
            incr nargs;
            args := (lexpr, aval) :: !args
          end;
          Kernel.Arg table.(k)
        in
        let next_tmp = ref 0 in
        let local_groups =
          List.map
            (List.map (fun (i : Kernel.instr) ->
                 let srcs =
                   List.map
                     (function
                       | Kernel.Arg e -> local_arg arg_of_extern e externs.(e)
                       | Kernel.Tmp j when piece_of_tmp.(j) = p -> Kernel.Tmp local_tmp.(j)
                       | Kernel.Tmp j ->
                         (* Produced by an earlier block: becomes a batched
                            input, referenced through its bound variable. *)
                         local_arg arg_of_tmp j (L.Lvar run.(j).var, out_avals.(j)))
                     i.srcs
                 in
                 local_tmp.(i.dst) <- !next_tmp;
                 incr next_tmp;
                 { i with srcs; dst = local_tmp.(i.dst) }))
            piece
        in
        let piece_instrs = List.concat piece in
        let out_tmps, outs =
          List.filter_map
            (fun (i : Kernel.instr) ->
              if is_out.(i.dst) then Some (local_tmp.(i.dst), run.(i.dst).var) else None)
            piece_instrs
          |> List.split
        in
        let arg_exprs, arg_avals = List.split (List.rev !args) in
        let binds =
          List.map2
            (fun av lex ->
              match single_of_aval av, lex with
              | Some s, _ -> Some (bind_of_single s)
              | None, L.Lvar x -> List.assoc_opt x once
              | None, _ -> None)
            arg_avals arg_exprs
        in
        let roles =
          Array.of_list
            (List.map (function Some _ -> Kernel.Shared | None -> Kernel.Batched) binds)
        in
        let shared_binds =
          binds
          |> List.mapi (fun i b -> i, b)
          |> List.filter_map (function i, Some b -> Some (i, b) | _, None -> None)
        in
        let args =
          List.map2 (fun bind lex -> match bind with Some b -> L.Lshared b | None -> lex) binds
            arg_exprs
        in
        let name =
          String.concat "_" (List.map (fun (i : Kernel.instr) -> Op.name i.op) piece_instrs)
        in
        let kernel =
          Kernel.finish st.registry ~name ~roles ~shared_binds ~out_tmps:(Array.of_list out_tmps)
            local_groups
        in
        (* Hoisting: a block whose arguments all have static depths gets
           the static depth an op reading them would. *)
        let depth =
          match Taint.out_sdepth arg_avals with
          | Taint.Dstatic d when st.cfg.hoisting ->
            if d > st.max_static then st.max_static <- d;
            L.Static d
          | Taint.Dstatic _ | Taint.Ddyn -> L.Dynamic
        in
        (* The static frequency heuristic is deliberately coarse ("how
           deeply nested in the recursion", §D.1): it knows recursion
           multiplies invocations but not by how much, so any nesting gets
           one flat factor — this is precisely the imprecision PGO fixes in
           Table 9. *)
        let weight = if st.cur_depth > 0 then 30.0 else 1.0 in
        (match Hashtbl.find_opt st.hints kernel.Kernel.id with
        | Some w when w >= weight -> ()
        | _ -> Hashtbl.replace st.hints kernel.Kernel.id weight);
        let batched_args = List.filteri (fun i _ -> roles.(i) = Kernel.Batched) args in
        { L.kernel; args; batched_args; depth; outs; site = run.(0).site })
      pieces
  in
  (fun cont -> List.fold_right (fun b acc -> L.Lblock (b, acc)) blocks cont), blocks

(* --- Expression lowering --- *)

let rec lower_expr st ~defname ~ctx (e : Ast.expr) : L.lexpr =
  let recur e = lower_expr st ~defname ~ctx e in
  match e with
  | Ast.Var x -> L.Lvar x
  | Ast.Global g ->
    (* A bare global reference: specialize under this reference's site. *)
    let ctx' = callee_ctx st ~site:(Sites.id st.sites e) ~ctx in
    L.Lglobal (request st g ctx')
  | Ast.Int_lit n -> L.Lint n
  | Ast.Float_lit f -> L.Lfloat f
  | Ast.Bool_lit b -> L.Lbool b
  | Ast.Let (_, Ast.Prim _, _) -> lower_prim_run st ~defname ~ctx e
  | Ast.Let (v, rhs, cont) -> L.Llet (v, recur rhs, recur cont)
  | Ast.If (c, a, b) ->
    let a' = recur a and b' = recur b in
    let a', b' =
      if st.cfg.ghost_ops then begin
        match dyn_count a', dyn_count b' with
        | Some na, Some nb when na < nb -> L.Lghost (nb - na, a'), b'
        | Some na, Some nb when nb < na -> a', L.Lghost (na - nb, b')
        | _ -> a', b'
      end
      else a', b'
    in
    L.Lif (recur c, a', b')
  | Ast.Prim _ ->
    (* ANF guarantees prims are let-bound; tolerate a stray one anyway. *)
    lower_prim_run st ~defname ~ctx (Ast.Let ("_prim", e, Ast.Var "_prim"))
  | Ast.Call (f, args) -> begin
    let args' = List.map recur args in
    match f with
    | Ast.Global g ->
      let ctx' = callee_ctx st ~site:(Sites.id st.sites e) ~ctx in
      L.Lcall (L.Lglobal (request st g ctx'), args')
    | _ -> L.Lcall (recur f, args')
  end
  | Ast.Fn (params, body) -> L.Lfn (List.map fst params, recur body)
  | Ast.Match (s, cases) ->
    L.Lmatch (recur s, List.map (fun (p, body) -> p, recur body) cases)
  | Ast.Nil -> L.Lnil
  | Ast.Cons (a, b) -> L.Lcons (recur a, recur b)
  | Ast.Leaf a -> L.Lleaf (recur a)
  | Ast.Node (a, b) -> L.Lnode (recur a, recur b)
  | Ast.Tuple es -> L.Ltuple (List.map recur es)
  | Ast.Proj (a, k) -> L.Lproj (recur a, k)
  | Ast.Binop (op, a, b) -> L.Lbinop (op, recur a, recur b)
  | Ast.Not a -> L.Lnot (recur a)
  | Ast.Concurrent es -> L.Lconcurrent (List.map recur es)
  | Ast.Map (f, xs) -> begin
    let xs' = recur xs in
    match f with
    | Ast.Global g ->
      let ctx' = callee_ctx st ~site:(Sites.id st.sites e) ~ctx in
      L.Lmap (L.Lglobal (request ~bonus:1 st g ctx'), xs')
    | _ ->
      (* Kernels inside the mapped lambda run once per element. *)
      st.cur_depth <- st.cur_depth + 1;
      let f' = recur f in
      st.cur_depth <- st.cur_depth - 1;
      L.Lmap (f', xs')
  end
  | Ast.Scalar a -> L.Lscalar (recur a)
  | Ast.Choice a -> L.Lchoice (recur a)
  | Ast.Coin a -> L.Lcoin (recur a)

(* Gather the maximal straight-line run of tensor-op lets starting at [e].
   With constant reuse, its constant lets become shared bindings, the one
   place constants are lowered. A binding the run binds again later gets
   a name no identifier spells ([y'3]: the lexer takes no quote), and its
   readers read that name: blocks and constants are bound apart from the
   run's order, and a reader must name the binding in its scope. *)
and lower_prim_run st ~defname ~ctx e =
  let rec gather acc consts scope e =
    match e with
    | Ast.Let (v, (Ast.Prim (op, args) as prim), cont) ->
      let name = if rebound v cont then Fmt.str "%s'%d" v (List.length scope) else v in
      let args =
        List.map
          (function
            | Ast.Var x -> Ast.Var (Option.value ~default:x (List.assoc_opt x scope)) | a -> a)
          args
      in
      let scope = (v, name) :: scope in
      (match op, args with
      | Op.Constant { shape; value }, [] when st.cfg.constant_reuse ->
        gather acc ((name, shape, value) :: consts) scope cont
      | _ ->
        gather ({ var = name; op; args; site = Sites.id st.sites prim } :: acc) consts scope cont)
    | _ -> List.rev acc, List.rev consts, e
  and rebound v = function
    | Ast.Let (w, Ast.Prim _, cont) -> w = v || rebound v cont
    | _ -> false
  in
  let run, consts, cont = gather [] [] [] e in
  let cont_free = free_vars cont in
  let lowered_cont = lower_expr st ~defname ~ctx cont in
  (* Hoisting splits the run into a static (hoistable) prefix and a dynamic
     remainder, each its own scheduling block(s): a static op never consumes
     a dynamic op's output, so emitting all static ops first is safe and is
     exactly the paper's operator hoisting (Listing 2's bias_dense). *)
  let sub_runs =
    List.filter (( <> ) [])
      (if not st.cfg.hoisting then [ run ]
       else begin
         let out_avals, _ = run_avals st ~ctx (Array.of_list run) in
         let static i =
           match Taint.sdepth_of out_avals.(i) with Taint.Dstatic _ -> true | Taint.Ddyn -> false
         in
         [ List.filteri (fun i _ -> static i) run; List.filteri (fun i _ -> not (static i)) run ]
       end)
  in
  (* The free set for liveness must include variables consumed by later
     sub-runs; using the whole original expression's continuation plus all
     run variables referenced across sub-runs is achieved by adding every
     later sub-run's argument variables. A later sub-run reads the outputs
     of a static block that runs once as shared arguments: the same tensor
     at every evaluation, never gathered (DESIGN.md §36). *)
  let wraps =
    let rec build once = function
      | [] -> []
      | sub :: rest ->
        let later_vars =
          List.fold_left
            (fun acc r ->
              List.fold_left
                (fun acc a -> match a with Ast.Var x -> SSet.add x acc | _ -> acc)
                acc r.args)
            SSet.empty (List.concat rest)
        in
        let free = SSet.union cont_free later_vars in
        let wrap, blocks =
          lower_run st ~ctx ~lower:(lower_expr st ~defname ~ctx) ~once (Array.of_list sub) free
        in
        let once_outs (b : L.block) =
          if L.runs_once b then
            List.mapi (fun out x -> x, Kernel.Bonce { kernel = b.kernel.Kernel.id; out }) b.outs
          else []
        in
        wrap :: build (List.concat_map once_outs blocks @ once) rest
    in
    build [] sub_runs
  in
  let body = List.fold_right (fun w acc -> w acc) wraps lowered_cont in
  List.fold_right
    (fun (v, shape, value) acc ->
      L.Llet (v, L.Lshared (Kernel.Bconst { shape; value }), acc))
    consts body

(* Count dynamic blocks when statically determinable (for ghost padding). *)
and dyn_count (e : L.lexpr) : int option =
  let ( let* ) = Option.bind in
  match e with
  | L.Lblock (b, cont) ->
    let* n = dyn_count cont in
    Some ((match b.depth with L.Dynamic -> 1 | L.Static _ -> 0) + n)
  | L.Lghost (n, cont) ->
    let* m = dyn_count cont in
    Some (n + m)
  | L.Lvar _ | L.Lglobal _ | L.Lint _ | L.Lfloat _ | L.Lbool _ | L.Lnil | L.Lshared _ ->
    Some 0
  | L.Llet (_, a, b) | L.Lcons (a, b) | L.Lnode (a, b) | L.Lbinop (_, a, b) ->
    let* x = dyn_count a in
    let* y = dyn_count b in
    Some (x + y)
  | L.Lif (c, a, b) ->
    let* n = dyn_count c in
    let* x = dyn_count a in
    let* y = dyn_count b in
    if x = y then Some (n + x) else None
  | L.Lleaf a | L.Lproj (a, _) | L.Lnot a -> dyn_count a
  | L.Ltuple es ->
    List.fold_left
      (fun acc e ->
        let* x = acc in
        let* y = dyn_count e in
        Some (x + y))
      (Some 0) es
  | L.Lphase _ | L.Lcall _ | L.Lfn _ | L.Lmatch _ | L.Lconcurrent _ | L.Lmap _
  | L.Lscalar _ | L.Lchoice _ | L.Lcoin _ ->
    None

(* --- Program phases (§B.3) --- *)

let rec contains_call = function
  | L.Lcall _ | L.Lmap _ -> true
  | L.Lvar _ | L.Lglobal _ | L.Lint _ | L.Lfloat _ | L.Lbool _ | L.Lnil | L.Lshared _ ->
    false
  | L.Llet (_, a, b) | L.Lcons (a, b) | L.Lnode (a, b) | L.Lbinop (_, a, b) ->
    contains_call a || contains_call b
  | L.Lif (a, b, c) -> contains_call a || contains_call b || contains_call c
  | L.Lblock (b, cont) -> List.exists contains_call b.args || contains_call cont
  | L.Lfn (_, b) | L.Lleaf b | L.Lproj (b, _) | L.Lnot b | L.Lscalar b | L.Lchoice b
  | L.Lcoin b | L.Lghost (_, b) | L.Lphase (_, b) ->
    contains_call b
  | L.Lmatch (s, cases) -> contains_call s || List.exists (fun (_, e) -> contains_call e) cases
  | L.Ltuple es | L.Lconcurrent es -> List.exists contains_call es

(* Each top-level binding of @main that invokes a (recursive) function is a
   semantic stage; stages after the first become new phases. *)
let add_phases body =
  let counter = ref 0 in
  let rec go ~seen_call e =
    match e with
    | L.Llet (v, rhs, cont) when contains_call rhs ->
      if seen_call then begin
        incr counter;
        let phase = !counter in
        L.Lphase (phase, L.Llet (v, rhs, go ~seen_call:true cont))
      end
      else L.Llet (v, rhs, go ~seen_call:true cont)
    | L.Llet (v, rhs, cont) -> L.Llet (v, rhs, go ~seen_call cont)
    | L.Lblock (b, cont) -> L.Lblock (b, go ~seen_call cont)
    | tail ->
      if seen_call && contains_call tail then begin
        incr counter;
        let phase = !counter in
        L.Lphase (phase, tail)
      end
      else tail
  in
  go ~seen_call:false body

(* --- Driver --- *)

(** Lower a typechecked program. [inputs] names @main's per-instance
    parameters. The program must already be in ANF. *)
let program ?(config = Config.acrobat) (p : Ast.program) ~(inputs : string list) : L.t =
  let sites = Sites.create () in
  let taint =
    if config.parameter_reuse || config.hoisting then
      Some (Taint.analyze ~context_sensitive:config.context_sensitive sites p ~inputs)
    else None
  in
  let st =
    {
      cfg = config;
      sites;
      taint;
      registry = Kernel.registry ();
      prog = p;
      out_defs = Hashtbl.create 16;
      max_static = -1;
      pending = [];
      visited = Hashtbl.create 16;
      cg = Call_graph.build p;
      hints = Hashtbl.create 16;
      cur_depth = 0;
    }
  in
  let entry = request st "main" root in
  let rec drain () =
    match st.pending with
    | [] -> ()
    | (name, ctx, depth) :: rest ->
      st.pending <- rest;
      st.cur_depth <- depth;
      (match Ast.find_def p name with
      | None -> Fmt.invalid_arg "unknown global @%s" name
      | Some d ->
        let body = lower_expr st ~defname:name ~ctx d.body in
        let body = if name = "main" && config.program_phases then add_phases body else body in
        Hashtbl.replace st.out_defs (spec_name name ctx)
          { L.lname = spec_name name ctx; lparams = List.map fst d.params; lbody = body });
      drain ()
  in
  drain ();
  let main = Ast.main_def p in
  let weight_params =
    List.filter_map (fun (n, _) -> if List.mem n inputs then None else Some n) main.params
  in
  {
    L.defs = st.out_defs;
    entry;
    registry = st.registry;
    max_static_depth = st.max_static;
    weight_params;
    is_weight = Array.of_list (List.map (fun (n, _) -> not (List.mem n inputs)) main.params);
    param_types = Array.of_list (List.map snd main.params);
    has_tdc = Ast.has_tdc main.body || List.exists (fun (d : Ast.def) -> Ast.has_tdc d.body) p.defs;
    config;
    kernel_hints = st.hints;
  }

(** Full pipeline from source text.

    [tracer] receives one span per compiler pass on a dedicated "compiler"
    process track (pid {!compiler_trace_pid}). Pass "durations" are
    deterministic proxies — definition counts, not wall time — so traces
    stay byte-identical across same-seed runs while still showing the
    relative weight of each pass. *)
let compiler_trace_pid = 100

let compile ?config ?(tracer = Acrobat_obs.Trace.null) ~inputs src =
  let module Trace = Acrobat_obs.Trace in
  if Trace.enabled tracer then
    Trace.name_process tracer ~pid:compiler_trace_pid ~name:"compiler";
  let cursor = ref 0.0 in
  (* [dur] maps the pass result to its deterministic span length (us). *)
  let pass name ~dur f =
    let y = f () in
    let d = dur y in
    Trace.complete tracer ~name ~cat:"compiler" ~pid:compiler_trace_pid ~tid:0
      ~ts_us:!cursor ~dur_us:d;
    cursor := !cursor +. d;
    y
  in
  let n_defs (p : Ast.program) = float_of_int (List.length p.defs) in
  let p =
    pass "parse+typecheck" ~dur:n_defs (fun () -> Typecheck.parse_and_check src)
  in
  let p = pass "anf" ~dur:n_defs (fun () -> Anf.program p) in
  pass "lower" ~dur:(fun lp -> float_of_int (Hashtbl.length lp.L.defs)) (fun () ->
      program ?config p ~inputs)
