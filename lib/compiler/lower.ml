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

(* An argument source feeding a run: either an in-run temporary or an
   external value. External keys dedup repeated uses of the same variable. *)
type ext_key = Kvar of string | Kexpr of int

(* --- Building kernels & blocks from a straight-line run of ops --- *)

let single_of_aval = function
  | Taint.Atensor { single = Some s; _ } -> Some s
  | _ -> None

let bind_of_single = function
  | Taint.Sparam p -> Kernel.Bparam p
  | Taint.Sconst { shape; value } -> Kernel.Bconst { shape; value }

(* Abstract values over a straight-line run: externs from the taint
   analysis, run outputs recomputed locally in run order. Returns the map
   from run variables to run indices, each op's output value, and the
   value of argument [pos] of op [r]. *)
let run_avals st ~ctx (run : run_op list) =
  let idx_of_var = Hashtbl.create 8 in
  List.iteri (fun i r -> Hashtbl.replace idx_of_var r.var i) run;
  let out_avals = Array.make (List.length run) Taint.Atop in
  let arg_aval r pos arg =
    match arg with
    | Ast.Var x when Hashtbl.mem idx_of_var x -> out_avals.(Hashtbl.find idx_of_var x)
    | _ -> List.nth (prim_avals st ~site:r.site ~ctx ~arity:(List.length r.args)) pos
  in
  List.iteri
    (fun i r ->
      let avals = List.mapi (fun pos a -> arg_aval r pos a) r.args in
      out_avals.(i) <-
        (match r.op with
        | Op.Constant { shape; value } -> Taint.tensor_const ~shape ~value
        | Op.Random _ -> Taint.tensor_derived ~sdepth:(Dstatic 0)
        | _ -> Taint.tensor_derived ~sdepth:(Taint.out_sdepth avals)))
    run;
  idx_of_var, out_avals, arg_aval

(* Lower a run of tensor ops into scheduling blocks, returning a function
   that wraps a continuation lexpr. [lower] lowers argument expressions.
   [ctx] is the current context. *)
let lower_run st ~ctx ~(lower : Ast.expr -> L.lexpr) (run : run_op list)
    (cont_free : SSet.t) : (L.lexpr -> L.lexpr) * string list =
  let idx_of_var, out_avals, arg_aval = run_avals st ~ctx run in
  (* Global (run-level) instruction list, with externs keyed for dedup. *)
  let externs : (ext_key, int) Hashtbl.t = Hashtbl.create 8 in
  let extern_info : (int * L.lexpr * Taint.aval) list ref = ref [] in
  let next_ext = ref 0 in
  let extern_id key lexpr aval =
    match Hashtbl.find_opt externs key with
    | Some i -> i
    | None ->
      let i = !next_ext in
      incr next_ext;
      Hashtbl.replace externs key i;
      extern_info := (i, lexpr, aval) :: !extern_info;
      i
  in
  let kexpr_counter = ref 0 in
  let instrs =
    List.mapi
      (fun i r ->
        let srcs =
          List.mapi
            (fun pos arg ->
              match arg with
              | Ast.Var x when Hashtbl.mem idx_of_var x ->
                Kernel.Tmp (Hashtbl.find idx_of_var x)
              | Ast.Var x ->
                Kernel.Arg (extern_id (Kvar x) (L.Lvar x) (arg_aval r pos arg))
              | other ->
                incr kexpr_counter;
                Kernel.Arg (extern_id (Kexpr !kexpr_counter) (lower other) (arg_aval r pos arg)))
            r.args
        in
        { Kernel.op = r.op; srcs; dst = i })
      run
  in
  (* Partition into launch groups (fusion), then into scheduling blocks
     (coarsening keeps the whole run as one block). *)
  let groups =
    Kernel.vertical_groups ~fusion:st.cfg.kernel_fusion instrs
    |> Kernel.horizontal_merge ~horizontal:st.cfg.horizontal_fusion
  in
  let pieces = if st.cfg.grain_coarsening then [ List.concat groups ] else groups in
  let run_arr = Array.of_list run in
  let extern_info = List.rev !extern_info in
  (* Which run tmps are needed outside their own piece (or by the cont)? *)
  let piece_of_tmp = Hashtbl.create 8 in
  List.iteri
    (fun pi piece -> List.iter (fun (i : Kernel.instr) -> Hashtbl.replace piece_of_tmp i.dst pi) piece)
    pieces;
  let cross_piece_or_live tmp =
    let v = run_arr.(tmp).var in
    SSet.mem v cont_free
    || List.exists
         (fun (i : Kernel.instr) ->
           Hashtbl.find piece_of_tmp i.dst <> Hashtbl.find piece_of_tmp tmp
           && List.exists (function Kernel.Tmp j -> j = tmp | Kernel.Arg _ -> false) i.srcs)
         instrs
  in
  (* Build one block per piece. *)
  let blocks =
    List.map
      (fun piece ->
        let b = Kernel.builder () in
        (* Local remapping: args and tmps local to the piece. *)
        let local_args : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let arg_exprs = ref [] and arg_avals = ref [] in
        let next_arg = ref 0 in
        let local_arg key lexpr aval =
          let k = Fmt.str "%s" key in
          match Hashtbl.find_opt local_args k with
          | Some i -> i
          | None ->
            let i = !next_arg in
            incr next_arg;
            Hashtbl.replace local_args k i;
            arg_exprs := lexpr :: !arg_exprs;
            arg_avals := aval :: !arg_avals;
            i
        in
        let local_tmp = Hashtbl.create 8 in
        let my_piece = Hashtbl.find piece_of_tmp (List.hd piece : Kernel.instr).dst in
        List.iter
          (fun (i : Kernel.instr) ->
            let srcs =
              List.map
                (function
                  | Kernel.Arg e ->
                    let _, lex, av = List.nth extern_info e in
                    Kernel.Arg (local_arg (Fmt.str "e%d" e) lex av)
                  | Kernel.Tmp j ->
                    if Hashtbl.find piece_of_tmp j = my_piece then
                      Kernel.Tmp (Hashtbl.find local_tmp j)
                    else
                      (* Produced by an earlier block: becomes a batched
                         input, referenced through its bound variable. *)
                      Kernel.Arg
                        (local_arg (Fmt.str "t%d" j)
                           (L.Lvar run_arr.(j).var)
                           out_avals.(j)))
                i.srcs
            in
            let dst = Kernel.add_instr b i.op srcs in
            Hashtbl.replace local_tmp i.dst dst)
          piece;
        let out_tmps, outs =
          List.filter_map
            (fun (i : Kernel.instr) ->
              if cross_piece_or_live i.dst then
                Some (Hashtbl.find local_tmp i.dst, run_arr.(i.dst).var)
              else None)
            piece
          |> List.split
        in
        let arg_avals = List.rev !arg_avals and arg_exprs = List.rev !arg_exprs in
        let roles =
          Array.of_list
            (List.map
               (fun av ->
                 match single_of_aval av with Some _ -> Kernel.Shared | None -> Kernel.Batched)
               arg_avals)
        in
        let shared_binds =
          arg_avals
          |> List.mapi (fun i av -> i, single_of_aval av)
          |> List.filter_map (function i, Some s -> Some (i, bind_of_single s) | _, None -> None)
        in
        let args =
          List.map2
            (fun av lex ->
              match single_of_aval av with
              | Some s -> L.Lshared (bind_of_single s)
              | None -> lex)
            arg_avals arg_exprs
        in
        let name =
          String.concat "_" (List.map (fun (i : Kernel.instr) -> Op.name i.op) piece)
        in
        let kernel =
          Kernel.finish st.registry b ~name ~nargs:(List.length args) ~roles ~shared_binds
            ~out_tmps:(Array.of_list out_tmps) ~fusion:st.cfg.kernel_fusion
            ~horizontal:st.cfg.horizontal_fusion
        in
        let depth =
          if not st.cfg.hoisting then L.Dynamic
          else begin
            let sdepths = List.map Taint.sdepth_of arg_avals in
            let all_static =
              List.for_all (function Taint.Dstatic _ -> true | Taint.Ddyn -> false) sdepths
            in
            if all_static then begin
              let d =
                List.fold_left
                  (fun acc -> function Taint.Dstatic k -> max acc k | Taint.Ddyn -> acc)
                  (-1) sdepths
                + 1
              in
              if d > st.max_static then st.max_static <- d;
              L.Static d
            end
            else L.Dynamic
          end
        in
        let site = (List.hd run).site in
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
        { L.kernel; args; batched_args; depth; outs; site })
      pieces
  in
  let outs_all = List.concat_map (fun b -> b.L.outs) blocks in
  (fun cont -> List.fold_right (fun b acc -> L.Lblock (b, acc)) blocks cont), outs_all

(* Classify each op of a run as hoistable (static depth) or dynamic, using
   the same abstract values as {!lower_run}. *)
let classify_run st ~ctx (run : run_op list) : (run_op * bool) list =
  let _, out_avals, _ = run_avals st ~ctx run in
  List.mapi
    (fun i r ->
      r, (match Taint.sdepth_of out_avals.(i) with Taint.Dstatic _ -> true | Taint.Ddyn -> false))
    run

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
  | Ast.Let (v, Ast.Prim (Op.Constant { shape; value }, []), cont) when st.cfg.constant_reuse ->
    L.Llet (v, L.Lshared (Kernel.Bconst { shape; value }), recur cont)
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

(* Gather the maximal straight-line run of tensor-op lets starting at [e]. *)
and lower_prim_run st ~defname ~ctx e =
  let rec gather acc consts e =
    match e with
    | Ast.Let (v, Ast.Prim (Op.Constant { shape; value }, []), cont) when st.cfg.constant_reuse ->
      gather acc ((v, shape, value) :: consts) cont
    | Ast.Let (v, Ast.Prim (op, args), cont) ->
      gather ({ var = v; op; args; site = Sites.id st.sites (find_prim e) } :: acc) consts cont
    | _ -> List.rev acc, List.rev consts, e
  and find_prim = function
    | Ast.Let (_, (Ast.Prim _ as p), _) -> p
    | _ -> assert false
  in
  let run, consts, cont = gather [] [] e in
  let cont_free = free_vars cont in
  let lowered_cont = lower_expr st ~defname ~ctx cont in
  (* Hoisting splits the run into a static (hoistable) prefix and a dynamic
     remainder, each its own scheduling block(s): a static op never consumes
     a dynamic op's output, so emitting all static ops first is safe and is
     exactly the paper's operator hoisting (Listing 2's bias_dense). *)
  let sub_runs =
    if not st.cfg.hoisting then [ run ]
    else begin
      let statics, dyns =
        List.partition (fun (r, sd) -> ignore r; sd) (classify_run st ~ctx run)
      in
      List.filter (( <> ) []) [ List.map fst statics; List.map fst dyns ]
    end
  in
  (* The free set for liveness must include variables consumed by later
     sub-runs; using the whole original expression's continuation plus all
     run variables referenced across sub-runs is achieved by adding every
     later sub-run's argument variables. *)
  let wraps =
    let rec build = function
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
        let wrap, _ = lower_run st ~ctx ~lower:(lower_expr st ~defname ~ctx) sub free in
        wrap :: build rest
    in
    build sub_runs
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
