(** The lowered program representation executed by the engines.

    Lowering replaces tensor-operator applications with {e block invocations}
    ({!Lblock}): one batched-kernel call per static block (per single op when
    grain coarsening is off), annotated with its scheduling depth. All
    specialization (code duplication per context) has happened: calls
    reference concrete specialized definitions by name. *)

open Acrobat_ir

type depth_spec =
  | Static of int
      (** Hoisted: compile-time depth (§B.1). A block with this depth, no
          batched argument and no random op runs once per run
          ({!runs_once}). *)
  | Dynamic  (** Consumes the per-instance runtime depth counter. *)

type block = {
  kernel : Kernel.t;
  args : lexpr list;
      (** Every argument, in index order: an [Lshared] of the kernel's
          binding at each [Shared] index. *)
  batched_args : lexpr list;
      (** The [Batched] arguments alone, in index order: what a DFG node
          carries (the runtime resolves shared ones from
          [Kernel.shared_binds], once per kernel). *)
  depth : depth_spec;
  outs : string list;  (** Variables bound to the kernel outputs. *)
  site : int;  (** Source site id (profiling / PGO attribution). *)
}

and lexpr =
  | Lvar of string
  | Lglobal of string  (** A specialized definition name. *)
  | Lint of int
  | Lfloat of float
  | Lbool of bool
  | Llet of string * lexpr * lexpr
  | Lif of lexpr * lexpr * lexpr
  | Lblock of block * lexpr  (** Invoke a kernel, bind outputs, continue. *)
  | Lcall of lexpr * lexpr list
  | Lfn of string list * lexpr
  | Lmatch of lexpr * (Ast.pat * lexpr) list
  | Lnil
  | Lcons of lexpr * lexpr
  | Lleaf of lexpr
  | Lnode of lexpr * lexpr
  | Ltuple of lexpr list
  | Lproj of lexpr * int
  | Lbinop of Ast.binop * lexpr * lexpr
  | Lnot of lexpr
  | Lconcurrent of lexpr list  (** Independent branches: same starting depth,
                                   forked fibers under TDC (§4.2). *)
  | Lmap of lexpr * lexpr  (** Instance-parallel map (§4.1). *)
  | Lscalar of lexpr  (** Force a tensor value (triggers DFG evaluation). *)
  | Lchoice of lexpr
  | Lcoin of lexpr
  | Lghost of int * lexpr  (** Ghost operators: bump the depth counter by
                               [n] without any kernel work (§B.3). *)
  | Lphase of int * lexpr  (** Enter program phase [n] (§B.3). *)
  | Lshared of Kernel.shared_bind
      (** A reference to a shared tensor (weight parameter or reusable
          constant), materialized once per run. *)

type ldef = { lname : string; lparams : string list; lbody : lexpr }

type t = {
  defs : (string, ldef) Hashtbl.t;
  entry : string;
  registry : Kernel.registry;
  max_static_depth : int;
      (** Runtime depth counters start above this so dynamic blocks never
          tie with hoisted ones. *)
  weight_params : string list;
  is_weight : bool array;
      (** Per parameter of the entry definition, in order: whether it is
          one of [weight_params]. Classified once here, not per batch. *)
  param_types : Ty.t array;
      (** Per parameter of the entry definition, in order: its declared
          type, which every run's weights and inputs are checked against
          before any DFG node is built. *)
  has_tdc : bool;  (** Program contains tensor-dependent control flow. *)
  config : Config.t;
  kernel_hints : (int, float) Hashtbl.t;
      (** Static invocation-frequency estimates per kernel id (the paper's
          nesting-depth heuristic, §D.1), used by the auto-scheduler when
          PGO is unavailable. *)
}

(** [b] computes one value per run: it reads no batched argument (only
    weights and constants, and a kernel names one binding of them per
    run), its depth is [Static] (so the node is scheduled before any
    consumer in its window), and none of its ops draws a random tensor
    (each instance draws its own). Both engines build such a block's node
    once per kernel in a run, in program phase 0, and every later
    evaluation reuses its outputs ([Runtime.once], DESIGN.md §35, §36).
    A block after it in the same straight-line run reads those outputs
    as shared arguments ([Kernel.Bonce]). *)
let runs_once b =
  Array.length b.kernel.Kernel.batched = 0
  && (match b.depth with Static _ -> true | Dynamic -> false)
  && not (Kernel.draws_random b.kernel)

let find_def t name =
  match Hashtbl.find_opt t.defs name with
  | Some d -> d
  | None -> Fmt.invalid_arg "lowered program has no definition %S" name

let entry_def t = find_def t t.entry

(** The kernel-invocation sites of a definition body (not dynamic
    invocations), in evaluation order: what [acrobatc lower] lists, and
    a cheap size metric used in tests. *)
let blocks e =
  let rec go acc = function
    | Lblock (b, cont) -> go (b :: acc) cont
    | Lvar _ | Lglobal _ | Lint _ | Lfloat _ | Lbool _ | Lnil | Lshared _ -> acc
    | Llet (_, a, b) | Lcons (a, b) | Lnode (a, b) | Lmap (a, b) | Lbinop (_, a, b) ->
      go (go acc a) b
    | Lif (a, b, c) -> go (go (go acc a) b) c
    | Lcall (f, args) -> List.fold_left go (go acc f) args
    | Lfn (_, b) | Lleaf b | Lproj (b, _) | Lnot b | Lscalar b | Lchoice b | Lcoin b -> go acc b
    | Lghost (_, b) | Lphase (_, b) -> go acc b
    | Lmatch (s, cases) -> List.fold_left (fun acc (_, e) -> go acc e) (go acc s) cases
    | Ltuple es | Lconcurrent es -> List.fold_left go acc es
  in
  List.rev (go [] e)
