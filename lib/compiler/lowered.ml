(** The lowered program representation executed by the engines.

    Lowering replaces tensor-operator applications with {e block invocations}
    ({!Lblock}): one batched-kernel call per static block (per single op when
    grain coarsening is off), annotated with its scheduling depth. All
    specialization (code duplication per context) has happened: calls
    reference concrete specialized definitions by name. *)

open Acrobat_ir

type depth_spec =
  | Static of int  (** Hoisted: compile-time depth (§B.1). *)
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

let find_def t name =
  match Hashtbl.find_opt t.defs name with
  | Some d -> d
  | None -> Fmt.invalid_arg "lowered program has no definition %S" name

let entry_def t = find_def t t.entry

(** Count the kernel-invocation sites (not dynamic invocations) in a
    definition — a cheap size metric used in tests and reports. *)
let rec count_blocks = function
  | Lblock (_, cont) -> 1 + count_blocks cont
  | Lvar _ | Lglobal _ | Lint _ | Lfloat _ | Lbool _ | Lnil | Lshared _ -> 0
  | Llet (_, a, b) | Lcons (a, b) | Lnode (a, b) | Lmap (a, b) | Lbinop (_, a, b) ->
    count_blocks a + count_blocks b
  | Lif (a, b, c) -> count_blocks a + count_blocks b + count_blocks c
  | Lcall (f, args) -> List.fold_left (fun acc e -> acc + count_blocks e) (count_blocks f) args
  | Lfn (_, b) | Lleaf b | Lproj (b, _) | Lnot b | Lscalar b | Lchoice b | Lcoin b -> count_blocks b
  | Lghost (_, b) | Lphase (_, b) -> count_blocks b
  | Lmatch (s, cases) ->
    List.fold_left (fun acc (_, e) -> acc + count_blocks e) (count_blocks s) cases
  | Ltuple es | Lconcurrent es -> List.fold_left (fun acc e -> acc + count_blocks e) 0 es
