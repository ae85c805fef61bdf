(** Runtime values and dataflow-graph nodes.

    Tensor values are {e symbolic} during lazy execution: evaluating a block
    yields handles onto a pending DFG node; the tensors materialize when the
    runtime flushes the graph (§2.2). Materialized handles carry a simulated
    device address, which is what batching contiguity checks consult. *)

open Acrobat_tensor
open Acrobat_compiler

(** Per-instance execution context: the runtime depth counter of the inline
    depth-computation scheme (Listing 2's [depth] parameter) and the current
    program phase. Forked fibers get clones; joins take the max depth. *)
type ictx = { ictx_instance : int; mutable ictx_depth : int; mutable ictx_phase : int }

let clone_ictx i = { i with ictx_instance = i.ictx_instance }

type out = {
  mutable tensor : Tensor.t option;
      (** Concrete value; [None] until executed, and possibly forever when
          the engine runs in accounting-only mode (no value computation). *)
  mutable addr : int;  (** Simulated device address (elements). *)
  shape : Shape.t;
}

let out_elems o = Shape.numel o.shape

type node = {
  id : int;
  plan : Kernel.plan;
      (** The kernel with its output shapes and per-group costs at this
          node's argument shapes; shared by every node with the same
          kernel and argument shapes. *)
  args : handle array;  (** All kernel arguments, shared ones included. *)
  phase : int;
  depth : int;
  instance : int;
  sig_key : string;
      (** Batching signature: nodes batch together only when equal. Engines
          control its contents (ACROBAT: kernel id + shapes; DyNet adds its
          heuristics' constraints). *)
  seq : int;  (** Insertion order (a valid dependency order, obs. O.1). *)
  mutable outs : out array option;  (** Set once the node has executed. *)
}

and handle =
  | Hmat of out  (** Materialized: inputs, weights, constants, or executed. *)
  | Hnode of node * int  (** Output slot [i] of a (possibly pending) node. *)

let node_executed n = n.outs <> None

let handle_shape = function Hmat o -> o.shape | Hnode (n, i) -> n.plan.out_shapes.(i)

(** The materialized output behind a handle, if executed. *)
let handle_out = function
  | Hmat o -> Some o
  | Hnode (n, i) -> (match n.outs with Some outs -> Some outs.(i) | None -> None)

let handle_ready h = handle_out h <> None

(** The pending node behind a handle, if any. *)
let handle_node = function
  | Hmat _ -> None
  | Hnode (n, _) -> if node_executed n then None else Some n

type value =
  | Vtensor of handle
  | Vint of int
  | Vbool of bool
  | Vfloat of float
  | Vnil
  | Vcons of value * value
  | Vleaf of value
  | Vnode of value * value
  | Vtuple of value array
  | Vfun of (ictx -> value list -> value)

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

let to_handle = function Vtensor h -> h | _ -> fail "expected a tensor value"
let to_int = function Vint n -> n | _ -> fail "expected an int"
let to_bool = function Vbool b -> b | _ -> fail "expected a bool"
let to_float = function Vfloat f -> f | _ -> fail "expected a float"
let to_fun = function Vfun f -> f | _ -> fail "expected a function"

let rec to_list = function
  | Vnil -> []
  | Vcons (h, t) -> h :: to_list t
  | _ -> fail "expected a list"

let rec of_list = function [] -> Vnil | h :: t -> Vcons (h, of_list t)

(** All tensor handles reachable from a value (for forcing results). *)
let rec handles acc = function
  | Vtensor h -> h :: acc
  | Vint _ | Vbool _ | Vfloat _ | Vnil | Vfun _ -> acc
  | Vcons (a, b) | Vnode (a, b) -> handles (handles acc a) b
  | Vleaf a -> handles acc a
  | Vtuple vs -> Array.fold_left handles acc vs

let rec pp ppf = function
  | Vtensor h -> begin
    match handle_out h with
    | Some { tensor = Some t; _ } -> Tensor.pp ppf t
    | Some { shape; _ } -> Fmt.pf ppf "<tensor %a (not computed)>" Shape.pp shape
    | None -> Fmt.pf ppf "<pending tensor>"
  end
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b
  | Vfloat f -> Fmt.float ppf f
  | Vnil -> Fmt.string ppf "Nil"
  | Vcons (a, b) -> Fmt.pf ppf "Cons(%a, %a)" pp a pp b
  | Vleaf a -> Fmt.pf ppf "Leaf(%a)" pp a
  | Vnode (a, b) -> Fmt.pf ppf "Node(%a, %a)" pp a pp b
  | Vtuple vs -> Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") pp) vs
  | Vfun _ -> Fmt.string ppf "<fun>"
