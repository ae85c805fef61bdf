(** Runtime values.

    Tensor values are {e symbolic} during lazy execution: evaluating a block
    yields handles onto a pending DFG node's outputs; the tensors
    materialize when the runtime flushes the graph (§2.2). Materialized
    handles have a simulated device address, which is what batching
    contiguity checks consult. *)

open Acrobat_tensor

(** Per-instance execution context: the runtime depth counter of the inline
    depth-computation scheme (Listing 2's [depth] parameter) and the current
    program phase. Forked fibers get clones; joins take the max depth. *)
type ictx = { ictx_instance : int; mutable ictx_depth : int; mutable ictx_phase : int }

let clone_ictx i = { i with ictx_instance = i.ictx_instance }

(** A tensor: a value slot of a DFG node store ({!Store}) — a
    materialized input, weight or constant, or an output of a (possibly
    pending) node. *)
type handle = Store.handle = { store : Store.t; slot : int; mutable value : Tensor.t option }

let handle_shape = Store.shape
let handle_ready = Store.ready

(** The concrete value behind a handle: [None] while pending, and in
    accounting-only mode. *)
let handle_tensor h = h.value

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

exception Runtime_error = Store.Runtime_error

let fail = Store.fail

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

(** [v] with every tensor handle replaced by [f] of it. *)
let rec map_handles f = function
  | Vtensor h -> Vtensor (f h)
  | (Vint _ | Vbool _ | Vfloat _ | Vnil | Vfun _) as v -> v
  | Vcons (a, b) ->
    let a = map_handles f a in
    Vcons (a, map_handles f b)
  | Vnode (a, b) ->
    let a = map_handles f a in
    Vnode (a, map_handles f b)
  | Vleaf a -> Vleaf (map_handles f a)
  | Vtuple vs -> Vtuple (Array.map (map_handles f) vs)

let rec pp ppf = function
  | Vtensor h -> begin
    match handle_tensor h with
    | Some t -> Tensor.pp ppf t
    | None when handle_ready h ->
      Fmt.pf ppf "<tensor %a (not computed)>" Shape.pp (handle_shape h)
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
