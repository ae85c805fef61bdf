(** Reference batch executor for the accounting oracle in [t_runtime.ml].

    This is the list-based [Executor.exec_batch] that the in-place loops
    replaced (DESIGN.md §19), kept as it was except that it reads the
    plan's per-group cost arrays through [Array.to_list] and derives the
    per-group argument reads from the kernel itself, as it used to. It
    reads nodes whose [args] hold every kernel argument, shared ones
    included (the layout before DESIGN.md §21), as records: the node and
    output records the live executor had before the node store (DESIGN.md
    §28) are declared here. The live executor, given the same batch as
    batched-only nodes of a store, must issue the same gathers and
    launches, with the same FLOP and byte bits, and assign the same output
    addresses. *)

open Acrobat
module Executor = Acrobat_runtime.Executor

let fail = Acrobat_runtime.Value.fail

type out = { mutable tensor : Tensor.t option; mutable addr : int; shape : Shape.t }

let out_elems o = Shape.numel o.shape

type node = {
  id : int;
  plan : Kernel.plan;
  args : handle array;  (** Every kernel argument, shared ones included. *)
  phase : int;
  depth : int;
  instance : int;
  mutable outs : out array option;
}

and handle = Hmat of out | Hnode of node * int

let handle_out = function
  | Hmat o -> Some o
  | Hnode (n, i) -> (match n.outs with Some outs -> Some outs.(i) | None -> None)

let handle_shape = function Hmat o -> o.shape | Hnode (n, i) -> n.plan.out_shapes.(i)

(** Per group, the (deduplicated) kernel-argument indices it reads. *)
let group_arg_reads (t : Kernel.t) : int list list =
  List.map
    (fun (g : Kernel.group) ->
      List.concat_map
        (fun (i : Kernel.instr) ->
          List.filter_map (function Kernel.Arg a -> Some a | Kernel.Tmp _ -> None) i.srcs)
        g.instrs
      |> List.sort_uniq compare)
    t.groups

let arg_out nd pos =
  match handle_out nd.args.(pos) with
  | Some o -> o
  | None ->
    let dep =
      match nd.args.(pos) with
      | Hnode (m, _) ->
        Fmt.str "dep node %d kernel %s phase %d depth %d" m.id m.plan.kernel.Kernel.name m.phase
          m.depth
      | Hmat _ -> "materialized?"
    in
    fail
      "kernel %s: argument %d of node %d (phase %d depth %d) not materialized (scheduling \
       bug; %s)"
      nd.plan.kernel.Kernel.name pos nd.id nd.phase nd.depth dep

(** Execute one batch (same signature, same kernel). *)
let exec_batch (device : Device.t) (policy : Executor.policy) ~(rand_for : int -> Rng.t)
    (batch : node list) : unit =
  let nodes = Array.of_list batch in
  let n0 = nodes.(0) in
  let kernel = n0.plan.kernel in
  let scattered = ref false in
  let arg_shared = Array.make kernel.Kernel.nargs false in
  (* Per-argument gather handling. *)
  for pos = 0 to kernel.Kernel.nargs - 1 do
    let outs = Array.map (fun nd -> arg_out nd pos) nodes in
    let statically_shared = kernel.Kernel.roles.(pos) = Kernel.Shared in
    let dynamically_shared =
      (* A fully dynamic system detects pointer-identical arguments at
         batch time; a static system has already compiled the decision. *)
      policy.Executor.detect_dynamic_sharing
      && Array.length outs > 0
      && Array.for_all (fun (o : out) -> o.addr = outs.(0).addr) outs
    in
    arg_shared.(pos) <- statically_shared || dynamically_shared;
    if not arg_shared.(pos) then begin
      let chunks = Array.to_list (Array.map (fun o -> o.addr, out_elems o) outs) in
      if not (Memory.contiguous chunks) then begin
        if policy.Executor.gather_fusion then scattered := true
        else begin
          let elems = List.fold_left (fun acc (_, e) -> acc + e) 0 chunks in
          let bytes = elems * Cost_model.bytes_per_elem in
          ignore (Device.launch_gather device ~bytes ~elems)
        end
      end
    end
  done;
  (* Launch the kernel's groups; only the first reads the (possibly
     scattered) batch inputs — later groups read intermediates the earlier
     launches produced contiguously. *)
  let batch_group_flops =
    Array.fold_left
      (fun acc nd -> List.map2 ( +. ) acc (Array.to_list nd.plan.group_flops))
      (List.map (fun _ -> 0.0) (Array.to_list n0.plan.group_flops))
      nodes
  in
  (* Internal traffic sums per instance; argument reads count once per
     batch for shared tensors (read once, cached) and per instance for
     batched inputs. *)
  let nbatch = float_of_int (Array.length nodes) in
  let arg_bytes pos =
    float_of_int
      (Shape.numel (handle_shape n0.args.(pos)) * Cost_model.bytes_per_elem)
  in
  let batch_group_bytes =
    Array.fold_left
      (fun acc nd -> List.map2 ( +. ) acc (Array.to_list nd.plan.group_bytes))
      (List.map (fun _ -> 0.0) (Array.to_list n0.plan.group_bytes))
      nodes
    |> List.map2
         (fun reads internal ->
           List.fold_left
             (fun acc pos ->
               acc +. (arg_bytes pos *. if arg_shared.(pos) then 1.0 else nbatch))
             internal reads)
         (group_arg_reads kernel)
  in
  List.iteri
    (fun gi flops ->
      Device.launch_kernel device ~quality:(policy.quality kernel.Kernel.id)
        ~scattered_inputs:(!scattered && gi = 0) ~flops
        ~bytes:(List.nth batch_group_bytes gi))
    batch_group_flops;
  Device.note_batch device;
  if Array.length nodes = 1 then Device.note_unbatched device;
  (* Allocate outputs: one contiguous slab per output slot. *)
  let out_arity = Kernel.out_arity kernel in
  let node_outs = Array.map (fun _nd -> Array.make out_arity None) nodes in
  for slot = 0 to out_arity - 1 do
    let total =
      Array.fold_left (fun acc (nd : node) -> acc + Shape.numel nd.plan.out_shapes.(slot)) 0 nodes
    in
    let base = Device.alloc device ~elems:total in
    let cursor = ref base in
    Array.iteri
      (fun i (nd : node) ->
        let shape = nd.plan.out_shapes.(slot) in
        node_outs.(i).(slot) <- Some { tensor = None; addr = !cursor; shape };
        cursor := !cursor + Shape.numel shape)
      nodes
  done;
  (* Concrete values, when requested. On a silently-corrupting attempt
     (fault injection, {!Device.corrupting}) every kernel result is
     deterministically perturbed — no exception, no flag on the result:
     the wrong values just flow downstream, which is exactly the failure
     the audit layer exists to catch. *)
  let corrupting = policy.compute_values && Device.corrupting device in
  let perturb t =
    if Tensor.numel t = 0 then t
    else begin
      let c = Tensor.copy t in
      Tensor.set c 0 (Tensor.get c 0 +. 1.0);
      c
    end
  in
  if policy.compute_values then
    Array.iteri
      (fun i (nd : node) ->
        let args =
          Array.mapi
            (fun pos _ ->
              match (arg_out nd pos).tensor with
              | Some t -> t
              | None ->
                fail "kernel %s: value computation requested but argument %d has no value"
                  nd.plan.kernel.Kernel.name pos)
            nd.args
        in
        let results = Kernel.execute ~rand:(rand_for nd.instance) nd.plan.kernel args in
        let results = if corrupting then Array.map perturb results else results in
        Array.iteri
          (fun slot t ->
            match node_outs.(i).(slot) with
            | Some o -> o.tensor <- Some t
            | None -> assert false)
          results)
      nodes;
  Array.iteri
    (fun i nd ->
      nd.outs <- Some (Array.map (function Some o -> o | None -> assert false) node_outs.(i)))
    nodes
