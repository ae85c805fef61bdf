(** Batched execution of scheduled node batches on the simulated device.

    For every batched argument position the executor checks whether the
    inputs lie contiguously in device memory. If not, it either marks the
    kernel's first launch as reading through an index array (gather fusion,
    §5.2) or issues an explicit gather kernel first (DyNet's approach, and
    ACROBAT with gather fusion disabled). Batch outputs are allocated as one
    contiguous slab per output slot — which is why iterative models tend to
    have contiguous inputs on the next step. *)

open Store
open Acrobat_tensor
module Device = Acrobat_device.Device
module Memory = Acrobat_device.Memory
module Cost_model = Acrobat_device.Cost_model
open Acrobat_compiler

type policy = {
  gather_fusion : bool;
  quality : int -> float;  (** Auto-scheduled quality per kernel id. *)
  compute_values : bool;
      (** When false, kernels only do accounting: shapes/addresses flow but
          tensor values are never produced (used by large benchmarks;
          tensor-dependent control flow is emulated per §E.1). *)
  detect_dynamic_sharing : bool;
      (** Treat pointer-identical batched arguments as shared (DyNet's
          runtime check); statically generated kernels do not do this. *)
}

(* The address of argument slot [v] at position [pos] of node [id]:
   failing, as a scheduling bug, when its producer has not executed. *)
let arg_addr (s : Store.t) id pos v =
  let a = s.addr.(v) in
  if a < 0 then begin
    let m = s.owner.(v) in
    let name id = s.plan.(id).Kernel.kernel.Kernel.name in
    fail
      "kernel %s: argument %d of node %d (phase %d depth %d) not materialized (scheduling bug; \
       dep node %d kernel %s phase %d depth %d)"
      (name id) pos id s.phase.(id) s.depth.(id) m (name m) s.phase.(m) s.depth.(m)
  end;
  a

(** Execute one batch (same signature, same kernel).

    Every per-node step is a loop over the batch in node order, with no
    intermediate lists: per-group FLOPs and bytes accumulate in two float
    arrays in exactly the order the sums were always taken, so the launch
    costs — and the simulated time charged for them — keep their bits.
    Outputs get their addresses (and values) in the store's slots: a batch
    allocates nothing per node. *)
let exec_batch (device : Device.t) (policy : policy) ~(rand_for : int -> Rng.t)
    (batch : Store.batch) : unit =
  let s = batch.bstore and lo = batch.blo in
  let ids = s.order in
  let n = batch.bhi - lo in
  let plan0 = s.plan.(ids.(lo)) in
  let kernel = plan0.kernel in
  (* Per-argument gather handling. One pass over the batch, node by node
     (a node's arguments sit together in memory), finds for every batched
     argument whether its inputs share one address, whether they lie back
     to back ({!Memory.contiguous}), and how many elements they hold.
     Nodes carry only their batched arguments: shared ones are read once
     per batch, whatever their addresses, so they are not scanned. *)
  let nargs = kernel.Kernel.nargs in
  let batched = kernel.Kernel.batched in
  let nb = Array.length batched in
  let first = Array.make nb 0 and next = Array.make nb 0 and elems = Array.make nb 0 in
  let same_addr = Array.make nb true and contiguous = Array.make nb true in
  for i = 0 to n - 1 do
    let id = ids.(lo + i) in
    let a0 = s.arg_lo.(id) in
    for j = 0 to nb - 1 do
      let v = s.args.(a0 + j) in
      let addr = arg_addr s id batched.(j) v in
      if i = 0 then first.(j) <- addr
      else begin
        if addr <> first.(j) then same_addr.(j) <- false;
        if addr <> next.(j) then contiguous.(j) <- false
      end;
      let e = Shape.numel s.shape.(v) in
      next.(j) <- addr + e;
      elems.(j) <- elems.(j) + e
    done
  done;
  (* A fully dynamic system detects pointer-identical arguments at batch
     time; a static system has already compiled the decision. *)
  let arg_shared = Array.make nargs true in
  for j = 0 to nb - 1 do
    arg_shared.(batched.(j)) <- policy.detect_dynamic_sharing && same_addr.(j)
  done;
  let scattered = ref false in
  for j = 0 to nb - 1 do
    if not (arg_shared.(batched.(j)) || contiguous.(j)) then begin
      if policy.gather_fusion then scattered := true
      else begin
        let bytes = elems.(j) * Cost_model.bytes_per_elem in
        ignore (Device.launch_gather device ~bytes ~elems:elems.(j))
      end
    end
  done;
  (* Internal traffic sums per instance; argument reads count once per
     batch for shared tensors (read once, cached) and per instance for
     batched inputs. *)
  let ngroups = Array.length plan0.group_flops in
  let flops = Array.make ngroups 0.0 and bytes = Array.make ngroups 0.0 in
  for i = 0 to n - 1 do
    let p = s.plan.(ids.(lo + i)) in
    for g = 0 to ngroups - 1 do
      flops.(g) <- flops.(g) +. p.group_flops.(g);
      bytes.(g) <- bytes.(g) +. p.group_bytes.(g)
    done
  done;
  let nbatch = float_of_int n in
  for g = 0 to ngroups - 1 do
    let reads = plan0.group_arg_reads.(g) in
    for r = 0 to Array.length reads - 1 do
      let pos = reads.(r) in
      let arg_bytes =
        float_of_int (Shape.numel plan0.arg_shapes.(pos) * Cost_model.bytes_per_elem)
      in
      bytes.(g) <- bytes.(g) +. (arg_bytes *. if arg_shared.(pos) then 1.0 else nbatch)
    done
  done;
  (* Launch the kernel's groups; only the first reads the (possibly
     scattered) batch inputs — later groups read intermediates the earlier
     launches produced contiguously. *)
  let quality = policy.quality kernel.Kernel.id in
  for g = 0 to ngroups - 1 do
    Device.launch_kernel device ~quality ~scattered_inputs:(!scattered && g = 0)
      ~flops:flops.(g) ~bytes:bytes.(g)
  done;
  Device.note_batch device;
  if n = 1 then Device.note_unbatched device;
  (* Allocate outputs: one contiguous slab per output slot. *)
  let out_arity = Kernel.out_arity kernel in
  for slot = 0 to out_arity - 1 do
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + Shape.numel s.plan.(ids.(lo + i)).out_shapes.(slot)
    done;
    let cursor = ref (Device.alloc device ~elems:!total) in
    for i = 0 to n - 1 do
      let id = ids.(lo + i) in
      s.addr.(s.out_lo.(id) + slot) <- !cursor;
      cursor := !cursor + Shape.numel s.plan.(id).out_shapes.(slot)
    done
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
    for i = 0 to n - 1 do
      let id = ids.(lo + i) in
      let args =
        Array.init nargs (fun pos ->
            match s.holder.(Store.arg_slot s id pos) with
            | Some { value = Some t; _ } -> t
            | Some _ | None ->
              fail "kernel %s: value computation requested but argument %d has no value"
                kernel.Kernel.name pos)
      in
      let results = Kernel.execute ~rand:(rand_for s.instance.(id)) kernel args in
      let results = if corrupting then Array.map perturb results else results in
      let o = s.out_lo.(id) in
      Array.iteri
        (fun slot t ->
          match s.holder.(o + slot) with
          | Some h -> h.value <- Some t
          | None -> fail "kernel %s: output %d has no handle to hold its value" kernel.Kernel.name slot)
        results
    done
