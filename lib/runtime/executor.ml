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
    intermediate lists and no per-launch arrays: an argument's gather
    state and a group's FLOPs and bytes live in locals, the sums taken in
    exactly the order they always were, so the launch costs — and the
    simulated time charged for them — keep their bits. A batch whose nodes
    share one plan (every batch ACROBAT's signatures form) sums that
    plan's values [n] times without reading a node's. Outputs get their
    addresses (and values) in the store's slots. Accounting only, a launch
    allocates a constant few words whatever the batch's size and, unless
    it detects dynamic sharing, calls nothing in the runtime's C code
    (DESIGN.md §29). *)
let exec_batch (device : Device.t) (policy : policy) ~(rand_for : int -> Rng.t)
    (batch : Store.batch) : unit =
  let s = batch.bstore and lo = batch.blo in
  let ids = s.order in
  let n = batch.bhi - lo in
  let plan0 = s.plan.(ids.(lo)) in
  let kernel = plan0.kernel in
  (* Per-argument gather handling, one batched argument at a time: are
     its inputs at one address, back to back ({!Memory.contiguous}), and
     how many elements do they hold? Nodes carry only their batched
     arguments: shared ones are read once per batch, whatever their
     addresses, so they are not scanned. A fully dynamic system detects
     pointer-identical arguments at batch time ([same], kept per batched
     argument only under that policy); a static system has already
     compiled the decision. *)
  let nargs = kernel.Kernel.nargs in
  (* A shared argument a node produces ([Kernel.produced]: an output of a
     block that runs once) is read once per batch like any shared one,
     but its producer must have executed. Every node of the batch reads
     the slots of its kernel's one binding, so the first node's are
     checked. *)
  let produced = kernel.Kernel.produced in
  for r = 0 to Array.length produced - 1 do
    let pos = produced.(r) in
    ignore (arg_addr s ids.(lo) pos (Store.arg_slot s ids.(lo) pos))
  done;
  let batched = kernel.Kernel.batched in
  let nb = Array.length batched in
  let same = if policy.detect_dynamic_sharing then Array.make nb false else [||] in
  let scattered = ref false in
  for j = 0 to nb - 1 do
    let pos = batched.(j) in
    let first = ref 0 and next = ref 0 and elems = ref 0 in
    let same_addr = ref true and contiguous = ref true in
    for i = 0 to n - 1 do
      let id = ids.(lo + i) in
      let v = s.args.(s.arg_lo.(id) + j) in
      let addr = arg_addr s id pos v in
      if i = 0 then first := addr
      else begin
        if addr <> !first then same_addr := false;
        if addr <> !next then contiguous := false
      end;
      let e = s.numel.(v) in
      next := addr + e;
      elems := !elems + e
    done;
    let shared = policy.detect_dynamic_sharing && !same_addr in
    if shared then same.(j) <- true;
    if not (shared || !contiguous) then begin
      if policy.gather_fusion then scattered := true
      else begin
        let bytes = !elems * Cost_model.bytes_per_elem in
        ignore (Device.launch_gather device ~bytes ~elems:!elems)
      end
    end
  done;
  (* Launch the kernel's groups. Internal traffic sums per instance;
     argument reads count once per batch for shared tensors (read once,
     cached) and per instance for batched inputs. Only the first group
     reads the (possibly scattered) batch inputs — later groups read
     intermediates the earlier launches produced contiguously. *)
  let roles = kernel.Kernel.roles and slots = kernel.Kernel.slots in
  let nbatch = float_of_int n in
  let quality = policy.quality kernel.Kernel.id in
  (* Every node of a batch of ACROBAT's carries one plan (its signature is
     the plan id): a group's sums are then [n] additions of the plan's own
     values, in registers, with no load per node. *)
  let uniform = ref true and i = ref 1 in
  while !uniform && !i < n do
    uniform := s.plan.(ids.(lo + !i)) == plan0;
    incr i
  done;
  let uniform = !uniform in
  for g = 0 to Array.length plan0.group_flops - 1 do
    let flops = ref 0.0 and bytes = ref 0.0 in
    if uniform then begin
      let f = plan0.group_flops.(g) and b = plan0.group_bytes.(g) in
      for _ = 1 to n do
        flops := !flops +. f;
        bytes := !bytes +. b
      done
    end
    else
      for i = 0 to n - 1 do
        let p = s.plan.(ids.(lo + i)) in
        flops := !flops +. p.group_flops.(g);
        bytes := !bytes +. p.group_bytes.(g)
      done;
    let reads = plan0.group_arg_reads.(g) in
    for r = 0 to Array.length reads - 1 do
      let pos = reads.(r) in
      let arg_bytes = float_of_int (plan0.arg_elems.(pos) * Cost_model.bytes_per_elem) in
      let shared =
        match roles.(pos) with
        | Kernel.Shared -> true
        | Kernel.Batched -> policy.detect_dynamic_sharing && same.(slots.(pos))
      in
      bytes := !bytes +. (arg_bytes *. if shared then 1.0 else nbatch)
    done;
    Device.launch_kernel device ~quality ~scattered_inputs:(!scattered && g = 0) ~flops:!flops
      ~bytes:!bytes
  done;
  Device.note_batch device;
  (* A node built once per run is a batch of one by design, not work that
     failed to batch; it has no batched argument, so other batches skip
     the search. *)
  if n = 1 && not (nb = 0 && List.mem ids.(lo) s.once_nodes) then Device.note_unbatched device;
  (* Allocate outputs: one contiguous slab per output slot. *)
  let out_arity = Kernel.out_arity kernel in
  for slot = 0 to out_arity - 1 do
    let total =
      if uniform then n * plan0.out_elems.(slot)
      else begin
        let total = ref 0 in
        for i = 0 to n - 1 do
          total := !total + s.numel.(s.out_lo.(ids.(lo + i)) + slot)
        done;
        !total
      end
    in
    let cursor = ref (Device.alloc device ~elems:total) in
    for i = 0 to n - 1 do
      let v = s.out_lo.(ids.(lo + i)) + slot in
      s.addr.(v) <- !cursor;
      cursor := !cursor + s.numel.(v)
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
