(** The simulated accelerator.

    Engines drive this module instead of a CUDA runtime. Each call performs
    the real bookkeeping (arena allocation, contiguity checks, counters) and
    charges the {!Cost_model} for the simulated time; tensor values themselves
    are computed by the caller on the CPU. See DESIGN.md §2 for why this
    substitution preserves the paper's evaluation. *)

module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json

type t = {
  cost : Cost_model.t;
  memory : Memory.t;
  profiler : Profiler.t;
  faults : Faults.t option;
      (** Shared fault injector; one injector can span many devices so
          retried work sees fresh fault draws. *)
  tracer : Trace.t;
      (** Span sink for launches/copies. Timestamps are the profiler's
          accumulated virtual time, emitted relative to the tracer's
          ambient base (the serving layer sets the base to the batch's
          launch time before each execution). *)
}

(** [create ?faults ()] builds a device. When a fault plan carries a memory
    capacity, the arena is bounded accordingly and {!alloc} can raise
    {!Memory.Device_oom}. Creating a device opens a new batch attempt on the
    injector: one fault-fate draw covers all of this device's launches. *)
let create ?(cost = Cost_model.default) ?faults ?(tracer = Trace.null) () =
  let capacity = Option.bind faults (fun f -> (Faults.plan f).Faults.capacity_elems) in
  Option.iter Faults.begin_attempt faults;
  {
    cost;
    memory = Memory.create ?capacity ();
    profiler = Profiler.create ();
    faults;
    tracer;
  }

let profiler t = t.profiler
let tracer t = t.tracer
let memory t = t.memory
let faults t = t.faults

(** Is this device's current batch attempt silently corrupting its outputs?
    Consulted by the executor's value path, which perturbs kernel results
    without raising — detection is the audit layer's job, not the device's. *)
let corrupting t =
  match t.faults with None -> false | Some f -> Faults.corrupt_attempt f

let reset t =
  Memory.reset t.memory;
  Profiler.reset t.profiler

(** Reserve device memory for [elems] elements.
    @raise Memory.Device_oom on a bounded arena that cannot fit it. *)
let alloc t ~elems = Memory.alloc t.memory ~elems

(* [Profiler.charge], inlined here in every build profile: the charges
   below run per DFG node, heap operation and launch, and a call into
   another module that is not inlined (all of them under `--profile dev`)
   boxes its float argument, 2 minor words a charge. *)
let[@inline] charge t activity us =
  let a = t.profiler.Profiler.times_us and i = Profiler.activity_index activity in
  a.(i) <- a.(i) +. us

(* Consult the fault injector for one launch; returns the latency
   multiplier. An injected failure still burns the API call and launch
   overhead — the device was entered, the kernel just did not complete —
   so failed attempts cost simulated time like real ones do. *)
let inject_launch t =
  match t.faults with
  | None -> 1.0
  | Some f -> (
    match Faults.on_launch f with
    | mult -> mult
    | exception (Faults.Fault { kind; _ } as e) ->
      charge t Profiler.Api_overhead t.cost.api_call_us;
      let burn =
        match kind with
        | Faults.Kernel_fault -> t.cost.kernel_launch_us
        | Faults.Device_reset -> (Faults.plan f).Faults.reset_cost_us
      in
      charge t Profiler.Kernel_exec burn;
      if Trace.enabled t.tracer then
        Trace.instant_rel t.tracer ~name:"fault" ~cat:"device"
          ~ts_us:(Profiler.total_us t.profiler)
          ~args:[ "kind", Json.Str (Faults.kind_name kind) ];
      raise e)

(* A span's start: the virtual time so far, which is a fold over every
   activity, read only when the device traces. Everything a span costs —
   this read and its [~args] list — sits behind [Trace.enabled], so a
   device on {!Trace.null} does no work for the trace. *)
let trace_start t = if Trace.enabled t.tracer then Profiler.total_us t.profiler else 0.0

(** Launch one compute kernel performing [flops] of work and moving
    [bytes] to and from device memory.

    [scattered_inputs] indicates the kernel reads its batched inputs through
    an index array (gather fusion with non-contiguous inputs); it is charged
    the indirection penalty. [quality] is the auto-scheduler's schedule
    quality in (0, 1]; 1.0 is the best schedule found at the full iteration
    budget (§D.1). Every argument is required: an optional one would box
    its value in a [Some] on every launch. *)
let launch_kernel t ~quality ~scattered_inputs ~flops ~bytes =
  assert (quality > 0.0 && quality <= 1.0);
  let fault_mult = inject_launch t in
  let base = Cost_model.kernel_time t.cost ~flops ~bytes in
  let penalty = if scattered_inputs then 1.0 +. t.cost.indirection_penalty else 1.0 in
  let time = base *. penalty /. quality *. fault_mult in
  let ts = trace_start t in
  t.profiler.kernel_calls <- t.profiler.kernel_calls + 1;
  charge t Profiler.Kernel_exec time;
  charge t Profiler.Api_overhead t.cost.api_call_us;
  if Trace.enabled t.tracer then
    Trace.complete_rel t.tracer ~name:"kernel" ~cat:"device" ~ts_us:ts ~dur_us:time
      ~args:[ "flops", Json.Float flops ]

(** Launch an explicit memory-gather kernel copying [bytes] into a fresh
    contiguous slab; returns the slab's base address. *)
let launch_gather t ~bytes ~elems =
  let fault_mult = inject_launch t in
  let time = Cost_model.gather_time t.cost ~bytes *. fault_mult in
  let ts = trace_start t in
  t.profiler.kernel_calls <- t.profiler.kernel_calls + 1;
  t.profiler.gather_kernels <- t.profiler.gather_kernels + 1;
  t.profiler.gather_bytes <- t.profiler.gather_bytes + bytes;
  charge t Profiler.Kernel_exec time;
  charge t Profiler.Api_overhead t.cost.api_call_us;
  if Trace.enabled t.tracer then
    Trace.complete_rel t.tracer ~name:"gather" ~cat:"device" ~ts_us:ts ~dur_us:time
      ~args:[ "bytes", Json.Int bytes ];
  Memory.alloc t.memory ~elems

(** One host->device (or device->host) transfer of [bytes]. *)
let memcpy t ~bytes =
  let time = Cost_model.memcpy_time t.cost ~bytes in
  let ts = trace_start t in
  t.profiler.memcpy_calls <- t.profiler.memcpy_calls + 1;
  charge t Profiler.Mem_transfer time;
  charge t Profiler.Api_overhead t.cost.api_call_us;
  if Trace.enabled t.tracer then
    Trace.complete_rel t.tracer ~name:"memcpy" ~cat:"device" ~ts_us:ts ~dur_us:time
      ~args:[ "bytes", Json.Int bytes ]

(** Upload a tensor, returning its device address. *)
let upload t tensor =
  let elems = Acrobat_tensor.Tensor.numel tensor in
  memcpy t ~bytes:(elems * Cost_model.bytes_per_elem);
  alloc t ~elems

(* --- Host-side accounting helpers; engines call these as they work. --- *)

let charge_dfg_node t =
  t.profiler.nodes_created <- t.profiler.nodes_created + 1;
  charge t Profiler.Dfg_construction t.cost.dfg_node_us

let charge_heap_op t = charge t Profiler.Scheduling t.cost.heap_op_us

let charge_signature_hash t =
  charge t Profiler.Scheduling t.cost.signature_hash_us

let charge_bucket_push t = charge t Profiler.Scheduling t.cost.bucket_push_us

let charge_scheduling t us = charge t Profiler.Scheduling us

let charge_vm_dispatch t = charge t Profiler.Vm_overhead t.cost.vm_dispatch_us

let charge_fiber_switch t =
  t.profiler.fiber_switches <- t.profiler.fiber_switches + 1;
  charge t Profiler.Fiber_overhead t.cost.fiber_switch_us;
  if Trace.enabled t.tracer then
    Trace.instant_rel t.tracer ~name:"fiber_switch" ~cat:"runtime"
      ~ts_us:(Profiler.total_us t.profiler)

let note_batch t = t.profiler.batches_executed <- t.profiler.batches_executed + 1
let note_unbatched t = t.profiler.unbatched_ops <- t.profiler.unbatched_ops + 1
