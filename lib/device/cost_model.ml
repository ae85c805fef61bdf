(** Cost model for the simulated accelerator and host runtime.

    The repository has no GPU, so latencies are *derived*, not measured: every
    engine (ACROBAT, DyNet, Cortex, PyTorch-like) really executes its
    workload — building DFGs, scheduling, batching, computing tensor values —
    and charges this model for each unit of work it performs. The *counts*
    (kernel launches, gather bytes, DFG nodes, heap operations, ...) are real;
    only the unit costs below are constants. Constants are calibrated so that
    the activity breakdown for TreeLSTM/BiRNN reproduces the ratios of the
    paper's Table 5 on an RTX 3070-class device.

    All times are in microseconds; work in FLOPs; memory in bytes. *)

type t = {
  (* --- Device-side costs --- *)
  kernel_launch_us : float;
      (** Fixed device-side latency per kernel launch. *)
  peak_flops_per_us : float;
      (** Arithmetic throughput at full utilization (large GEMMs). *)
  saturation_flops : float;
      (** Half-utilization point: a kernel of [f] FLOPs runs at an
          effective rate of [peak * f / (f + saturation_flops)] — small
          kernels cannot fill the device. *)
  min_rate_flops_per_us : float;
      (** Floor on the effective rate (tiny kernels are latency-, not
          throughput-bound). *)
  hbm_bandwidth_bytes_per_us : float;
      (** Device memory bandwidth: kernels are modeled as roofline,
          max(compute time, traffic / bandwidth). *)
  gather_bandwidth_bytes_per_us : float;
      (** Device-to-device copy bandwidth for explicit memory gathers. *)
  indirection_penalty : float;
      (** Relative slowdown of a gather-fused kernel reading scattered
          inputs through an index array (cf. §7.3: indirect accesses can
          cause a slowdown). *)
  (* --- Host-side costs --- *)
  api_call_us : float;  (** Host CUDA-API cost per kernel launch. *)
  memcpy_call_us : float;  (** Host cost per host<->device transfer call. *)
  memcpy_bandwidth_bytes_per_us : float;  (** Host<->device bandwidth. *)
  dfg_node_us : float;  (** Cost of allocating + linking one DFG node. *)
  heap_op_us : float;  (** One push/pop on an agenda priority queue. *)
  signature_hash_us : float;  (** Hashing one node signature (DyNet). *)
  bucket_push_us : float;  (** O(1) depth-bucket insertion (ACROBAT). *)
  vm_dispatch_us : float;
      (** Per-instruction dispatch overhead of the interpreted Relay VM;
          the AOT path does not pay this (Table 7). *)
  fiber_switch_us : float;  (** One cooperative fiber context switch. *)
}

(** Defaults calibrated against the paper's Table 5 (see module docstring). *)
let default =
  {
    kernel_launch_us = 2.0;
    peak_flops_per_us = 5_000_000.0;
    saturation_flops = 1.0e8;
    min_rate_flops_per_us = 400_000.0;
    hbm_bandwidth_bytes_per_us = 280_000.0;
    gather_bandwidth_bytes_per_us = 250_000.0;
    indirection_penalty = 0.18;
    api_call_us = 2.0;
    memcpy_call_us = 1.5;
    memcpy_bandwidth_bytes_per_us = 8_000.0;
    dfg_node_us = 0.22;
    heap_op_us = 0.12;
    signature_hash_us = 0.13;
    bucket_push_us = 0.05;
    vm_dispatch_us = 0.35;
    fiber_switch_us = 0.6;
  }

let bytes_per_elem = 4

(** Device time of one kernel launch doing [flops] useful work and moving
    [bytes] to/from device memory: launch latency plus the roofline
    max(compute, traffic) — compute at a utilization-dependent effective
    rate. *)
let kernel_time t ~flops ~bytes =
  let f = Float.max 1.0 flops in
  let rate =
    Float.max t.min_rate_flops_per_us (t.peak_flops_per_us *. f /. (f +. t.saturation_flops))
  in
  t.kernel_launch_us +. Float.max (f /. rate) (bytes /. t.hbm_bandwidth_bytes_per_us)

(** Device time of an explicit memory-gather kernel moving [bytes]. *)
let gather_time t ~bytes =
  t.kernel_launch_us +. (float_of_int bytes /. t.gather_bandwidth_bytes_per_us)

(** Host<->device transfer time for one call moving [bytes]. *)
let memcpy_time t ~bytes =
  t.memcpy_call_us +. (float_of_int bytes /. t.memcpy_bandwidth_bytes_per_us)

(** Cost of making a model resident on a device: one bulk host->device
    transfer of its [param_bytes]. The multi-tenant dispatcher charges this
    whenever a launch changes a replica's resident model (including the
    cold start onto an empty replica), sized from the catalog's parameter
    footprint. *)
let model_swap_time t ~param_bytes = memcpy_time t ~bytes:param_bytes
