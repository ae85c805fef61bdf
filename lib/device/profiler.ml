(** Activity accounting, mirroring the categories of the paper's Table 5. *)

type activity =
  | Dfg_construction  (** Building DFG nodes during lazy execution. *)
  | Scheduling  (** Finding batching opportunities / ordering nodes. *)
  | Mem_transfer  (** Host <-> device copies. *)
  | Kernel_exec  (** Device time of compute + gather kernels. *)
  | Api_overhead  (** Host-side CUDA-API call costs. *)
  | Vm_overhead  (** Interpreter dispatch (Relay VM only). *)
  | Fiber_overhead  (** Cooperative context switches. *)

let activity_name = function
  | Dfg_construction -> "DFG construction"
  | Scheduling -> "Scheduling"
  | Mem_transfer -> "Mem. copy time"
  | Kernel_exec -> "GPU kernel time"
  | Api_overhead -> "CUDA API time"
  | Vm_overhead -> "VM overhead"
  | Fiber_overhead -> "Fiber overhead"

let all_activities =
  [
    Dfg_construction;
    Scheduling;
    Mem_transfer;
    Kernel_exec;
    Api_overhead;
    Vm_overhead;
    Fiber_overhead;
  ]

(* Dense index for the per-activity accumulator array. [charge] sits on the
   hot path (every kernel launch, memcpy and scheduling op), so accumulation
   must be an array store, not an assoc-list rebuild. *)
let activity_index = function
  | Dfg_construction -> 0
  | Scheduling -> 1
  | Mem_transfer -> 2
  | Kernel_exec -> 3
  | Api_overhead -> 4
  | Vm_overhead -> 5
  | Fiber_overhead -> 6

let n_activities = List.length all_activities

type t = {
  times_us : float array;  (** Indexed by {!activity_index}. *)
  mutable kernel_calls : int;  (** Device kernel launches (incl. gathers). *)
  mutable gather_kernels : int;
  mutable gather_bytes : int;
  mutable memcpy_calls : int;
  mutable nodes_created : int;
  mutable batches_executed : int;
  mutable unbatched_ops : int;
      (** Ops executed one-by-one because the framework could not batch
          them (e.g. DyNet's unsupported operators, §E.4). *)
  mutable fiber_switches : int;
}

let create () =
  {
    times_us = Array.make n_activities 0.0;
    kernel_calls = 0;
    gather_kernels = 0;
    gather_bytes = 0;
    memcpy_calls = 0;
    nodes_created = 0;
    batches_executed = 0;
    unbatched_ops = 0;
    fiber_switches = 0;
  }

let reset t =
  Array.fill t.times_us 0 n_activities 0.0;
  t.kernel_calls <- 0;
  t.gather_kernels <- 0;
  t.gather_bytes <- 0;
  t.memcpy_calls <- 0;
  t.nodes_created <- 0;
  t.batches_executed <- 0;
  t.unbatched_ops <- 0;
  t.fiber_switches <- 0

let charge t activity us =
  let i = activity_index activity in
  t.times_us.(i) <- t.times_us.(i) +. us

let time_us t activity = t.times_us.(activity_index activity)

(** Total simulated latency in microseconds. *)
let total_us t = Array.fold_left ( +. ) 0.0 t.times_us

let total_ms t = total_us t /. 1000.0

let merge ~into src =
  Array.iteri (fun i v -> into.times_us.(i) <- into.times_us.(i) +. v) src.times_us;
  into.kernel_calls <- into.kernel_calls + src.kernel_calls;
  into.gather_kernels <- into.gather_kernels + src.gather_kernels;
  into.gather_bytes <- into.gather_bytes + src.gather_bytes;
  into.memcpy_calls <- into.memcpy_calls + src.memcpy_calls;
  into.nodes_created <- into.nodes_created + src.nodes_created;
  into.batches_executed <- into.batches_executed + src.batches_executed;
  into.unbatched_ops <- into.unbatched_ops + src.unbatched_ops;
  into.fiber_switches <- into.fiber_switches + src.fiber_switches

(** Every accumulated counter, in a fixed order shared by {!pp},
    {!to_json} and the serving metrics export — the single list that keeps the
    three exports from drifting out of sync again (counters used to be
    collected but silently dropped by [pp]). *)
let counters t =
  [
    "kernel_calls", t.kernel_calls;
    "gather_kernels", t.gather_kernels;
    "gather_bytes", t.gather_bytes;
    "memcpy_calls", t.memcpy_calls;
    "nodes_created", t.nodes_created;
    "batches_executed", t.batches_executed;
    "unbatched_ops", t.unbatched_ops;
    "fiber_switches", t.fiber_switches;
  ]

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun a ->
      let v = time_us t a in
      if v > 0.0 then Fmt.pf ppf "%-18s %8.2f ms@," (activity_name a) (v /. 1000.0))
    all_activities;
  Fmt.pf ppf "#Kernel calls      %8d@," t.kernel_calls;
  Fmt.pf ppf "#Gather kernels    %8d@," t.gather_kernels;
  Fmt.pf ppf "Gather bytes       %8d@," t.gather_bytes;
  Fmt.pf ppf "#Memcpy calls      %8d@," t.memcpy_calls;
  Fmt.pf ppf "#DFG nodes         %8d@," t.nodes_created;
  Fmt.pf ppf "#Batches           %8d@," t.batches_executed;
  Fmt.pf ppf "#Unbatched ops     %8d@," t.unbatched_ops;
  Fmt.pf ppf "#Fiber switches    %8d@," t.fiber_switches;
  Fmt.pf ppf "Total              %8.2f ms@]" (total_ms t)

(** Times (ms, per activity) and all counters as JSON — used by
    [bench --json] and the run/serve reports. *)
let to_json t : Acrobat_obs.Json.t =
  let open Acrobat_obs.Json in
  let times =
    List.filter_map
      (fun a ->
        let v = time_us t a in
        if v > 0.0 then Some (activity_name a, Float (v /. 1000.0)) else None)
      all_activities
  in
  Obj
    [
      "times_ms", Obj times;
      "counters", Obj (List.map (fun (k, v) -> k, Int v) (counters t));
      "total_ms", Float (total_ms t);
    ]
