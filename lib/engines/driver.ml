(** End-to-end runs: upload inputs, execute all batch instances (as fibers
    under tensor-dependent control flow), flush, download, report stats. *)

open Acrobat_tensor
open Acrobat_compiler
open Acrobat_runtime
open Value
module Device = Acrobat_device.Device
module Profiler = Acrobat_device.Profiler
module L = Lowered
module Ty = Acrobat_ir.Ty

(** Host-side input values, before upload. *)
type hval =
  | Htensor of Tensor.t
  | Hint of int
  | Hbool of bool
  | Hfloat of float
  | Hlist of hval list
  | Hleaf of hval
  | Hnode of hval * hval
  | Htuple of hval list

let rec hval_tensors acc = function
  | Htensor t -> t :: acc
  | Hint _ | Hbool _ | Hfloat _ -> acc
  | Hlist vs | Htuple vs -> List.fold_left hval_tensors acc vs
  | Hleaf v -> hval_tensors acc v
  | Hnode (a, b) -> hval_tensors (hval_tensors acc a) b

(* Rebuild a runtime value, consuming uploaded handles in order. *)
let rec hval_to_value (next : unit -> handle) = function
  | Htensor _ -> Vtensor (next ())
  | Hint n -> Vint n
  | Hbool b -> Vbool b
  | Hfloat f -> Vfloat f
  | Hlist vs -> of_list (List.map (hval_to_value next) vs)
  | Hleaf v -> Vleaf (hval_to_value next v)
  | Hnode (a, b) ->
    let av = hval_to_value next a in
    Vnode (av, hval_to_value next b)
  | Htuple vs -> Vtuple (Array.of_list (List.map (hval_to_value next) vs))

(* --- @main's boundary ---

   Every tensor type of the language has a static shape ({!Ty.t}), so once
   @main's weights and inputs match its declared parameter types, every
   node one AOT call site builds in a run has that site's shapes: the run
   is checked here, once, and not at its DFG nodes (DESIGN.md §32). The
   checks allocate nothing unless they fail. *)

(* Raise the boundary error for parameter [name], declared [declared], at
   a part of it declared [ty] where [hv] was given. *)
let mismatch name declared (ty : Ty.t) hv =
  let given =
    match hv with
    | Htensor t -> Fmt.str "shape %a" Shape.pp (Tensor.shape t)
    | Hint _ -> "an int"
    | Hbool _ -> "a bool"
    | Hfloat _ -> "a float"
    | Hlist _ -> "a list"
    | Hleaf _ | Hnode _ -> "a tree"
    | Htuple vs -> Fmt.str "a %d-tuple" (List.length vs)
  in
  let where = if ty == declared then "" else Fmt.str " where %s is declared" (Ty.to_string ty) in
  fail "parameter %S of @main: declared %s, given %s%s" name (Ty.to_string declared) given where

let rec check_hval name declared (ty : Ty.t) hv =
  match ty, hv with
  | Ty.Tensor s, Htensor t when Shape.equal s (Tensor.shape t) -> ()
  | Ty.Int, Hint _ | Ty.Bool, Hbool _ | Ty.Float, Hfloat _ -> ()
  | Ty.List elt, Hlist vs -> check_list name declared elt vs
  | Ty.Tree elt, Hleaf v -> check_hval name declared elt v
  | Ty.Tree _, Hnode (a, b) ->
    check_hval name declared ty a;
    check_hval name declared ty b
  | Ty.Tup tys, Htuple vs when List.compare_lengths tys vs = 0 -> check_tuple name declared tys vs
  | (Ty.Tensor _ | Ty.Int | Ty.Bool | Ty.Float | Ty.List _ | Ty.Tree _ | Ty.Tup _ | Ty.Fn _), _ ->
    mismatch name declared ty hv

and check_list name declared elt = function
  | [] -> ()
  | v :: vs ->
    check_hval name declared elt v;
    check_list name declared elt vs

and check_tuple name declared tys vs =
  match tys, vs with
  | ty :: tys, v :: vs ->
    check_hval name declared ty v;
    check_tuple name declared tys vs
  | _ -> ()

(* A weight's handle against its declared tensor type. *)
let check_weight name (declared : Ty.t) h =
  match declared with
  | Ty.Tensor s when Shape.equal s (handle_shape h) -> ()
  | _ -> fail "parameter %S of @main: declared %s, given shape %a" name (Ty.to_string declared)
           Shape.pp (handle_shape h)

(* An instance listed more inputs than @main takes per instance: name one
   @main does not take, or one listed twice. *)
let reject_extra_input params is_weight inputs =
  let takes name = Array.exists2 (fun p w -> p = name && not w) params is_weight in
  let rec first_bad = function
    | [] -> fail "an instance lists more inputs than @main takes"
    | (name, _) :: rest ->
      if not (takes name) then fail "@main takes no input %S" name
      else if List.mem_assoc name rest then fail "input %S listed twice for an instance" name
      else first_bad rest
  in
  first_bad inputs

type mode = Aot_mode | Vm_mode

type stats = {
  latency_ms : float;
  profiler : Profiler.t;
  flushes : int;
}

type result = {
  outputs : value list;  (** @main's result per instance. *)
  stats : stats;
  profile : (int * float * float * int) list;
      (** PGO: kernel, count, mean flops, max shared-arg elems. *)
  per_instance_ms : float array;
      (** Simulated completion latency of each instance, measured from the
          start of this batch. Every instance's outputs become ready at the
          final flush barrier and are downloaded together, so today the
          entries are uniform; the field fixes the contract callers that
          attribute latency per request (the serving layer) program
          against. *)
}

(** Run instances as fibers: the program has tensor-dependent control flow
    and its configuration enables fibers. *)
let fibers (lprog : L.t) = lprog.L.has_tdc && lprog.L.config.fibers

(** Stage [lprog] for the AOT engine ({!Aot.stage}), for {!run_batch}'s
    [staged]. *)
let stage lprog = Aot.stage ~fibers:(fibers lprog) lprog

(** Run a lowered program on one mini-batch: upload inputs, execute all
    instances (as fibers under tensor-dependent control flow), flush,
    download, report stats.

    [instances] supplies, per batch instance, the values of @main's input
    parameters by name; [weights] the model parameters. [quality] is the
    auto-scheduled kernel quality ({!Acrobat_compiler.Autosched}).

    [device] lets callers that execute many batches (the serving loop)
    accumulate one profile across calls; latency is charged relative to the
    device's simulated clock at entry, so the result's stats describe just
    this batch either way; faults the device injects surface as
    {!Acrobat_device.Faults.Fault} or {!Acrobat_device.Memory.Device_oom}
    exceptions out of this call.
    [tracer] threads a span sink into a freshly created device, so
    kernel/gather/memcpy spans reach the caller's trace. [instance_keys]
    names each instance's pseudo-random decision stream (default: batch
    position); the serving integrity layer passes stable request ids so a
    request's outputs — and therefore its result fingerprint — do not
    depend on which peers it was batched with. [staged] is [lprog] already
    staged for the AOT engine ({!stage}), which this run binds instead of
    staging afresh; callers that run many batches of one program pass it.
    Ignored in [Vm_mode].
    @raise Invalid_argument when [staged] was staged from another program
    or fiber mode. *)
let run_batch ?(compute_values = false) ?(seed = 2024) ?device ?tracer
    ?instance_keys ?staged ~(mode : mode) ~(policy : Policy.t) ~(quality : int -> float)
    ~(lprog : L.t) ~(weights : (string * Tensor.t) list)
    ~(instances : (string * hval) list list) () : result =
  let device =
    match device with Some d -> d | None -> Device.create ?tracer ()
  in
  let start_us = Profiler.total_us (Device.profiler device) in
  let exec_policy =
    {
      Executor.gather_fusion = lprog.L.config.gather_fusion;
      quality;
      compute_values;
      detect_dynamic_sharing = policy.Policy.detect_dynamic_sharing;
    }
  in
  let n_instances = List.length instances in
  let rt =
    Runtime.create ~device ~scheduler:lprog.L.config.scheduler ~policy:exec_policy ~seed
      ~instances:n_instances
  in
  let fibers = fibers lprog in
  (* The whole run, bound to the engine: a staged program attaches its
     store before the first value is registered in it. *)
  let run run_main =
    Option.iter (Runtime.set_decision_keys rt ~seed) instance_keys;
    List.iter (fun (name, tensor) -> Runtime.set_weight rt name tensor) weights;
    (* @main's parameters, classified once by lowering, resolved in
       parameter order, instance by instance: a weight at its first use
       (so an unknown weight fails at the first instance that reaches it,
       after that instance's earlier parameters, and not at all without
       instances), an input by name. Each is checked against its declared
       type there, before any node is built. *)
    let params = Array.of_list (L.entry_def lprog).L.lparams in
    let nparams = Array.length params in
    let is_weight = lprog.L.is_weight and types = lprog.L.param_types in
    let n_inputs = Array.fold_left (fun n w -> if w then n else n + 1) 0 is_weight in
    let weight_args = Array.make nparams Vnil in
    let tensors = ref [] in
    List.iter
      (fun inputs ->
        for k = 0 to nparams - 1 do
          let name = params.(k) in
          if is_weight.(k) then begin
            if weight_args.(k) == Vnil then begin
              let h = Runtime.weight rt name in
              check_weight name types.(k) h;
              weight_args.(k) <- Vtensor h
            end
          end
          else
            match List.assoc_opt name inputs with
            | Some hv ->
              check_hval name types.(k) types.(k) hv;
              tensors := hval_tensors !tensors hv
            | None -> fail "missing input %S for an instance" name
        done;
        if List.compare_length_with inputs n_inputs > 0 then
          reject_extra_input params is_weight inputs)
      instances;
    (* Upload every instance's input tensors in that order (batched into
       one transfer for ACROBAT, one call per tensor for the dynamic
       baselines), and hand each parameter its handles in the same order. *)
    let handles =
      ref (Runtime.upload_inputs rt ~batched:policy.Policy.batched_io (List.rev !tensors))
    in
    let next_handle () =
      match !handles with
      | h :: rest ->
        handles := rest;
        h
      | [] -> fail "input handle underflow"
    in
    let arg inputs k =
      if is_weight.(k) then weight_args.(k)
      else hval_to_value next_handle (List.assoc params.(k) inputs)
    in
    let instance_args = List.map (fun inputs -> List.init nparams (arg inputs)) instances in
    (* Execute. *)
    let outputs = Array.make n_instances Vnil in
    let run i args = outputs.(i) <- run_main ~instance:i args in
    if fibers then
      ignore
        (Fiber.run ~on_stall:(fun () -> Runtime.flush rt)
           (List.mapi (fun i args () -> run i args) instance_args))
    else List.iteri run instance_args;
    (* Final flush and download of results, which leave the run's store. *)
    Runtime.flush rt;
    let out_handles = Array.fold_left Value.handles [] outputs in
    List.iter
      (fun h -> if not (handle_ready h) then fail "output handle still pending after final flush")
      out_handles;
    Runtime.download rt ~batched:true out_handles;
    let export = Store.exporter () in
    let latency_ms = (Profiler.total_us (Device.profiler device) -. start_us) /. 1000.0 in
    {
      outputs = Array.fold_right (fun v acc -> Value.map_handles export v :: acc) outputs [];
      stats =
        {
          latency_ms;
          profiler = Device.profiler device;
          flushes = Runtime.flush_count rt;
        };
      profile = Runtime.profile rt;
      per_instance_ms = Array.make n_instances latency_ms;
    }
  in
  match mode with
  | Aot_mode ->
    let st =
      match staged with
      | Some st when st.Aot.lprog == lprog && st.Aot.fibers = fibers -> st
      | Some _ -> invalid_arg "Driver.run_batch: [staged] was staged from another program"
      | None -> stage lprog
    in
    Aot.with_runtime st ~policy rt (fun () -> run (Aot.run_main st))
  | Vm_mode -> run (Vm.run_main (Vm.create ~rt ~policy ~fibers lprog))

(** Per-instance result fingerprints, in instance order. Meaningful on
    [compute_values] runs (accounting-only outputs digest shapes only). *)
let fingerprints (r : result) : int64 array =
  Array.of_list (List.map Fingerprint.of_value r.outputs)

