(** The traced decomposition of [Driver.run_batch] and of the serving
    executors, re-issued step by step through public functions so every
    layer is timed from outside the library.

    Each function here mirrors one library function statement for
    statement; the only additions are spans and counters. The benchmark's
    replay guard compares every result against the library's own
    ({!Acrobat.run_batch}, {!Acrobat.serve_model}, {!Acrobat.serve_cluster})
    to the bit, so drift between this copy and the library fails loudly
    instead of skewing the layer numbers. Only the paths the benchmark's
    workloads take are mirrored: the AOT engine, no integrity mode, no
    degraded model. *)

open Acrobat
module Runtime = Acrobat_runtime.Runtime
module Executor = Acrobat_runtime.Executor
module Scheduler = Acrobat_runtime.Scheduler
module Fiber = Acrobat_runtime.Fiber
module V = Acrobat_runtime.Value
module Aot = Acrobat_engines.Aot

(* [Runtime.flush], with the scheduler and the executor timed apart. *)
let flush sp (rt : Runtime.t) =
  match rt.Runtime.pending with
  | [] -> ()
  | pending ->
    Spans.with_ sp "runtime.flush" @@ fun () ->
    rt.Runtime.pending <- [];
    rt.Runtime.flushes <- rt.Runtime.flushes + 1;
    let batches =
      Spans.with_ sp "runtime.sched" (fun () ->
          Scheduler.schedule rt.Runtime.scheduler rt.Runtime.device (List.rev pending))
    in
    Spans.with_ sp "runtime.exec" (fun () ->
        List.iter
          (Executor.exec_batch rt.Runtime.device rt.Runtime.policy ~rand_for:(Runtime.rng_for rt))
          batches)

(** [Driver.run_batch] in AOT mode. Spans: [run_batch] > [runtime.setup]
    (device, runtime, weights, input upload), [engines.stage] ([Aot.create]),
    [engines.dfg] (the instances' [Aot.run_main], under [Fiber.run] for
    tensor-dependent programs; its self time is DFG construction, its
    [runtime.flush] children are the stall flushes), the final
    [runtime.flush], and [runtime.download]. *)
let run_batch sp ~item ?(compute_values = false) ?(seed = 2024) ?device ?instance_keys
    (c : compiled) ~(weights : (string * Tensor.t) list)
    ~(instances : (string * Driver.hval) list list) () : Driver.result =
  if Frameworks.mode c.framework <> Driver.Aot_mode then
    invalid_arg "Replay.run_batch: only AOT presets are mirrored";
  let lprog = c.lprog and policy = Frameworks.policy c.framework in
  Spans.with_ sp ~item "run_batch" @@ fun () ->
  let device = match device with Some d -> d | None -> Device.create () in
  let prof = Device.profiler device in
  let nodes0 = prof.Profiler.nodes_created
  and launches0 = prof.Profiler.kernel_calls
  and kbatches0 = prof.Profiler.batches_executed in
  let rt = ref None in
  Fun.protect
    ~finally:(fun () ->
      (* Counted on the way out, so failed (fault-injected) attempts count
         the work they did too. *)
      Spans.add sp "runtime.nodes" (prof.Profiler.nodes_created - nodes0);
      Spans.add sp "runtime.launches" (prof.Profiler.kernel_calls - launches0);
      Spans.add sp "runtime.kernel_batches" (prof.Profiler.batches_executed - kbatches0);
      Option.iter (fun rt -> Spans.add sp "runtime.flushes" (Runtime.flush_count rt)) !rt)
  @@ fun () ->
  let start_us, r, instance_args =
    Spans.with_ sp "runtime.setup" @@ fun () ->
    let start_us = Profiler.total_us prof in
    let exec_policy =
      {
        Executor.gather_fusion = lprog.Lowered.config.Config.gather_fusion;
        quality = c.quality;
        compute_values;
        detect_dynamic_sharing = policy.Policy.detect_dynamic_sharing;
      }
    in
    let n_instances = List.length instances in
    let r =
      Runtime.create ~device ~scheduler:lprog.Lowered.config.Config.scheduler
        ~policy:exec_policy ~seed ~instances:n_instances
    in
    rt := Some r;
    Option.iter (Runtime.set_decision_keys r ~seed) instance_keys;
    List.iter (fun (name, tensor) -> Runtime.set_weight r name tensor) weights;
    let all_tensors =
      List.concat_map
        (fun inputs ->
          List.concat_map (fun (_, hv) -> List.rev (Driver.hval_tensors [] hv)) inputs)
        instances
    in
    let handles =
      ref (Runtime.upload_inputs r ~batched:policy.Policy.batched_io all_tensors)
    in
    let next_handle () =
      match !handles with
      | h :: rest ->
        handles := rest;
        h
      | [] -> V.fail "input handle underflow"
    in
    let entry = Lowered.entry_def lprog in
    let instance_args =
      List.map
        (fun inputs ->
          List.map
            (fun pname ->
              if List.mem pname lprog.Lowered.weight_params then
                V.Vtensor (Runtime.weight r pname)
              else
                match List.assoc_opt pname inputs with
                | Some hv -> Driver.hval_to_value next_handle hv
                | None -> V.fail "missing input %S for an instance" pname)
            entry.Lowered.lparams)
        instances
    in
    start_us, r, instance_args
  in
  let n_instances = List.length instances in
  let fibers = lprog.Lowered.has_tdc && lprog.Lowered.config.Config.fibers in
  let eng = Spans.with_ sp "engines.stage" (fun () -> Aot.create ~rt:r ~policy ~fibers lprog) in
  let outputs = Array.make n_instances V.Vnil in
  Spans.with_ sp "engines.dfg" (fun () ->
      if fibers then begin
        let tasks =
          List.mapi
            (fun i args () -> outputs.(i) <- Aot.run_main eng ~instance:i args)
            instance_args
        in
        Spans.add sp "runtime.fiber_switches" (Fiber.run ~on_stall:(fun () -> flush sp r) tasks)
      end
      else
        List.iteri (fun i args -> outputs.(i) <- Aot.run_main eng ~instance:i args) instance_args);
  flush sp r;
  Spans.with_ sp "runtime.download" (fun () ->
      let out_handles = Array.fold_left V.handles [] outputs in
      List.iter
        (fun h ->
          if not (V.handle_ready h) then V.fail "output handle still pending after final flush")
        out_handles;
      Runtime.download r ~batched:true out_handles);
  let latency_ms = (Profiler.total_us prof -. start_us) /. 1000.0 in
  {
    Driver.outputs = Array.to_list outputs;
    stats = { Driver.latency_ms; profiler = prof; flushes = Runtime.flush_count r };
    profile = Runtime.profile r;
    per_instance_ms = Array.make n_instances latency_ms;
  }

(* --- Serving executors --- *)

(** {!Acrobat.batch_executor}. *)
let batch_executor sp ~item ~seed c ~weights instances : Serve.Server.exec_outcome =
  let r = run_batch sp ~item ~seed c ~weights ~instances () in
  {
    Serve.Server.ex_latency_us = r.Driver.stats.Driver.latency_ms *. 1000.0;
    ex_profiler = Some r.Driver.stats.Driver.profiler;
    ex_fingerprints = None;
    ex_corrupted = false;
  }

(** {!Acrobat.fault_executor} without integrity mode or a degraded model. *)
let fault_executor sp ~item ~seed ~(injector : Faults.t) c ~weights
    (batch : (int * (string * Driver.hval) list) list) : Serve.Server.exec_result =
  let poison = (Faults.plan injector).Faults.poison in
  match List.find_opt (fun (id, _) -> List.mem id poison) batch with
  | Some (id, _) ->
    Serve.Server.Exec_fault
      {
        ef_latency_us = 100.0;
        ef_reason = Fmt.str "poisoned request #%d" id;
        ef_transient = false;
        ef_oom = false;
        ef_reset = false;
      }
  | None -> (
    let device = Device.create ~faults:injector () in
    match run_batch sp ~item ~seed ~device c ~weights ~instances:(List.map snd batch) () with
    | r ->
      Serve.Server.Exec_ok
        {
          Serve.Server.ex_latency_us = r.Driver.stats.Driver.latency_ms *. 1000.0;
          ex_profiler = Some r.Driver.stats.Driver.profiler;
          ex_fingerprints = None;
          ex_corrupted = false;
        }
    | exception Faults.Fault { kind; launch } ->
      Serve.Server.Exec_fault
        {
          ef_latency_us = Profiler.total_us (Device.profiler device);
          ef_reason = Fmt.str "%s at launch %d" (Faults.kind_name kind) launch;
          ef_transient = true;
          ef_oom = false;
          ef_reset = kind = Faults.Device_reset;
        }
    | exception Memory.Device_oom { requested; in_use; capacity } ->
      Serve.Server.Exec_fault
        {
          ef_latency_us = Profiler.total_us (Device.profiler device);
          ef_reason =
            Fmt.str "device OOM (requested %d, in use %d / %d)" requested in_use capacity;
          ef_transient = false;
          ef_oom = true;
          ef_reset = false;
        })

(** Time each call of a serving executor as a [serve.exec] span, one item
    id per call, counting the requests handed to it. *)
let timed sp (exec : item:int -> 'a list -> Serve.Server.exec_result) =
  fun ~degraded:_ batch ->
    let item = Spans.count sp "serve.exec_calls" in
    Spans.add sp "serve.exec_calls" 1;
    Spans.add sp "serve.exec_requests" (List.length batch);
    Spans.with_ sp ~item "serve.exec" (fun () -> exec ~item batch)
