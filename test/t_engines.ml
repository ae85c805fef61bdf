(** Cross-engine tests: numerical agreement between ACROBAT (AOT and VM),
    DyNet (both schedulers) and PyTorch on every model; determinism;
    framework-behaviour differences (batching, constants, gathers). *)

open Acrobat
open T_util
module P = Profiler

let floats = Alcotest.(list (float 1e-9))

let run_values ?(batch = 4) ~framework ?mode id =
  let model = Models.tiny id in
  let compiled = compile ~framework ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch ~seed:3 in
  let r =
    match mode with
    | None -> run ~compute_values:true compiled ~weights ~instances ()
    | Some mode ->
      Driver.run ~compute_values:true ~mode ~policy:(Frameworks.policy framework)
        ~quality:compiled.quality ~lprog:compiled.lprog ~weights ~instances ()
  in
  output_values r

(* DRNN is excluded from cross-engine agreement: ACROBAT's fibers change the
   order pseudo-random decisions are drawn in, as the paper notes in §E.1. *)
let agreement_ids =
  [ "rnn"; "treelstm"; "mvrnn"; "birnn"; "nestedrnn"; "berxit"; "stackrnn"; "beamsearch"; "moe" ]

let test_engines_agree id () =
  let reference = run_values ~framework:acrobat_kind id in
  check_true "produced outputs" (reference <> []);
  Alcotest.check floats "vm = aot" reference (run_values ~framework:acrobat_kind ~mode:Driver.Vm_mode id);
  Alcotest.check floats "dynet-agenda = acrobat" reference (run_values ~framework:dynet_kind id);
  Alcotest.check floats "dynet-depth = acrobat" reference
    (run_values ~framework:dynet_depth_kind id);
  Alcotest.check floats "pytorch = acrobat" reference (run_values ~framework:Frameworks.Pytorch id)

let test_drnn_dynet_matches_pytorch () =
  (* Without forked fibers the decision order is sequential and shared. *)
  Alcotest.check floats "dynet = pytorch on drnn"
    (run_values ~framework:dynet_kind "drnn")
    (run_values ~framework:Frameworks.Pytorch "drnn")

let test_run_deterministic () =
  List.iter
    (fun id ->
      Alcotest.check floats (id ^ " deterministic")
        (run_values ~framework:acrobat_kind id)
        (run_values ~framework:acrobat_kind id))
    [ "treelstm"; "drnn"; "stackrnn" ]

let test_ablation_preserves_semantics () =
  (* Every optimization combination computes the same values. *)
  let id = "treelstm" in
  let reference = run_values ~framework:acrobat_kind id in
  List.iter
    (fun (label, config) ->
      Alcotest.check floats (label ^ " preserves values") reference
        (run_values ~framework:(Frameworks.Acrobat config) id))
    [
      "no-fusion", { Config.acrobat with Config.kernel_fusion = false; horizontal_fusion = false };
      "no-coarsening", { Config.acrobat with Config.grain_coarsening = false };
      "runtime-depth", { Config.acrobat with Config.scheduler = Config.Runtime_depth };
      "agenda", { Config.acrobat with Config.scheduler = Config.Agenda };
      "no-phases", { Config.acrobat with Config.program_phases = false };
      "no-ghosts", { Config.acrobat with Config.ghost_ops = false };
      "no-gather-fusion", { Config.acrobat with Config.gather_fusion = false };
      "no-hoisting", { Config.acrobat with Config.hoisting = false };
      "no-context", { Config.acrobat with Config.context_sensitive = false };
      "no-reuse", { Config.acrobat with Config.parameter_reuse = false; hoisting = false };
      "no-constants",
      { Config.acrobat with Config.constant_reuse = false; hoisting = false };
    ]

let stats ?(batch = 8) ~framework id =
  let model = Models.tiny id in
  let compiled = compile ~framework ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch ~seed:3 in
  (run compiled ~weights ~instances ()).Driver.stats

(* --- Result fingerprints across engines (the audit layer's detector) --- *)

let int64s = Alcotest.(list int64)

let run_fps ?(batch = 4) ~framework ?mode id =
  let model = Models.tiny id in
  let compiled = compile ~framework ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch ~seed:3 in
  let r =
    match mode with
    | None -> run ~compute_values:true compiled ~weights ~instances ()
    | Some mode ->
      Driver.run ~compute_values:true ~mode ~policy:(Frameworks.policy framework)
        ~quality:compiled.quality ~lprog:compiled.lprog ~weights ~instances ()
  in
  Array.to_list (Driver.fingerprints r)

(* The property the whole audit path rests on: the fingerprint of a request
   depends only on its output values, so every engine — batching the batch
   completely differently — digests identical fingerprints. A reference
   re-execution on any engine is therefore a valid audit oracle. *)
let test_fingerprints_cross_engine id () =
  let reference = run_fps ~framework:acrobat_kind id in
  check_true "fingerprints are non-degenerate"
    (List.exists (fun fp -> fp <> 0L) reference);
  Alcotest.check int64s "vm = aot" reference
    (run_fps ~framework:acrobat_kind ~mode:Driver.Vm_mode id);
  Alcotest.check int64s "dynet-agenda = acrobat" reference
    (run_fps ~framework:dynet_kind id);
  Alcotest.check int64s "dynet-depth = acrobat" reference
    (run_fps ~framework:dynet_depth_kind id);
  Alcotest.check int64s "pytorch = acrobat" reference
    (run_fps ~framework:Frameworks.Pytorch id)

(* Constant tensors and kernels are keyed on a constant's exact bits and
   on the shapes of constant and random tensors, so none of these programs
   shares one tensor or kernel between [%a] and [%b]. *)
let test_constant_keys_exact () =
  let run_src framework src =
    let compiled = compile ~framework ~inputs:[] src in
    run ~compute_values:true compiled ~weights:[] ~instances:[ [] ] ()
  in
  let frameworks = [ acrobat_kind; Frameworks.Pytorch; dynet_kind ] in
  let close =
    {|
def @main() -> Tensor[(1, 4)] {
  let %a = const((1, 4), 1.0000001);
  let %b = const((1, 4), 1.0000003);
  (%a - %b) * const((1, 4), 10000000.0)
}
|}
  in
  let reference = run_src acrobat_kind close in
  Alcotest.(check (list (float 1e-6))) "(a - b) * 1e7" [ -2.0; -2.0; -2.0; -2.0 ]
    (output_values reference);
  List.iter
    (fun framework ->
      Alcotest.check int64s (Frameworks.name framework ^ " = acrobat")
        (Array.to_list (Driver.fingerprints reference))
        (Array.to_list (Driver.fingerprints (run_src framework close))))
    frameworks;
  let shaped (name, tensor) =
    ( name,
      Fmt.str
        {|
def @main() -> Tensor[(1, 4)] {
  let %%a = %s;
  let %%s = sigmoid(%%a);
  let %%b = %s;
  %%b
}
|}
        (tensor "(2, 4)") (tensor "(1, 4)") )
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun framework ->
          let r = run_src framework src in
          Alcotest.(check (list (list int)))
            (Fmt.str "%s under %s: (1, 4)" name (Frameworks.name framework))
            [ [ 1; 4 ] ]
            (List.map Value.handle_shape (List.concat_map (Value.handles []) r.Driver.outputs)))
        frameworks)
    (List.map shaped
       [ "const", (fun s -> "const(" ^ s ^ ", 3.0)"); "random", (fun s -> "random(" ^ s ^ ")") ])

(* The DyNet signature builds on the plan's base string; its extensions
   are pinned so batching decisions never drift. *)
let test_dynet_signatures_pinned () =
  let reg = Kernel.registry () in
  let kernel name op =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b op [ Kernel.Arg 0; Kernel.Arg 1 ] in
    Kernel.finish reg b ~name ~nargs:2 ~roles:[| Kernel.Batched; Kernel.Batched |]
      ~shared_binds:[] ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  let add = kernel "add" Ir.Op.Add and matmul = kernel "matmul" Ir.Op.Matmul in
  let mat addr shape = Value.Hmat { tensor = None; addr; shape } in
  let signature k args = (Kernel.plan k (Array.map Value.handle_shape args)).signature in
  let sig_of = Policy.dynet_sig () in
  let dynet k args = sig_of ~base:(signature k args) k args in
  let row = [| mat 0 [ 1; 4 ]; mat 8 [ 1; 4 ] |] in
  Alcotest.(check string) "plain" "k0|(1, 4);(1, 4)" (dynet add row);
  Alcotest.(check string) "matmul keyed on the weight's address" "k1|(1, 4);(4, 4)|wt=a42"
    (dynet matmul [| mat 0 [ 1; 4 ]; mat 42 [ 4; 4 ] |]);
  let device = Device.create () in
  let policy =
    { Acrobat_runtime.Executor.gather_fusion = true; quality = (fun _ -> 0.8);
      compute_values = false; detect_dynamic_sharing = true }
  in
  let rt =
    Acrobat_runtime.Runtime.create ~device ~scheduler:Config.Agenda ~policy ~seed:1 ~instances:1
  in
  let plan = Acrobat_runtime.Runtime.plan rt add row in
  let pending =
    Acrobat_runtime.Runtime.invoke rt ~plan ~args:row ~instance:0 ~phase:0 ~depth:0
      ~sig_key:plan.signature
  in
  Alcotest.(check string) "matmul keyed on a pending node's slot" "k1|(1, 1);(1, 4)|wt=n0.0"
    (dynet matmul [| mat 0 [ 1; 1 ]; pending.(0) |]);
  let argmax =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b Ir.Op.Argmax [ Kernel.Arg 0 ] in
    Kernel.finish reg b ~name:"argmax" ~nargs:1 ~roles:[| Kernel.Batched |] ~shared_binds:[]
      ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  let x = [| mat 0 [ 1; 4 ] |] in
  Alcotest.(check (list string)) "unbatchable ops get unique signatures"
    [ "k2|(1, 4)|u1"; "k2|(1, 4)|u2" ]
    (List.map (fun _ -> dynet argmax x) [ 1; 2 ])

let test_fingerprint_batch_invariant () =
  (* Batched and unbatched execution of the same request digest the same
     fingerprint when decision streams are keyed by stable request ids —
     the equivalence that lets a sampled unbatched re-execution detect
     batched-path corruption, and ACROBAT's value-preservation claim in
     checksum form. *)
  let model = Models.tiny "treelstm" in
  let compiled = compile ~framework:acrobat_kind ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:4 ~seed:3 in
  let keys = [| 10; 11; 12; 13 |] in
  let fps ~instance_keys instances =
    Driver.fingerprints
      (run_batch ~compute_values:true ~seed:7 ~instance_keys compiled ~weights ~instances ())
  in
  let batched = fps ~instance_keys:keys instances in
  List.iteri
    (fun i inst ->
      Alcotest.(check int64)
        (Fmt.str "instance %d: unbatched = batched" i)
        batched.(i)
        (fps ~instance_keys:[| keys.(i) |] [ inst ]).(0))
    instances;
  (* Re-batching a permuted subset leaves each member's fingerprint
     untouched: the digest never depends on batch composition. *)
  let sub = fps ~instance_keys:[| keys.(2); keys.(0) |]
      [ List.nth instances 2; List.nth instances 0 ] in
  Alcotest.(check int64) "permuted member 2" batched.(2) sub.(0);
  Alcotest.(check int64) "permuted member 0" batched.(0) sub.(1)

let test_acrobat_batches_better () =
  List.iter
    (fun id ->
      let ab = stats ~framework:acrobat_kind id in
      let dy = stats ~framework:dynet_kind id in
      check_true (id ^ ": fewer nodes") (ab.Driver.profiler.P.nodes_created <= dy.Driver.profiler.P.nodes_created);
      check_true (id ^ ": fewer batches")
        (ab.Driver.profiler.P.batches_executed < dy.Driver.profiler.P.batches_executed);
      check_true (id ^ ": less scheduling time")
        (P.time_us ab.Driver.profiler P.Scheduling < P.time_us dy.Driver.profiler P.Scheduling))
    [ "treelstm"; "rnn"; "birnn" ]

let test_dynet_mvrnn_unbatched_matmuls () =
  (* DyNet's matmul heuristic forces MV-RNN's activation x activation
     products to run one-by-one (§E.4); DN++ fixes it. *)
  let dn = stats ~framework:dynet_kind "mvrnn" in
  let dnpp =
    stats ~framework:(Frameworks.Dynet { improved = true; scheduler = Config.Agenda }) "mvrnn"
  in
  check_true "DN++ reduces unbatched ops"
    (dnpp.Driver.profiler.P.unbatched_ops < dn.Driver.profiler.P.unbatched_ops);
  check_true "DN++ faster" (dnpp.Driver.latency_ms < dn.Driver.latency_ms)

let test_acrobat_batched_transfers () =
  let ab = stats ~framework:acrobat_kind "rnn" in
  let dy = stats ~framework:dynet_kind "rnn" in
  check_true "acrobat: few memcpys" (ab.Driver.profiler.P.memcpy_calls <= 3);
  check_true "dynet: per-tensor memcpys" (dy.Driver.profiler.P.memcpy_calls > 8)

let test_fibers_exploit_drnn_parallelism () =
  let with_fibers = stats ~framework:acrobat_kind "drnn" in
  let without =
    stats ~framework:(Frameworks.Acrobat { Config.acrobat with Config.fibers = false }) "drnn"
  in
  check_true "fibers batch concurrent subtrees"
    (with_fibers.Driver.profiler.P.batches_executed < without.Driver.profiler.P.batches_executed);
  check_true "fibers reduce latency" (with_fibers.Driver.latency_ms < without.Driver.latency_ms)

let test_gather_fusion_removes_gathers () =
  let fused = stats ~framework:acrobat_kind "treelstm" in
  check_int "no explicit gathers with fusion" 0 fused.Driver.profiler.P.gather_kernels;
  let unfused =
    stats ~framework:(Frameworks.Acrobat { Config.acrobat with Config.gather_fusion = false })
      "treelstm"
  in
  check_true "explicit gathers otherwise" (unfused.Driver.profiler.P.gather_kernels > 0)

let test_tdc_flushes () =
  (* Tensor-dependent control flow forces intermediate flushes; static
     models flush once. *)
  let tree = stats ~framework:acrobat_kind "treelstm" in
  check_int "non-TDC model flushes once" 1 tree.Driver.flushes;
  let stack = stats ~framework:acrobat_kind "stackrnn" in
  check_true "TDC model flushes repeatedly" (stack.Driver.flushes > 5)

let test_vm_slower_than_aot () =
  let model = Models.tiny "rnn" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:8 ~seed:3 in
  let time mode =
    (Driver.run ~mode ~policy:Policy.acrobat_policy ~quality:compiled.quality
       ~lprog:compiled.lprog ~weights ~instances ())
      .Driver.stats.latency_ms
  in
  check_true "VM overhead" (time Driver.Vm_mode > 1.5 *. time Driver.Aot_mode)

let test_tune_improves_quality () =
  let model = Models.tiny "rnn" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let calibration = gen_batch model ~batch:4 ~seed:9 in
  let tuned = tune compiled ~weights ~calibration in
  let instances = gen_batch model ~batch:8 ~seed:3 in
  let t c = (run c ~weights ~instances ()).Driver.stats.latency_ms in
  check_true "tuned kernels are faster" (t tuned < t compiled)

let suite =
  List.map
    (fun id ->
      Alcotest.test_case ("agreement: " ^ id) `Quick (test_engines_agree id))
    agreement_ids
  @ List.map
      (fun id ->
        Alcotest.test_case ("fingerprints: " ^ id) `Quick
          (test_fingerprints_cross_engine id))
      agreement_ids
  @ [
      Alcotest.test_case "agreement: drnn dynet=pytorch" `Quick test_drnn_dynet_matches_pytorch;
      Alcotest.test_case "determinism" `Quick test_run_deterministic;
      Alcotest.test_case "fingerprint batch invariance" `Quick
        test_fingerprint_batch_invariant;
      Alcotest.test_case "constant keys are exact" `Quick test_constant_keys_exact;
      Alcotest.test_case "dynet signatures pinned" `Quick test_dynet_signatures_pinned;
      Alcotest.test_case "ablations preserve semantics" `Quick test_ablation_preserves_semantics;
      Alcotest.test_case "acrobat batches better" `Quick test_acrobat_batches_better;
      Alcotest.test_case "dynet mvrnn heuristic" `Quick test_dynet_mvrnn_unbatched_matmuls;
      Alcotest.test_case "batched transfers" `Quick test_acrobat_batched_transfers;
      Alcotest.test_case "fibers exploit DRNN parallelism" `Quick test_fibers_exploit_drnn_parallelism;
      Alcotest.test_case "gather fusion" `Quick test_gather_fusion_removes_gathers;
      Alcotest.test_case "TDC flush pattern" `Quick test_tdc_flushes;
      Alcotest.test_case "VM slower than AOT" `Quick test_vm_slower_than_aot;
      Alcotest.test_case "auto-scheduling helps" `Quick test_tune_improves_quality;
    ]
