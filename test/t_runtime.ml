(** Tests for the runtime: fibers, DFG construction, schedulers (including
    topological-correctness properties on random DFGs), and the batch
    executor. *)

open Acrobat
open T_util
module Fiber = Acrobat_runtime.Fiber
module Scheduler = Acrobat_runtime.Scheduler
module Runtime = Acrobat_runtime.Runtime
module Executor = Acrobat_runtime.Executor
module Op = Ir.Op

(* --- Fibers --- *)

let test_fiber_run_to_completion () =
  let log = ref [] in
  let task name () = log := name :: !log in
  ignore (Fiber.run ~on_stall:(fun () -> Alcotest.fail "no stall expected")
            [ task "a"; task "b"; task "c" ]);
  Alcotest.(check (list string)) "all ran in order" [ "a"; "b"; "c" ] (List.rev !log)

let test_fiber_suspend_resume () =
  let log = ref [] in
  let stalls = ref 0 in
  let task name () =
    log := (name ^ "1") :: !log;
    Fiber.suspend ();
    log := (name ^ "2") :: !log
  in
  ignore (Fiber.run ~on_stall:(fun () -> incr stalls) [ task "a"; task "b" ]);
  check_int "one stall" 1 !stalls;
  Alcotest.(check (list string)) "phases interleave" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_fiber_fork_join () =
  let result = ref Value.Vnil in
  let task () =
    let vs =
      Fiber.fork [| (fun () -> Value.Vint 1); (fun () -> Value.Vint 2); (fun () -> Value.Vint 3) |]
    in
    result := Value.Vtuple vs
  in
  ignore (Fiber.run ~on_stall:(fun () -> ()) [ task ]);
  match !result with
  | Value.Vtuple [| Value.Vint 1; Value.Vint 2; Value.Vint 3 |] -> ()
  | _ -> Alcotest.fail "wrong fork results"

let test_fiber_nested_fork () =
  let total = ref 0 in
  let rec spawn depth () =
    if depth = 0 then Value.Vint 1
    else begin
      let vs = Fiber.fork [| spawn (depth - 1); spawn (depth - 1) |] in
      Array.iter (fun v -> total := !total + Value.to_int v) vs;
      Value.Vint 0
    end
  in
  ignore (Fiber.run ~on_stall:(fun () -> ()) [ (fun () -> ignore (spawn 4 ())) ]);
  check_int "all leaves counted" 16 !total

let test_fiber_fork_with_suspension () =
  let stalls = ref 0 in
  let task () =
    let vs =
      Fiber.fork
        [|
          (fun () ->
            Fiber.suspend ();
            Value.Vint 10);
          (fun () -> Value.Vint 20);
        |]
    in
    check_int "both children done" 30 (Value.to_int vs.(0) + Value.to_int vs.(1))
  in
  ignore (Fiber.run ~on_stall:(fun () -> incr stalls) [ task ]);
  check_int "stalled once for the blocked child" 1 !stalls

let test_fiber_deadlock_detection () =
  (* A stall callback that makes no progress must be detected. *)
  let task () = Fiber.suspend () in
  match Fiber.run ~on_stall:(fun () -> ()) [ task ] with
  | exception Failure msg -> check_true "deadlock reported" (T_util.contains msg "deadlock")
  | _ ->
    (* The fiber is resumed after the stall; a single suspend terminates. *)
    ()

(* --- Schedulers on synthetic DFGs --- *)

let reg = Kernel.registry ()

(* Append a node the way the engines do: look up the plan, then invoke. *)
let invoke rt ~kernel ~args = Runtime.invoke rt ~plan:(Runtime.plan rt kernel args) ~args

let unit_kernel =
  let b = Kernel.builder () in
  let t = Kernel.add_instr b Op.Sigmoid [ Kernel.Arg 0 ] in
  Kernel.finish reg b ~name:"sig" ~nargs:1 ~roles:[| Kernel.Batched |] ~shared_binds:[]
    ~out_tmps:[| t |] ~fusion:true ~horizontal:false

let source_kernel =
  let b = Kernel.builder () in
  let t = Kernel.add_instr b (Op.Constant { shape = [ 1; 2 ]; value = 0.5 }) [] in
  Kernel.finish reg b ~name:"src" ~nargs:0 ~roles:[||] ~shared_binds:[] ~out_tmps:[| t |]
    ~fusion:true ~horizontal:false

(* Build a random DAG of [n] nodes through a Runtime; returns the runtime and
   its nodes in insertion order. Dependencies only point backwards. *)
let build_random_dfg ~scheduler ~seed n =
  let device = Device.create () in
  let policy =
    {
      Executor.gather_fusion = true;
      quality = (fun _ -> 0.8);
      compute_values = false;
      detect_dynamic_sharing = true;
    }
  in
  let rt = Runtime.create ~device ~scheduler ~policy ~seed ~instances:1 in
  let rng = Rng.create seed in
  let handles = ref [] in
  for i = 0 to n - 1 do
    let outs =
      if !handles = [] || Rng.bool rng then
        invoke rt ~kernel:source_kernel ~args:[||] ~instance:0 ~phase:0 ~depth:0
          ~sig_key:"src"
      else begin
        let prev = List.nth !handles (Rng.int rng (List.length !handles)) in
        invoke rt ~kernel:unit_kernel ~args:[| prev |] ~instance:0 ~phase:0
          ~depth:(i + 1) ~sig_key:"sig"
      end
    in
    handles := outs.(0) :: !handles
  done;
  rt, !handles

let prop_scheduler_executes_everything scheduler name =
  qtest ~count:30 ("scheduler: " ^ name ^ " executes all nodes (topologically)")
    QCheck2.Gen.(pair (int_range 1 60) int)
    (fun (n, seed) ->
      let rt, handles = build_random_dfg ~scheduler ~seed n in
      Runtime.flush rt;
      (* exec_batch raises if any dependency is violated; afterwards every
         handle must be materialized. *)
      List.for_all Value.handle_ready handles)

let test_inline_depth_batches_by_depth () =
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:4 in
  (* 4 instances x same kernel at same depth -> one batch. *)
  for i = 0 to 3 do
    ignore
      (invoke rt ~kernel:source_kernel ~args:[||] ~instance:i ~phase:0 ~depth:0
         ~sig_key:"src")
  done;
  Runtime.flush rt;
  let p = Device.profiler device in
  check_int "one batch" 1 p.Profiler.batches_executed;
  check_int "one launch" 1 p.Profiler.kernel_calls

let test_phase_ordering () =
  (* Nodes of a later phase never execute before nodes of an earlier phase
     they depend on, even at smaller depths. *)
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:1 in
  let a =
    invoke rt ~kernel:source_kernel ~args:[||] ~instance:0 ~phase:0 ~depth:9
      ~sig_key:"src"
  in
  let b =
    invoke rt ~kernel:unit_kernel ~args:[| a.(0) |] ~instance:0 ~phase:1 ~depth:0
      ~sig_key:"sig"
  in
  Runtime.flush rt;
  check_true "dependent executed" (Value.handle_ready b.(0))

let test_executor_gathers_on_scattered () =
  (* Two producer batches leave outputs in separate slabs; a consumer batch
     over both must gather (fusion off) or mark scattered (fusion on). *)
  let run ~gather_fusion =
    let device = Device.create () in
    let policy =
      { Executor.gather_fusion; quality = (fun _ -> 0.8); compute_values = false;
        detect_dynamic_sharing = false }
    in
    let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:2 in
    (* Three producer batches allocate three consecutive slabs; consuming
       slabs 0 and 2 leaves a hole, so the inputs are scattered. *)
    let src ~instance ~depth sig_key =
      (invoke rt ~kernel:source_kernel ~args:[||] ~instance ~phase:0 ~depth ~sig_key).(0)
    in
    let a = src ~instance:0 ~depth:0 "s0" in
    let _skip = src ~instance:0 ~depth:1 "s1" in
    let b = src ~instance:1 ~depth:2 "s2" in
    let consume ~instance h =
      ignore (invoke rt ~kernel:unit_kernel ~args:[| h |] ~instance ~phase:0 ~depth:3 ~sig_key:"c")
    in
    consume ~instance:0 a;
    consume ~instance:1 b;
    Runtime.flush rt;
    Device.profiler device
  in
  let explicit = run ~gather_fusion:false in
  check_int "explicit gather issued" 1 explicit.Profiler.gather_kernels;
  let fused = run ~gather_fusion:true in
  check_int "no gather kernel when fused" 0 fused.Profiler.gather_kernels;
  check_true "fused run cheaper in kernel calls"
    (fused.Profiler.kernel_calls < explicit.Profiler.kernel_calls)

let test_runtime_constants_memoized () =
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = true;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:1 in
  let h1 = Runtime.const_handle rt ~shape:[ 1; 4 ] ~value:0.0 in
  let h2 = Runtime.const_handle rt ~shape:[ 1; 4 ] ~value:0.0 in
  let h3 = Runtime.const_handle rt ~shape:[ 1; 4 ] ~value:1.0 in
  check_true "same constant shared" (h1 == h2);
  check_true "different value distinct" (h1 != h3)

let test_runtime_decisions_deterministic () =
  let mk () =
    let device = Device.create () in
    let policy =
      { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
        detect_dynamic_sharing = false }
    in
    Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:9 ~instances:2
  in
  let a = mk () and b = mk () in
  for _ = 1 to 20 do
    check_int "same decision stream"
      (Runtime.decision_int a ~instance:0 5)
      (Runtime.decision_int b ~instance:0 5)
  done;
  (* Instance streams are independent. *)
  let c = mk () in
  let xs = List.init 10 (fun _ -> Runtime.decision_int c ~instance:0 1000) in
  let ys = List.init 10 (fun _ -> Runtime.decision_int c ~instance:1 1000) in
  check_true "instances differ" (xs <> ys)

let test_upload_accounting () =
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:1 in
  let tensors = List.init 10 (fun _ -> Tensor.zeros [ 1; 8 ]) in
  ignore (Runtime.upload_inputs rt ~batched:true tensors);
  check_int "one transfer when batched" 1 (Device.profiler device).Profiler.memcpy_calls;
  ignore (Runtime.upload_inputs rt ~batched:false tensors);
  check_int "per-tensor otherwise" 11 (Device.profiler device).Profiler.memcpy_calls

(* --- Node plans --- *)

(* Reference for [Kernel.plan]'s single pass: output shapes, per-group
   FLOPs and per-group internal traffic, each from its own walk over the
   instructions, summed in the same order. *)
let reference_plan (k : Kernel.t) (arg_shapes : Shape.t array) =
  let tmps = Kernel.tmp_shapes k arg_shapes in
  let shape_of = function Kernel.Arg i -> arg_shapes.(i) | Kernel.Tmp j -> tmps.(j) in
  let group_of = Hashtbl.create 16 in
  List.iteri
    (fun gi (g : Kernel.group) ->
      List.iter (fun (i : Kernel.instr) -> Hashtbl.replace group_of i.dst gi) g.instrs)
    k.groups;
  let per_group f =
    List.mapi
      (fun gi (g : Kernel.group) -> List.fold_left (fun acc i -> acc +. f gi i) 0.0 g.instrs)
      k.groups
  in
  let flops = per_group (fun _ (i : Kernel.instr) -> Op.flops i.op (List.map shape_of i.srcs)) in
  let bytes =
    per_group (fun gi (i : Kernel.instr) ->
        let reads =
          List.fold_left
            (fun acc src ->
              match src with
              | Kernel.Tmp j when Hashtbl.find group_of j <> gi -> acc + Shape.numel tmps.(j)
              | Kernel.Arg _ | Kernel.Tmp _ -> acc)
            0 i.srcs
        in
        4.0 *. float_of_int (reads + Shape.numel tmps.(i.dst)))
  in
  Array.map (fun i -> tmps.(i)) k.out_tmps, flops, bytes

(* Every node a catalog model's batch builds is reachable from the
   arguments of a later node or from the outputs — except nodes read only
   as scalars, which a tensor-dependent decision consumes. *)
let test_plans_match_fresh_computation () =
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let compiled = compile ~inputs:model.Model.inputs model.Model.source in
      let seen = Hashtbl.create 256 in
      let rec visit = function
        | Value.Hnode (n, _) when not (Hashtbl.mem seen n.Value.id) ->
          Hashtbl.replace seen n.Value.id n;
          Array.iter visit n.Value.args
        | Value.Hnode _ | Value.Hmat _ -> ()
      in
      let policy =
        {
          Policy.acrobat_policy with
          sig_of =
            (fun ~base k args ->
              Array.iter visit args;
              Policy.acrobat_policy.sig_of ~base k args);
        }
      in
      let r =
        Driver.run_batch ~mode:Driver.Aot_mode ~policy ~quality:compiled.quality
          ~lprog:compiled.lprog ~weights:(model.Model.gen_weights 1)
          ~instances:(gen_batch model ~batch:4 ~seed:3) ()
      in
      List.iter (fun v -> List.iter visit (Value.handles [] v)) r.Driver.outputs;
      check_true (id ^ ": nodes seen") (Hashtbl.length seen > 0);
      Hashtbl.iter
        (fun _ (n : Value.node) ->
          let shapes = Array.map Value.handle_shape n.args in
          let fresh = Kernel.plan n.plan.kernel shapes in
          let outs, flops, bytes = reference_plan n.plan.kernel shapes in
          let what = Fmt.str "%s node %d" id n.id in
          let same field planned fresh reference =
            check_true (what ^ ": " ^ field) (planned = fresh && fresh = reference)
          in
          same "out_shapes" n.plan.out_shapes fresh.out_shapes outs;
          same "group_flops" n.plan.group_flops fresh.group_flops flops;
          same "group_bytes" n.plan.group_bytes fresh.group_bytes bytes;
          check_true (what ^ ": flops") (n.plan.flops = List.fold_left ( +. ) 0.0 flops);
          Alcotest.(check string) (what ^ ": sig_key") fresh.signature n.sig_key)
        seen)
    Models.tiny_ids

let accounting_runtime ~instances =
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth ~policy ~seed:1
    ~instances

let input shape = Value.Hmat { tensor = None; addr = 0; shape }

let test_plans_per_shape () =
  let rt = accounting_runtime ~instances:2 in
  let narrow = [| input [ 1; 2 ] |] and wide = [| input [ 1; 3 ] |] in
  let p_narrow = Runtime.plan rt unit_kernel narrow and p_wide = Runtime.plan rt unit_kernel wide in
  check_true "one plan per shape" (p_narrow != p_wide);
  check_true "plans are shared" (Runtime.plan rt unit_kernel [| input [ 1; 2 ] |] == p_narrow);
  check_true "distinct signatures" (p_narrow.signature <> p_wide.signature);
  let outs =
    List.concat_map
      (fun instance ->
        List.map
          (fun (plan, args) ->
            (Runtime.invoke rt ~plan ~args ~instance ~phase:0 ~depth:0 ~sig_key:plan.signature).(0))
          [ p_narrow, narrow; p_wide, wide ])
      [ 0; 1 ]
  in
  Runtime.flush rt;
  check_int "one batch per shape" 2 (Runtime.profiler rt).Profiler.batches_executed;
  Alcotest.(check (list (list int))) "output shapes follow the plan"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 2 ]; [ 1; 3 ] ]
    (List.map Value.handle_shape outs)

let test_plan_shape_error_every_time () =
  let rt = accounting_runtime ~instances:1 in
  let slice =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b (Op.Slice { lo = 0; hi = 4 }) [ Kernel.Arg 0 ] in
    Kernel.finish reg b ~name:"slice" ~nargs:1 ~roles:[| Kernel.Batched |] ~shared_binds:[]
      ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  let slice_of shape =
    invoke rt ~kernel:slice ~args:[| input shape |] ~instance:0 ~phase:0 ~depth:0 ~sig_key:"s"
  in
  for attempt = 1 to 3 do
    match slice_of [ 1; 2 ] with
    | _ -> Alcotest.failf "attempt %d: expected a shape error" attempt
    | exception Op.Shape_error _ -> ()
  done;
  check_true "nothing appended" (not (Runtime.has_pending rt));
  let outs = slice_of [ 1; 8 ] in
  Alcotest.(check (list int)) "a fitting shape still plans" [ 1; 4 ] (Value.handle_shape outs.(0))

(* --- Result fingerprints (the integrity layer's detector) --- *)

module Fingerprint = Acrobat_runtime.Fingerprint

let prop_fingerprint_detects_perturbation =
  qtest "fingerprint: any single-element perturbation changes the digest"
    QCheck2.Gen.(triple (list_size (int_range 1 3) (int_range 1 5)) int (int_range 0 4095))
    (fun (shape, seed, salt) ->
      let x = Tensor.random (Rng.create seed) shape in
      let data = Tensor.data x in
      let i = salt mod Array.length data in
      let before = Fingerprint.of_tensor x in
      let orig = data.(i) in
      (* A bit-level flip in one element — the smallest silent corruption. *)
      data.(i) <- orig +. Float.max 1e-6 (Float.abs orig *. 1e-6);
      let changed = not (Fingerprint.equal before (Fingerprint.of_tensor x)) in
      data.(i) <- orig;
      changed && Fingerprint.equal before (Fingerprint.of_tensor x))

let prop_fingerprint_shape_sensitive =
  qtest "fingerprint: same data, different shape, different digest"
    QCheck2.Gen.(pair (int_range 1 4) int)
    (fun (n, seed) ->
      let flat = Tensor.random (Rng.create seed) [ 2 * n ] in
      let boxed = Tensor.reshape flat [ 2; n ] in
      not (Fingerprint.equal (Fingerprint.of_tensor flat) (Fingerprint.of_tensor boxed)))

let prop_fingerprint_component_order_invariant =
  qtest "fingerprint: value components combine commutatively"
    QCheck2.Gen.(list_size (int_range 1 6) (pair (int_range 0 2) int))
    (fun comps ->
      let value (tag, n) =
        match tag with
        | 0 -> Value.Vint n
        | 1 -> Value.Vfloat (float_of_int n *. 0.125)
        | _ -> Value.Vbool (n land 1 = 0)
      in
      let vs = List.map value comps in
      let fp l = Fingerprint.of_value (Value.Vtuple (Array.of_list l)) in
      (* Materialization order must not matter: a request's digest is the
         same however the runtime traverses its outputs. *)
      Fingerprint.equal (fp vs) (fp (List.rev vs)))

let suite =
  [
    Alcotest.test_case "fiber: completion" `Quick test_fiber_run_to_completion;
    Alcotest.test_case "fiber: suspend/resume" `Quick test_fiber_suspend_resume;
    Alcotest.test_case "fiber: fork-join" `Quick test_fiber_fork_join;
    Alcotest.test_case "fiber: nested fork" `Quick test_fiber_nested_fork;
    Alcotest.test_case "fiber: fork + suspension" `Quick test_fiber_fork_with_suspension;
    Alcotest.test_case "fiber: deadlock detection" `Quick test_fiber_deadlock_detection;
    prop_scheduler_executes_everything Config.Inline_depth "inline-depth";
    prop_scheduler_executes_everything Config.Runtime_depth "runtime-depth";
    prop_scheduler_executes_everything Config.Agenda "agenda";
    Alcotest.test_case "scheduler: inline batches by depth" `Quick test_inline_depth_batches_by_depth;
    Alcotest.test_case "scheduler: phase ordering" `Quick test_phase_ordering;
    Alcotest.test_case "executor: gather behaviour" `Quick test_executor_gathers_on_scattered;
    Alcotest.test_case "runtime: constant memoization" `Quick test_runtime_constants_memoized;
    Alcotest.test_case "runtime: decision determinism" `Quick test_runtime_decisions_deterministic;
    Alcotest.test_case "runtime: upload accounting" `Quick test_upload_accounting;
    Alcotest.test_case "plans: match a fresh computation on every catalog model" `Quick
      test_plans_match_fresh_computation;
    Alcotest.test_case "plans: one per argument shape, never batched together" `Quick
      test_plans_per_shape;
    Alcotest.test_case "plans: shape errors raise on every invoke" `Quick
      test_plan_shape_error_every_time;
    prop_fingerprint_detects_perturbation;
    prop_fingerprint_shape_sensitive;
    prop_fingerprint_component_order_invariant;
  ]
