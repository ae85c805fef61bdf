(** Failure-injection tests: the runtime and evaluators must fail loudly
    and diagnosably, never silently compute garbage. *)

open Acrobat
open T_util
module Runtime = Acrobat_runtime.Runtime
module Executor = Acrobat_runtime.Executor

let expect_runtime_error fragment f =
  match f () with
  | _ -> Alcotest.failf "expected a runtime error mentioning %S" fragment
  | exception Value.Runtime_error m ->
    if not (T_util.contains m fragment) then
      Alcotest.failf "error %S does not mention %S" m fragment

let run_src ?(fibers = true) ?(batch = 2) src ~inputs ~weights ~instances =
  let config = { Config.acrobat with Config.fibers } in
  let compiled = compile ~framework:(Frameworks.Acrobat config) ~inputs src in
  ignore batch;
  run ~compute_values:true compiled ~weights ~instances ()

let tensor_input rng = [ "x", Driver.Htensor (Tensor.random rng [ 1; 4 ]) ]

let test_choice_zero_fails () =
  let src =
    "def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { \
     let %n = choice(0); sigmoid(matmul(%x, %w)) }"
  in
  let rng = Rng.create 1 in
  expect_runtime_error "choice" (fun () ->
      run_src src ~inputs:[ "x" ]
        ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
        ~instances:[ tensor_input rng ])

let test_missing_input_fails () =
  let src = "def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { matmul(%x, %w) }" in
  let rng = Rng.create 1 in
  expect_runtime_error "missing input" (fun () ->
      run_src src ~inputs:[ "x" ]
        ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
        ~instances:[ [] ])

let test_missing_weight_fails () =
  let src = "def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { matmul(%x, %w) }" in
  let rng = Rng.create 1 in
  expect_runtime_error "unknown weight" (fun () ->
      run_src src ~inputs:[ "x" ] ~weights:[] ~instances:[ tensor_input rng ])

(* @main's parameters resolve in order, instance by instance: the first
   unresolvable one names the error, and a batch without instances
   resolves none. *)
let test_parameter_errors_in_order () =
  let src =
    "def @main(%x: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] { matmul(%x, %w) }"
  in
  let rng = Rng.create 1 in
  expect_runtime_error "missing input \"x\"" (fun () ->
      run_src src ~inputs:[ "x" ] ~weights:[] ~instances:[ [] ]);
  expect_runtime_error "unknown weight \"w\"" (fun () ->
      run_src src ~inputs:[ "x" ] ~weights:[] ~instances:[ tensor_input rng; [] ]);
  let r = run_src src ~inputs:[ "x" ] ~weights:[] ~instances:[] in
  check_int "no instances, no outputs" 0 (List.length r.Driver.outputs)

let test_wrong_input_shape_fails () =
  (* Declared Tensor[(1,4)] but the caller supplies (1,5): @main's
     boundary rejects it, naming the parameter and both shapes. *)
  let src = "def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { matmul(%x, %w) }" in
  let rng = Rng.create 1 in
  let run () =
    run_src src ~inputs:[ "x" ]
      ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
      ~instances:[ [ "x", Driver.Htensor (Tensor.random rng [ 1; 5 ]) ] ]
  in
  List.iter
    (fun fragment -> expect_runtime_error fragment run)
    [ "\"x\""; "Tensor[(1, 4)]"; "(1, 5)" ]

let test_interp_match_failure () =
  (* A wildcard-less match over only Cons applied to Nil fails at runtime
     with a diagnosable error rather than looping. *)
  let src =
    {|
def @main(%w: Tensor[(4, 4)], %xs: List[Tensor[(1, 4)]]) -> Tensor[(1, 4)] {
  match (%xs) {
    Cons(%h, %t) => matmul(%h, %w)
  }
}
|}
  in
  let rng = Rng.create 1 in
  expect_runtime_error "match" (fun () ->
      run_src src ~inputs:[ "xs" ]
        ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
        ~instances:[ [ "xs", Driver.Hlist [] ] ])

let test_executor_reports_dependency_violation () =
  (* Hand-build a DFG whose recorded depths invert a dependency: the
     executor's materialization check must catch it. *)
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:1 in
  let reg = Kernel.registry () in
  let src_k =
    op_kernel reg ~name:"src" ~roles:[||] ~shared_binds:[]
      (Acrobat_ir.Op.Constant { shape = [ 1; 2 ]; value = 1.0 }) []
  in
  let sig_k =
    op_kernel reg ~name:"sig" ~roles:[| Kernel.Batched |] ~shared_binds:[]
      Acrobat_ir.Op.Sigmoid [ Kernel.Arg 0 ]
  in
  (* Producer recorded at depth 5, consumer at depth 0: inverted. *)
  let invoke kernel args ~depth =
    let bound = Runtime.bind rt kernel in
    let plan = Runtime.plan_in rt bound args in
    Runtime.invoke rt bound ~plan ~args ~instance:0 ~phase:0 ~depth ~sig_key:plan.id
  in
  let producer = invoke src_k [||] ~depth:5 in
  let _ = invoke sig_k [| Runtime.output rt producer 0 |] ~depth:0 in
  expect_runtime_error "not materialized" (fun () -> Runtime.flush rt)

(* A node reading a once node's output as a shared argument ([Bonce])
   recorded below that node: the executor checks the shared argument is
   materialized at launch, as it does a batched one. *)
let test_executor_reports_pending_once_output () =
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Inline_depth ~policy ~seed:1 ~instances:1 in
  let reg = Kernel.registry () in
  let src_k =
    op_kernel reg ~name:"src" ~roles:[||] ~shared_binds:[]
      (Acrobat_ir.Op.Constant { shape = [ 1; 2 ]; value = 1.0 }) []
  in
  let add_k =
    op_kernel reg ~name:"add" ~roles:[| Kernel.Shared; Kernel.Batched |]
      ~shared_binds:[ 0, Kernel.Bonce { kernel = src_k.Kernel.id; out = 0 } ]
      Acrobat_ir.Op.Add [ Kernel.Arg 0; Kernel.Arg 1 ]
  in
  let invoke kernel args ~depth ictx =
    let bound = Runtime.bind rt kernel in
    let plan = Runtime.plan_in rt bound args in
    Runtime.invoke rt bound ~plan ~args ~instance:0 ~phase:ictx.Value.ictx_phase ~depth
      ~sig_key:plan.id
  in
  let ictx = { Value.ictx_instance = 0; ictx_depth = 0; ictx_phase = 0 } in
  (* Producer recorded at depth 5, its reader at depth 0: inverted. *)
  ignore (Runtime.once rt (Runtime.bind rt src_k) ictx (invoke src_k [||] ~depth:5));
  let x = List.hd (Runtime.upload_inputs rt ~batched:true [ Tensor.zeros [ 1; 2 ] ]) in
  ignore (invoke add_k [| x |] ~depth:0 ictx);
  expect_runtime_error "argument 0 of node 1 (phase 0 depth 0) not materialized (scheduling bug"
    (fun () -> Runtime.flush rt)

let test_closure_arity_mismatch () =
  let src =
    {|
def @apply(%f: fn(Tensor[(1, 4)], Tensor[(1, 4)]) -> Tensor[(1, 4)],
           %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
  %f(%x, %x)
}
def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
  @apply(fn(%a: Tensor[(1, 4)], %b: Tensor[(1, 4)]) { %a + %b }, %x)
}
|}
  in
  (* Well-typed program: runs fine — the arity machinery is exercised by the
     type checker; here just confirm the closure path executes. *)
  let rng = Rng.create 1 in
  let r =
    run_src src ~inputs:[ "x" ]
      ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
      ~instances:[ tensor_input rng ]
  in
  check_int "one output" 1 (List.length r.Driver.outputs)

let test_scalar_accounting_mode_is_zero () =
  (* scalar() without value computation returns 0.0 rather than crashing
     (documented accounting-only semantics). *)
  let src =
    {|
def @main(%w: Tensor[(4, 1)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
  let %s = scalar(matmul(%x, %w));
  if (%s < 100.0) { sigmoid(%x) } else { tanh(%x) }
}
|}
  in
  let rng = Rng.create 1 in
  let compiled = compile ~inputs:[ "x" ] src in
  let r =
    run compiled
      ~weights:[ "w", Tensor.random rng [ 4; 1 ] ]
      ~instances:[ tensor_input rng ] ()
  in
  check_int "ran to completion" 1 (List.length r.Driver.outputs)

let suite =
  [
    Alcotest.test_case "choice(0) fails diagnosably" `Quick test_choice_zero_fails;
    Alcotest.test_case "missing input" `Quick test_missing_input_fails;
    Alcotest.test_case "missing weight" `Quick test_missing_weight_fails;
    Alcotest.test_case "wrong input shape" `Quick test_wrong_input_shape_fails;
    Alcotest.test_case "match failure at runtime" `Quick test_interp_match_failure;
    Alcotest.test_case "executor catches inverted depths" `Quick
      test_executor_reports_dependency_violation;
    Alcotest.test_case "executor reports a pending once output" `Quick
      test_executor_reports_pending_once_output;
    Alcotest.test_case "closures through function params" `Quick test_closure_arity_mismatch;
    Alcotest.test_case "scalar() in accounting mode" `Quick test_scalar_accounting_mode_is_zero;
    Alcotest.test_case "parameter errors in order" `Quick test_parameter_errors_in_order;
  ]
