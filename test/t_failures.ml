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

let test_wrong_input_shape_fails () =
  (* Declared Tensor[(1,4)] but the caller supplies (1,5): the kernel's
     shape rules reject it at invocation. *)
  let src = "def @main(%w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { matmul(%x, %w) }" in
  let rng = Rng.create 1 in
  match
    run_src src ~inputs:[ "x" ]
      ~weights:[ "w", Tensor.random rng [ 4; 4 ] ]
      ~instances:[ [ "x", Driver.Htensor (Tensor.random rng [ 1; 5 ]) ] ]
  with
  | _ -> Alcotest.fail "expected a shape error"
  | exception Acrobat_ir.Op.Shape_error _ -> ()
  | exception Shape.Mismatch _ -> ()

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
    let b = Kernel.builder () in
    let t = Kernel.add_instr b (Acrobat_ir.Op.Constant { shape = [ 1; 2 ]; value = 1.0 }) [] in
    Kernel.finish reg b ~name:"src" ~nargs:0 ~roles:[||] ~shared_binds:[] ~out_tmps:[| t |]
      ~fusion:true ~horizontal:false
  in
  let sig_k =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b Acrobat_ir.Op.Sigmoid [ Kernel.Arg 0 ] in
    Kernel.finish reg b ~name:"sig" ~nargs:1 ~roles:[| Kernel.Batched |] ~shared_binds:[]
      ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  (* Producer recorded at depth 5, consumer at depth 0: inverted. *)
  let producer =
    Runtime.invoke rt ~plan:(Runtime.plan rt src_k [||]) ~args:[||] ~instance:0 ~phase:0
      ~depth:5 ~sig_key:"s"
  in
  let args = [| producer.(0) |] in
  let _ =
    Runtime.invoke rt ~plan:(Runtime.plan rt sig_k args) ~args ~instance:0 ~phase:0 ~depth:0
      ~sig_key:"c"
  in
  expect_runtime_error "not materialized" (fun () -> Runtime.flush rt)

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
    Alcotest.test_case "closures through function params" `Quick test_closure_arity_mismatch;
    Alcotest.test_case "scalar() in accounting mode" `Quick test_scalar_accounting_mode_is_zero;
  ]
