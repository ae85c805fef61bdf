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
      Driver.run_batch ~compute_values:true ~mode ~policy:(Frameworks.policy framework)
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
      Driver.run_batch ~compute_values:true ~mode ~policy:(Frameworks.policy framework)
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

(* DyNet's signatures are ints, pinned so batching decisions never drift:
   a plain signature is the plan's id; a matmul's is interned from the
   plan's id and its weight's identity (the weight's address, or its slot
   while pending), equal pairs to equal ids; an unbatchable node's is an
   id of its own. *)
let test_dynet_signatures_pinned () =
  let reg = Kernel.registry () in
  let kernel name op =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b op [ Kernel.Arg 0; Kernel.Arg 1 ] in
    Kernel.finish reg b ~name ~nargs:2 ~roles:[| Kernel.Batched; Kernel.Batched |]
      ~shared_binds:[] ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  let add = kernel "add" Ir.Op.Add and matmul = kernel "matmul" Ir.Op.Matmul in
  let device = Device.create () in
  let policy =
    { Acrobat_runtime.Executor.gather_fusion = true; quality = (fun _ -> 0.8);
      compute_values = false; detect_dynamic_sharing = true }
  in
  let module Runtime = Acrobat_runtime.Runtime in
  let module Store = Acrobat_runtime.Store in
  let rt = Runtime.create ~device ~scheduler:Config.Agenda ~policy ~seed:1 ~instances:1 in
  let mat addr shape =
    let s = rt.Runtime.store in
    Store.handle s (Store.add_value s ~addr ~shape ~numel:(Shape.numel shape))
  in
  let sig_of = Policy.dynet_sig () in
  let sign k args =
    let plan = Runtime.plan_in rt (Runtime.bind rt k) args in
    plan, sig_of rt plan args
  in
  let row = [| mat 0 [ 1; 4 ]; mat 8 [ 1; 4 ] |] in
  let plan, id = sign add row in
  check_int "a plain signature is the plan's id" plan.id id;
  let mm_plan, w42 = sign matmul [| mat 0 [ 1; 4 ]; mat 42 [ 4; 4 ] |] in
  check_true "an interned signature is negative" (w42 < 0);
  check_int "matmul keyed on the weight's address" w42
    (Store.intern rt.Runtime.store ~plan_id:mm_plan.id ~key:42);
  check_int "the same weight, the same id" w42
    (snd (sign matmul [| mat 16 [ 1; 4 ]; mat 42 [ 4; 4 ] |]));
  check_true "another weight, another id"
    (w42 <> snd (sign matmul [| mat 0 [ 1; 4 ]; mat 64 [ 4; 4 ] |]));
  let pending =
    Runtime.invoke rt (Runtime.bind rt add) ~plan ~args:row ~instance:0 ~phase:0 ~depth:0 ~sig_key:plan.id
  in
  let out = Runtime.output rt pending 0 in
  let pending_plan, pending_id = sign matmul [| mat 0 [ 1; 1 ]; out |] in
  check_int "matmul keyed on a pending weight's slot" pending_id
    (Store.intern rt.Runtime.store ~plan_id:pending_plan.id ~key:(-(out.slot + 1)));
  check_int "the same pending weight, the same id" pending_id
    (snd (sign matmul [| mat 16 [ 1; 1 ]; out |]));
  let argmax =
    let b = Kernel.builder () in
    let t = Kernel.add_instr b Ir.Op.Argmax [ Kernel.Arg 0 ] in
    Kernel.finish reg b ~name:"argmax" ~nargs:1 ~roles:[| Kernel.Batched |] ~shared_binds:[]
      ~out_tmps:[| t |] ~fusion:true ~horizontal:false
  in
  let x = [| mat 0 [ 1; 4 ] |] in
  let lone = List.map (fun _ -> snd (sign argmax x)) [ 1; 2; 3 ] in
  check_int "unbatchable ops get unique ids" 3 (List.length (List.sort_uniq Int.compare lone));
  check_true "unbatchable ids are negative and no interned pair's"
    (List.for_all (fun u -> u < 0 && u <> w42 && u <> pending_id) lone)

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
    (Driver.run_batch ~mode ~policy:Policy.acrobat_policy ~quality:compiled.quality
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

(* --- AOT calls: direct, recursive, first-class --- *)

(* Self recursion (@count), mutual recursion (@even/@odd) and a global
   used as a value (map(@act, ...)): the three ways a definition is
   reached. *)
let calls_source =
  {|
def @act(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
  sigmoid(%x)
}

def @even(%xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
  match (%xs) {
    Nil => %h,
    Cons(%x, %rest) => @odd(%rest, tanh(%h + matmul(%x, %w)), %w)
  }
}

def @odd(%xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
  match (%xs) {
    Nil => %h,
    Cons(%x, %rest) => @even(%rest, sigmoid(%x + matmul(%h, %w)), %w)
  }
}

def @count(%xs: List[Tensor[(1, 4)]], %n: Int) -> Int {
  match (%xs) {
    Nil => %n,
    Cons(%x, %rest) => @count(%rest, %n + 1)
  }
}

def @main(%w: Tensor[(4, 4)], %h0: Tensor[(1, 4)], %inps: List[Tensor[(1, 4)]])
    -> (Tensor[(1, 4)], Int, List[Tensor[(1, 4)]]) {
  let %ys = map(@act, %inps);
  (@even(%ys, %h0, %w), @count(%ys, 0), %ys)
}
|}

let test_aot_calls_match_vm () =
  let compiled = compile ~inputs:[ "h0"; "inps" ] calls_source in
  let rng = Rng.create 5 in
  let tensor () = Driver.Htensor (Tensor.random rng [ 1; 4 ]) in
  let weights = [ "w", Tensor.random rng [ 4; 4 ] ] in
  let lengths = [ 0; 1; 2; 3; 4 ] in
  let instances =
    List.map (fun n -> [ "h0", tensor (); "inps", Driver.Hlist (List.init n (fun _ -> tensor ())) ])
      lengths
  in
  let run mode =
    Driver.run_batch ~compute_values:true ~mode ~policy:Policy.acrobat_policy ~quality:compiled.quality
      ~lprog:compiled.lprog ~weights ~instances ()
  in
  let aot = run Driver.Aot_mode in
  List.iter2
    (fun n v ->
      match v with
      | Value.Vtuple [| _; Value.Vint count; ys |] ->
        check_int "self recursion counts the list" n count;
        check_int "map(@act, ...) keeps the length" n (List.length (Value.to_list ys))
      | _ -> Alcotest.fail "unexpected @main result")
    lengths aot.Driver.outputs;
  Alcotest.(check (array int64)) "aot = vm fingerprints" (Driver.fingerprints (run Driver.Vm_mode))
    (Driver.fingerprints aot)

let test_aot_call_errors () =
  (* Ill-formed calls the typechecker rules out, built by hand: each must
     surface as a runtime error, never as [Invalid_argument]. *)
  let compiled = compile ~inputs:[ "h0"; "inps" ] calls_source in
  let module L = Lowered in
  let defs =
    [
      { L.lname = "one"; lparams = [ "y" ]; lbody = L.Lvar "y" };
      { L.lname = "two"; lparams = [ "a"; "b" ]; lbody = L.Lvar "a" };
      { L.lname = "call_one_with_two";
        lparams = [ "x" ];
        lbody = L.Lcall (L.Lglobal "one", [ L.Lvar "x"; L.Lvar "x" ]) };
      { L.lname = "call_two_with_one"; lparams = [ "x" ]; lbody = L.Lcall (L.Lglobal "two", [ L.Lvar "x" ]) };
      { L.lname = "map_two"; lparams = [ "x" ]; lbody = L.Lmap (L.Lglobal "two", L.Lcons (L.Lvar "x", L.Lnil)) };
      { L.lname = "call_missing"; lparams = [ "x" ]; lbody = L.Lcall (L.Lglobal "nowhere", [ L.Lvar "x" ]) };
    ]
  in
  let table = Hashtbl.create 8 in
  List.iter (fun (d : L.ldef) -> Hashtbl.replace table d.lname d) defs;
  let run entry args =
    let policy =
      { Acrobat_runtime.Executor.gather_fusion = true; quality = (fun _ -> 0.8);
        compute_values = false; detect_dynamic_sharing = false }
    in
    let rt =
      Acrobat_runtime.Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth
        ~policy ~seed:1 ~instances:1
    in
    let lprog = { compiled.lprog with L.defs = table; entry } in
    let eng = Acrobat_engines.Aot.create ~rt ~policy:Policy.acrobat_policy ~fibers:false lprog in
    Acrobat_engines.Aot.run_main eng ~instance:0 args
  in
  check_true "well-formed call runs" (run "one" [ Value.Vint 7 ] = Value.Vint 7);
  List.iter
    (fun (entry, args) ->
      match run entry args with
      | _ -> Alcotest.failf "%s: expected a runtime error" entry
      | exception Value.Runtime_error _ -> ())
    [
      "call_one_with_two", [ Value.Vint 1 ];
      "call_two_with_one", [ Value.Vint 1 ];
      "map_two", [ Value.Vint 1 ];
      "call_missing", [ Value.Vint 1 ];
      "one", [];
      "one", [ Value.Vint 1; Value.Vint 2 ];
      "absent_entry", [ Value.Vint 1 ];
    ]

(* --- AOT operands --- *)

(* A kernel to build hand-lowered programs around: @act's one block, with
   its batched argument [x] and its weight [w] shared, and @total's, whose
   result [scalar] forces. *)
let operands_source =
  {|
def @act(%x: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
  tanh(matmul(%x, %w))
}

def @total(%x: Tensor[(1, 4)]) -> Float {
  scalar(reduce_sum(%x))
}

def @main(%w: Tensor[(4, 4)], %h0: Tensor[(1, 4)], %inps: List[Tensor[(1, 4)]])
    -> (Tensor[(1, 4)], Float) {
  (@act(%h0, %w), @total(%h0))
}
|}

module L = Lowered
module Ast = Ir.Ast

let operands_program () = compile ~inputs:[ "h0"; "inps" ] operands_source

(* The specialization of the definition named [prefix] (one call site
   each, so one specialization). *)
let def_named (lprog : L.t) prefix =
  Hashtbl.fold (fun name _ acc -> if String.starts_with ~prefix name then name else acc) lprog.L.defs ""

(* A block of [prefix]'s first kernel taking [arg] for its one batched
   argument and binding [out]. Its depth is dynamic: the hand-built
   programs chain it on its own results, which the hoisted depth lowering
   gave it would not order. *)
let block_of (lprog : L.t) prefix arg out =
  match (L.find_def lprog (def_named lprog prefix)).L.lbody with
  | L.Lblock (b, _) ->
    let batched = b.L.kernel.Kernel.batched in
    let args = List.mapi (fun i a -> if Array.mem i batched then arg else a) b.L.args in
    { b with L.args; batched_args = [ arg ]; outs = [ out ]; depth = L.Dynamic }
  | _ -> Alcotest.fail "expected a block"

(* [lprog] with [defs] added or replaced. *)
let with_defs (lprog : L.t) defs =
  let table = Hashtbl.copy lprog.L.defs in
  List.iter (fun (d : L.ldef) -> Hashtbl.replace table d.L.lname d) defs;
  { lprog with L.defs = table }

(* Every operand position AOT staging resolves, in one hand-lowered @main:
   variables, constants, tuple fields and projections of them, variables
   captured by an [fn] one and two scopes up, and compound operands. *)
let operands_main (lprog : L.t) : L.ldef =
  let v x = L.Lvar x and blk arg out cont = L.Lblock (block_of lprog "act" arg out, cont) in
  let lets binds body = List.fold_right (fun (x, e) acc -> L.Llet (x, e, acc)) binds body in
  let act = L.Lglobal "act_dyn" and total = L.Lglobal "total_dyn" in
  let body =
    lets
      [
        "a", v "h0";
        "p", L.Ltuple [ v "a"; v "w" ];
      ]
      (blk (L.Lproj (v "p", 0)) "y1"
         (lets
            [ "q", L.Ltuple [ L.Ltuple [ v "p"; L.Lint 3 ]; v "y1" ] ]
            (blk (L.Lproj (L.Lproj (L.Lproj (v "q", 0), 0), 0)) "y2"
               (lets
                  [
                    "n", L.Lbinop (Ast.Mod, L.Lint 7, L.Lint 3);
                    "m", L.Lbinop (Ast.Mul, v "n", L.Lproj (L.Lproj (v "q", 0), 1));
                    "f", L.Lfn ([ "z" ], blk (v "z") "r" (L.Ltuple [ v "r"; v "y1" ]));
                    ( "g",
                      L.Lfn
                        ( [ "z" ],
                          L.Llet
                            ( "h",
                              L.Lfn ([ "u" ], L.Ltuple [ v "u"; v "a"; v "n" ]),
                              L.Lcall (v "h", [ v "z" ]) ) ) );
                    "fr", L.Lcall (v "f", [ v "y2" ]);
                    "gr", L.Lcall (v "g", [ L.Lproj (v "fr", 1) ]);
                    "ys", L.Lmap (v "f", v "inps");
                    "c", L.Lconcurrent [ v "y1"; L.Lproj (v "fr", 0); L.Lcall (act, [ v "y2"; v "w" ]) ];
                    "d", L.Lcall (act, [ L.Lproj (v "c", 2); L.Lproj (v "p", 1) ]);
                    "t", L.Lnode (L.Lleaf (v "y1"), L.Lleaf (v "d"));
                    ( "s",
                      L.Lmatch
                        ( v "t",
                          [
                            Ast.Pleaf "e", v "e";
                            ( Ast.Pnode ("l", "r"),
                              L.Lmatch (v "r", [ Ast.Pnil, v "y1"; Ast.Pleaf "e", v "e" ]) );
                          ] ) );
                    "b", L.Lbinop (Ast.Eq, v "m", L.Lint 3);
                    "nb", L.Lnot (v "b");
                    "sel", L.Lif (v "nb", v "y1", L.Lif (L.Lbool true, v "s", v "y2"));
                    "k", L.Lchoice (L.Lbinop (Ast.Add, v "n", L.Lint 2));
                    "heads", L.Lcoin (L.Lfloat 0.5);
                    "xs", L.Lcons (v "sel", L.Lcons (L.Lproj (v "c", 0), L.Lnil));
                  ]
                  (L.Ltuple
                     [
                       v "sel"; v "gr"; v "ys"; v "xs"; v "t"; v "k"; v "heads";
                       L.Lcall (total, [ v "d" ]);
                       L.Lcall (total, [ L.Lproj (v "fr", 0) ]);
                       L.Lcall (L.Lfn ([ "z"; "o" ], v "o"), [ v "n"; L.Lproj (v "q", 1) ]);
                     ])))))
  in
  { L.lname = lprog.L.entry; lparams = [ "w"; "h0"; "inps" ]; lbody = body }

let test_aot_operands_match_vm () =
  let compiled = operands_program () in
  let lp = compiled.lprog in
  let v x = L.Lvar x in
  let lprog =
    with_defs lp
      [
        operands_main lp;
        { L.lname = "act_dyn"; lparams = [ "x"; "w" ];
          lbody = L.Lblock (block_of lp "act" (v "x") "r", v "r") };
        { L.lname = "total_dyn"; lparams = [ "x" ];
          lbody =
            L.Lblock
              ( block_of lp "total" (v "x") "r",
                L.Llet ("one", L.Ltuple [ v "r" ], L.Lscalar (L.Lproj (v "one", 0))) ) };
      ]
  in
  let rng = Rng.create 9 in
  let tensor () = Driver.Htensor (Tensor.random rng [ 1; 4 ]) in
  let weights = [ "w", Tensor.random rng [ 4; 4 ] ] in
  let instances =
    List.map
      (fun n -> [ "h0", tensor (); "inps", Driver.Hlist (List.init n (fun _ -> tensor ())) ])
      [ 0; 1; 2; 3 ]
  in
  let run mode =
    Driver.run_batch ~compute_values:true ~mode ~policy:Policy.acrobat_policy
      ~quality:compiled.quality ~lprog ~weights ~instances ()
  in
  let aot = run Driver.Aot_mode and vm = run Driver.Vm_mode in
  Alcotest.(check (array int64)) "aot = vm fingerprints" (Driver.fingerprints vm)
    (Driver.fingerprints aot);
  let shown r = List.map (Fmt.str "%a" Value.pp) r.Driver.outputs in
  Alcotest.(check (list string)) "aot = vm values" (shown vm) (shown aot);
  List.iter
    (fun v ->
      match v with
      | Value.Vtuple [| _; _; ys; xs; _; Value.Vint _; Value.Vbool _; Value.Vfloat _; Value.Vfloat _;
                        Value.Vtensor _ |] ->
        check_int "two-element list" 2 (List.length (Value.to_list xs));
        ignore (Value.to_list ys)
      | _ -> Alcotest.fail "unexpected @main result")
    aot.Driver.outputs

let test_operand_errors () =
  (* Ill-formed operands the typechecker rules out, built by hand: each
     must surface as a runtime error in both engines, never as
     [Invalid_argument] or [Match_failure]. *)
  let compiled = operands_program () in
  let v x = L.Lvar x in
  let blk arg = L.Lblock (block_of compiled.lprog "act" arg "y", v "y") in
  let cases =
    [
      "project an int", L.Lproj (v "x", 0), Value.Vint 1;
      "project past the arity", L.Lproj (v "x", 2), Value.Vtuple [| Value.Vint 1; Value.Vint 2 |];
      "project a field past its arity", L.Lproj (L.Lproj (v "x", 0), 1), Value.Vtuple [| Value.Vint 1 |];
      "let a bad field", L.Llet ("y", L.Lproj (v "x", 3), v "y"), Value.Vtuple [||];
      "closure with two arguments for one", L.Lcall (L.Lfn ([ "a" ], v "a"), [ v "x"; v "x" ]), Value.Vint 1;
      "closure with none for one", L.Lcall (L.Lfn ([ "a" ], v "a"), []), Value.Vint 1;
      ( "map a two-parameter closure",
        L.Lmap (L.Lfn ([ "a"; "b" ], v "a"), L.Lcons (v "x", L.Lnil)),
        Value.Vint 1 );
      "condition an int", L.Lif (v "x", L.Lint 1, L.Lint 2), Value.Vint 1;
      "condition a constant int", L.Lif (L.Lint 0, L.Lint 1, L.Lint 2), Value.Vint 1;
      "negate an int", L.Lnot (v "x"), Value.Vint 1;
      "call an int", L.Lcall (v "x", [ L.Lint 1 ]), Value.Vint 1;
      "block on an int", blk (v "x"), Value.Vint 1;
      "block on an int field", blk (L.Lproj (v "x", 0)), Value.Vtuple [| Value.Vint 1 |];
      "block on a constant", blk (L.Lint 4), Value.Vint 1;
      "divide by zero", L.Lbinop (Ast.Div, L.Lint 1, L.Lint 0), Value.Vint 1;
      "mod by a zero variable", L.Lbinop (Ast.Mod, L.Lint 7, v "x"), Value.Vint 0;
      "divide by a zero field", L.Lbinop (Ast.Div, v "x", L.Lproj (v "x", 0)), Value.Vint 0;
    ]
  in
  let rt () =
    let policy =
      { Acrobat_runtime.Executor.gather_fusion = true; quality = (fun _ -> 0.8);
        compute_values = false; detect_dynamic_sharing = false }
    in
    Acrobat_runtime.Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth ~policy
      ~seed:1 ~instances:1
  in
  List.iter
    (fun (what, body, arg) ->
      let lprog =
        { (with_defs compiled.lprog [ { L.lname = "bad"; lparams = [ "x" ]; lbody = body } ]) with
          L.entry = "bad" }
      in
      let engines =
        [
          ( "aot",
            fun () ->
              Acrobat_engines.Aot.run_main
                (Acrobat_engines.Aot.create ~rt:(rt ()) ~policy:Policy.acrobat_policy ~fibers:false
                   lprog)
                ~instance:0 [ arg ] );
          ( "vm",
            fun () ->
              Acrobat_engines.Vm.run_main
                (Acrobat_engines.Vm.create ~rt:(rt ()) ~policy:Policy.acrobat_policy ~fibers:false
                   lprog)
                ~instance:0 [ arg ] );
        ]
      in
      List.iter
        (fun (engine, run) ->
          match run () with
          | _ -> Alcotest.failf "%s (%s): expected a runtime error" what engine
          | exception Value.Runtime_error _ -> ())
        engines)
    cases

(* --- Forwarded-only parameters in the AOT engine --- *)

(* Every case of the forwarded-only analysis in one program: weights
   forwarded through self recursion and [concurrent] (@walk), to other
   argument positions (@swap), past a shadowing [let] (@shadow), inside a
   tuple (@tupled), into an [fn] whose applications suspend at a barrier
   under fibers (@mapped), and a definition referenced first-class
   (@ignore). *)
let forwarding_source =
  {|
def @cell(%x: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
  tanh(matmul(%x, %w))
}

def @walk(%xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)], %w: Tensor[(4, 4)], %u: Tensor[(4, 4)])
    -> Tensor[(1, 4)] {
  match (%xs) {
    Nil => %h,
    Cons(%x, %rest) => {
      let %pair = concurrent(@cell(%x, %w), @cell(%h, %u));
      @walk(%rest, %pair.0 + %pair.1, %w, %u)
    }
  }
}

def @swap(%u: Tensor[(4, 4)], %w: Tensor[(4, 4)], %xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)])
    -> Tensor[(1, 4)] {
  @walk(%xs, %h, %w, %u)
}

def @shadow(%x: Tensor[(1, 4)], %w: Tensor[(4, 4)], %u: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
  let %w = %u;
  @cell(%x, %w)
}

def @tupled(%p: (Tensor[(1, 4)], Tensor[(4, 4)])) -> Tensor[(1, 4)] {
  @cell(%p.0, %p.1)
}

def @mapped(%xs: List[Tensor[(1, 4)]], %w: Tensor[(4, 4)]) -> List[Tensor[(1, 4)]] {
  map(fn(%y: Tensor[(1, 4)]) {
    let %g = sigmoid(@cell(%y, %w));
    if (scalar(reduce_sum(%g)) > 2.0) { %y + %g } else { %g - %y }
  }, %xs)
}

def @ignore(%x: Tensor[(1, 4)]) -> Int {
  1
}

def @main(%w: Tensor[(4, 4)], %u: Tensor[(4, 4)], %h0: Tensor[(1, 4)],
          %inps: List[Tensor[(1, 4)]])
    -> (Tensor[(1, 4)], Tensor[(1, 4)], Tensor[(1, 4)], List[Tensor[(1, 4)]], List[Int]) {
  let %x0 = @walk(%inps, %h0, %w, %u);
  let %x1 = @swap(%u, %w, %inps, %h0);
  let %x2 = @shadow(%h0, %w, %u) + @tupled((%h0, %w));
  (%x0, %x1, %x2, @mapped(%inps, %w), map(@ignore, %inps))
}
|}

let test_aot_forwarded_match_vm () =
  let compiled = compile ~inputs:[ "h0"; "inps" ] forwarding_source in
  let lprog = compiled.lprog in
  let dropped_of = Forwarded.dropped lprog in
  let dropped =
    Hashtbl.fold (fun name _ acc -> List.length (dropped_of name) + acc) lprog.Lowered.defs 0
  in
  check_true "some parameters are forwarded-only" (dropped > 0);
  let rng = Rng.create 11 in
  let tensor () = Driver.Htensor (Tensor.random rng [ 1; 4 ]) in
  let weights = [ "w", Tensor.random rng [ 4; 4 ]; "u", Tensor.random rng [ 4; 4 ] ] in
  let instances =
    List.map (fun n -> [ "h0", tensor (); "inps", Driver.Hlist (List.init n (fun _ -> tensor ())) ])
      [ 0; 1; 2; 3; 4 ]
  in
  let bits (r : Driver.result) =
    Array.map Int64.bits_of_float r.Driver.stats.Driver.profiler.P.times_us
  in
  let vm_slot = P.activity_index P.Vm_overhead in
  List.iter
    (fun fibers ->
      let run mode =
        Driver.run_batch ~compute_values:true ~mode ~policy:Policy.acrobat_policy
          ~quality:compiled.quality ~lprog:{ lprog with Lowered.has_tdc = fibers } ~weights
          ~instances ()
      in
      let label s = Fmt.str "%s (fibers %b)" s fibers in
      let aot = run Driver.Aot_mode in
      let vm = run Driver.Vm_mode in
      Alcotest.(check (array int64)) (label "aot = vm fingerprints") (Driver.fingerprints vm)
        (Driver.fingerprints aot);
      let without_vm b = Array.mapi (fun i x -> if i = vm_slot then 0L else x) b in
      Alcotest.(check (array int64)) (label "virtual time of the VM, dispatch aside")
        (without_vm (bits vm)) (without_vm (bits aot)))
    [ false; true ]

(* --- One staged program per compiled program --- *)

module Aot = Acrobat_engines.Aot

let time_bits (p : P.t) = Array.map Int64.bits_of_float p.P.times_us

(* Batches of one compiled program run through its staged program
   ([run_batch]) and the same batches each staged afresh ([Driver.run_batch]
   without [staged], i.e. [Aot.create] per batch) agree in fingerprints and
   in every bit of virtual time. Each side alternates between two devices
   that accumulate their profiles and allocations, so a handle one run
   resolved (an [Lshared] constant) reaching the next run, on the other
   device, shows. *)
let test_staged_once_matches_fresh () =
  List.iter
    (fun (id, framework) ->
      let label s = Fmt.str "%s/%s: %s" id (Frameworks.name framework) s in
      let model = Models.tiny id in
      let untuned = compile ~framework ~inputs:model.Model.inputs model.Model.source in
      let weights = model.Model.gen_weights 1 in
      let c = tune ~iters:20 untuned ~weights ~calibration:(gen_batch model ~batch:2 ~seed:5) in
      check_true (label "tune keeps the staged program") (c.staged == untuned.staged);
      let staged = Lazy.force c.staged in
      let reused = [| Device.create (); Device.create () |]
      and fresh = [| Device.create (); Device.create () |] in
      List.iteri
        (fun k batch ->
          let instances = gen_batch model ~batch ~seed:(10 + k) in
          let a = run_batch ~compute_values:true ~device:reused.(k mod 2) c ~weights ~instances () in
          let b =
            Driver.run_batch ~compute_values:true ~device:fresh.(k mod 2)
              ~mode:(Frameworks.mode framework) ~policy:(Frameworks.policy framework)
              ~quality:c.quality ~lprog:c.lprog ~weights ~instances ()
          in
          let what = label (Fmt.str "batch %d of %d" k batch) in
          Alcotest.(check (array int64)) (what ^ " fingerprints") (Driver.fingerprints b)
            (Driver.fingerprints a);
          Alcotest.(check int64) (what ^ " latency")
            (Int64.bits_of_float b.Driver.stats.Driver.latency_ms)
            (Int64.bits_of_float a.Driver.stats.Driver.latency_ms))
        [ 1; 3; 8; 2; 5; 1 ];
      Array.iteri
        (fun i d ->
          Alcotest.(check (array int64)) (label (Fmt.str "device %d virtual time" i))
            (time_bits (Device.profiler fresh.(i))) (time_bits (Device.profiler d));
          check_true (label (Fmt.str "device %d counters" i))
            (P.counters (Device.profiler fresh.(i)) = P.counters (Device.profiler d));
          let memory d = Memory.(allocations (Device.memory d), used_elems (Device.memory d)) in
          check_true (label (Fmt.str "device %d allocations" i)) (memory fresh.(i) = memory d))
        reused;
      check_true (label "every batch ran the one staged program") (Lazy.force c.staged == staged);
      check_true (label "no runtime stays bound") (Option.is_none staged.Aot.bound))
    [
      "treelstm", acrobat_kind (* Lshared constants, forwarded weights *);
      "nestedrnn", acrobat_kind (* fibers, Lshared, forwarded *);
      "drnn", acrobat_kind (* forked fibers, decisions *);
      "moe", acrobat_kind;
      "treelstm", dynet_kind (* one policy record for every batch *);
      "drnn", Frameworks.Dynet { improved = true; scheduler = Config.Runtime_depth };
    ]

(* A DyNet policy depends on nothing but the batch it signs: agenda
   TreeLSTM batches through one policy record match the same batches each
   signed by a fresh record, in latency and in every bit of virtual time.
   (Unbatchable nodes are numbered by the run, not by the record.) *)
let test_dynet_policy_reusable () =
  let model = Models.tiny "treelstm" in
  let c = compile ~framework:dynet_kind ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let reused = Frameworks.policy dynet_kind in
  let run policy (batch, seed) =
    let device = Device.create () in
    let r =
      Driver.run_batch ~device ~mode:Driver.Aot_mode ~policy ~quality:c.quality ~lprog:c.lprog
        ~weights ~instances:(gen_batch model ~batch ~seed) ()
    in
    Int64.bits_of_float r.Driver.stats.Driver.latency_ms, time_bits (Device.profiler device)
  in
  List.iteri
    (fun k batch ->
      let latency, times = run reused batch
      and fresh_latency, fresh_times = run (Frameworks.policy dynet_kind) batch in
      let what = Fmt.str "batch %d" k in
      Alcotest.(check int64) (what ^ " latency") fresh_latency latency;
      Alcotest.(check (array int64)) (what ^ " virtual time") fresh_times times)
    [ 3, 10; 8, 11; 2, 12 ]

let weak_probe = Weak.create 2

(* One run on a device only [weak_probe] points to; returns nothing. *)
let[@inline never] run_on_probed_device slot ?faults c ~weights ~instances =
  let device = Device.create ?faults () in
  Weak.set weak_probe slot (Some device);
  match run_batch ~device c ~weights ~instances () with
  | _ -> `Returned
  | exception Faults.Fault _ -> `Raised

(* One value-mode run; [tensor_probe] then points to its output tensors,
   and nothing else of the run is returned. *)
let tensor_probe = Weak.create 64

let[@inline never] run_probing_tensors c ~weights ~instances =
  let r = run_batch ~compute_values:true c ~weights ~instances () in
  let tensors =
    List.concat_map (fun v -> List.filter_map Value.handle_tensor (Value.handles [] v)) r.outputs
  in
  List.iteri (fun i t -> Weak.set tensor_probe i (Some t)) tensors;
  List.length tensors

(* The staged program outlives every run, and must not keep the last run's
   runtime — nor, through it, its device — alive: neither when the run
   returns nor when it raises an injected fault mid-DFG. Its node store
   keeps no tensor of a finished run either: dropped results are
   collected, and no slot holds a value. *)
let test_staged_run_releases_runtime () =
  let model = Models.tiny "nestedrnn" in
  let c = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:3 ~seed:4 in
  check_true "a clean run returns"
    (run_on_probed_device 0 c ~weights ~instances = `Returned);
  let faults = Faults.create (Faults.parse "seed=3,kernel=1") in
  check_true "a faulted run raises"
    (run_on_probed_device 1 ~faults c ~weights ~instances = `Raised);
  Gc.full_major ();
  check_true "a returned run keeps no device alive" (Option.is_none (Weak.get weak_probe 0));
  check_true "a raising run keeps no device alive" (Option.is_none (Weak.get weak_probe 1));
  let probed = run_probing_tensors c ~weights ~instances in
  check_true "a value-mode run has output tensors" (probed > 0);
  Gc.full_major ();
  for i = 0 to probed - 1 do
    check_true "the store keeps no output tensor alive" (Option.is_none (Weak.get tensor_probe i))
  done;
  let store = (Lazy.force c.staged).Aot.store in
  check_true "the store holds no handle between runs"
    (Array.for_all Option.is_none store.Acrobat_runtime.Store.holder);
  check_true "the program still runs"
    ((run_batch c ~weights ~instances ()).Driver.stats.Driver.latency_ms > 0.0)

(* A run's outputs leave the store its program reuses: they fingerprint
   and print the same after the next run of the program has rebuilt its
   DFG there, in either mode. *)
let test_outputs_outlive_the_store () =
  let model = Models.tiny "treelstm" in
  let c = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let show (r : Driver.result) =
    Driver.fingerprints r, List.map (Fmt.str "%a" Value.pp) r.Driver.outputs
  in
  List.iter
    (fun compute_values ->
      let first =
        run_batch ~compute_values c ~weights ~instances:(gen_batch model ~batch:3 ~seed:4) ()
      in
      let before = show first in
      ignore (run_batch ~compute_values c ~weights ~instances:(gen_batch model ~batch:5 ~seed:9) ());
      let after = show first in
      let what = if compute_values then "values" else "accounting" in
      Alcotest.(check (array int64)) (what ^ ": fingerprints") (fst before) (fst after);
      Alcotest.(check (list string)) (what ^ ": printed") (snd before) (snd after))
    [ true; false ]

(* A run of a staged program started while another run of it is in
   progress fails loudly, and leaves the outer run's binding in place; so
   does a run handed a program staged from another compilation. *)
let test_staged_nested_run_fails () =
  let model = Models.tiny "treelstm" in
  let c = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:2 ~seed:4 in
  let st = Lazy.force c.staged in
  let outer =
    Acrobat_runtime.Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth
      ~policy:
        { Acrobat_runtime.Executor.gather_fusion = true; quality = c.quality;
          compute_values = false; detect_dynamic_sharing = false }
      ~seed:1 ~instances:1
  in
  let bound_to_outer () = match st.Aot.bound with Some b -> b.Aot.rt == outer | None -> false in
  Aot.with_runtime st ~policy:(Frameworks.policy acrobat_kind) outer (fun () ->
      (match run_batch c ~weights ~instances () with
      | _ -> Alcotest.fail "a nested run must not share the binding"
      | exception Invalid_argument _ -> ());
      check_true "the outer run keeps its runtime" (bound_to_outer ()));
  check_true "unbound after the outer run" (Option.is_none st.Aot.bound);
  check_true "a later run succeeds"
    ((run_batch c ~weights ~instances ()).Driver.stats.Driver.latency_ms > 0.0);
  (* Another compilation of the same source is another program. *)
  let other = compile ~inputs:model.Model.inputs model.Model.source in
  match
    Driver.run_batch ~staged:(Lazy.force other.staged) ~mode:Driver.Aot_mode
      ~policy:(Frameworks.policy acrobat_kind) ~quality:c.quality ~lprog:c.lprog ~weights
      ~instances ()
  with
  | _ -> Alcotest.fail "a program staged from another compilation must be refused"
  | exception Invalid_argument _ -> ()

(* A plan follows the shapes of its kernel's shared arguments, and a call
   site keeps its first node's plan for every run: so a weight must have
   its declared shape. A [(4, 16)] weight for a declared [(4, 8)] is
   rejected at @main's boundary, naming the parameter and both shapes,
   before the device is charged anything; a program declaring [(4, 16)]
   runs [(1, 16)], its second run with the FLOPs and virtual time of a
   fresh compile's first. A weight reshaped past the boundary is named
   when its kernel binds. *)
let test_site_plans_reject_new_weight_shapes () =
  let source width =
    Fmt.str
      {|def @main(%%x: Tensor[(1, 4)], %%w: Tensor[(4, %d)]) -> Tensor[(1, %d)] {
  sigmoid(matmul(%%x, %%w))
}|}
      width width
  in
  let run_on device c width =
    let weights = [ "w", Tensor.full [ 4; width ] 0.5 ] in
    let instances = [ [ "x", Driver.Htensor (Tensor.full [ 1; 4 ] 1.0) ] ] in
    run_batch ~device c ~weights ~instances ()
  in
  let run c width =
    let device = Device.create () in
    let r = run_on device c width in
    let shape =
      match r.Driver.outputs with
      | [ Value.Vtensor h ] -> Value.handle_shape h
      | _ -> Alcotest.fail "one tensor output expected"
    in
    shape, r.Driver.profile, time_bits (Device.profiler device)
  in
  let c = compile ~inputs:[ "x" ] (source 8) in
  let shape8, _, _ = run c 8 in
  Alcotest.(check (list int)) "declared (4, 8): (1, 8)" [ 1; 8 ] shape8;
  let device = Device.create () in
  (match run_on device c 16 with
  | _ -> Alcotest.fail "a (4, 16) weight for a declared (4, 8) must be rejected"
  | exception Value.Runtime_error m ->
    List.iter
      (fun fragment ->
        check_true (Fmt.str "the error %S names %s" m fragment) (T_util.contains m fragment))
      [ "\"w\""; "Tensor[(4, 8)]"; "(4, 16)" ]);
  let p = Device.profiler device in
  check_true "nothing charged to the device" (Array.for_all (fun t -> t = 0.0) p.P.times_us);
  check_int "no node built" 0 p.P.nodes_created;
  let c16 = compile ~inputs:[ "x" ] (source 16) in
  ignore (run c16 16);
  let shape16, profile, times = run c16 16 in
  let fresh_shape, fresh_profile, fresh_times = run (compile ~inputs:[ "x" ] (source 16)) 16 in
  Alcotest.(check (list int)) "declared (4, 16): (1, 16)" [ 1; 16 ] shape16;
  Alcotest.(check (list int)) "as a fresh program" fresh_shape shape16;
  check_true "the same FLOPs as a fresh program" (profile = fresh_profile);
  Alcotest.(check (array int64)) "the same virtual time as a fresh program" fresh_times times;
  (* Past the boundary: setting a weight again ends its kernel's binding,
     and the new binding's shared shape is not its plans'. The kernel and
     both shapes are named before the node is built. *)
  let module Runtime = Acrobat_runtime.Runtime in
  let rt =
    Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth
      ~policy:
        { Acrobat_runtime.Executor.gather_fusion = true; quality = c.quality;
          compute_values = false; detect_dynamic_sharing = false }
      ~seed:1 ~instances:1
  in
  let eng = Aot.create ~rt ~policy:c.policy ~fibers:false c.lprog in
  let kernel =
    match Kernel.all_kernels c.lprog.Lowered.registry with
    | [ k ] -> k
    | _ -> Alcotest.fail "one kernel expected"
  in
  let out_shape width =
    Runtime.set_weight rt "w" (Tensor.full [ 4; width ] 0.5);
    let x = List.hd (Runtime.upload_inputs rt ~batched:true [ Tensor.full [ 1; 4 ] 1.0 ]) in
    match Aot.run_main eng ~instance:0 [ Value.Vtensor x; Value.Vtensor (Runtime.weight rt "w") ] with
    | Value.Vtensor h -> Value.handle_shape h
    | _ -> Alcotest.fail "a tensor output expected"
  in
  Alcotest.(check (list int)) "one runtime, first weight: (1, 8)" [ 1; 8 ] (out_shape 8);
  let nodes () = (Runtime.profiler rt).P.nodes_created in
  let built = nodes () in
  (match out_shape 16 with
  | _ -> Alcotest.fail "a (4, 16) weight under (4, 8) plans must be rejected"
  | exception Value.Runtime_error m ->
    List.iter
      (fun fragment ->
        check_true (Fmt.str "the error %S names %s" m fragment) (T_util.contains m fragment))
      [ "kernel " ^ kernel.Kernel.name; "(4, 16)"; "(4, 8)" ]);
  check_int "no node built" built (nodes ())

(* A staged program's call sites keep the plans their first nodes found,
   for every later run: after a first batch of every tiny model, later
   batches (on a second device, computing values, under fibers where the
   model has tensor-dependent control flow, and after a VM batch of the
   same program) add no plan to the program's table and leave every
   site's kept plan physically in place. *)
let test_site_plans_kept_across_batches () =
  let with_fibers = ref 0 in
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let c = compile ~inputs:model.Model.inputs model.Model.source in
      let weights = model.Model.gen_weights 1 in
      let st = Lazy.force c.staged in
      if st.Aot.fibers then incr with_fibers;
      let table = c.lprog.Lowered.registry.Kernel.plan_table in
      let devices = [| Device.create (); Device.create () |] in
      let instances seed = gen_batch model ~batch:4 ~seed in
      ignore (run_batch ~device:devices.(0) c ~weights ~instances:(instances 4) ());
      let plans = Array.copy table.Kernel.by_kernel and sites = Array.copy st.Aot.sites in
      check_true (id ^ ": the first batch kept site plans") (Array.exists Option.is_some sites);
      let unchanged what =
        check_true (Fmt.str "%s: %s added no plan" id what)
          (Array.length plans = Array.length table.Kernel.by_kernel
          && Array.for_all2 ( == ) plans table.Kernel.by_kernel);
        check_true (Fmt.str "%s: %s kept every site's plan" id what)
          (Array.length sites = Array.length st.Aot.sites
          && Array.for_all2 ( == ) sites st.Aot.sites)
      in
      ignore
        (run_batch ~compute_values:true ~device:devices.(1) c ~weights ~instances:(instances 9) ());
      unchanged "a value batch on a second device";
      ignore
        (Driver.run_batch ~device:devices.(0) ~mode:Driver.Vm_mode ~policy:c.policy
           ~quality:c.quality ~lprog:c.lprog ~weights ~instances:(instances 5) ());
      unchanged "a VM batch";
      ignore (run_batch ~device:devices.(1) c ~weights ~instances:(instances 11) ());
      unchanged "an AOT batch after the VM")
    Models.tiny_ids;
  check_true "some model runs under fibers" (!with_fibers > 0)

(* Element counts come from plans, not from dividing shapes: after a run of
   every catalog model, each plan's [out_elems] counts its [out_shapes],
   and each value slot of the run's store counts its shape. The run is
   driven by hand, as {!Driver.run_batch} drives it, so the store can be
   read before the run releases it. *)
let test_element_counts_match_shapes () =
  let module Runtime = Acrobat_runtime.Runtime in
  let module Store = Acrobat_runtime.Store in
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let c = compile ~inputs:model.Model.inputs model.Model.source in
      let lprog = c.lprog in
      let instances = gen_batch model ~batch:3 ~seed:4 in
      let rt =
        Runtime.create ~device:(Device.create ()) ~scheduler:lprog.Lowered.config.Config.scheduler
          ~policy:
            { Acrobat_runtime.Executor.gather_fusion = lprog.Lowered.config.Config.gather_fusion;
              quality = c.quality; compute_values = false; detect_dynamic_sharing = false }
          ~seed:1 ~instances:(List.length instances)
      in
      let st = Lazy.force c.staged in
      Aot.with_runtime st ~policy:c.policy rt (fun () ->
          List.iter (fun (name, t) -> Runtime.set_weight rt name t) (model.Model.gen_weights 1);
          let tensors =
            List.concat_map
              (List.concat_map (fun (_, hv) -> List.rev (Driver.hval_tensors [] hv)))
              instances
          in
          let handles = ref (Runtime.upload_inputs rt ~batched:true tensors) in
          let next () =
            match !handles with
            | h :: rest ->
              handles := rest;
              h
            | [] -> Alcotest.fail "input underflow"
          in
          let main =
            List.mapi
              (fun i inputs ->
                let args =
                  List.map
                    (fun p ->
                      match List.assoc_opt p inputs with
                      | Some hv -> Driver.hval_to_value next hv
                      | None -> Value.Vtensor (Runtime.weight rt p))
                    (Lowered.entry_def lprog).Lowered.lparams
                in
                fun () -> ignore (Aot.run_main st ~instance:i args))
              instances
          in
          if st.Aot.fibers then
            ignore (Acrobat_runtime.Fiber.run ~on_stall:(fun () -> Runtime.flush rt) main)
          else List.iter (fun f -> f ()) main;
          Runtime.flush rt;
          let s = rt.Runtime.store in
          check_true (id ^ ": the run built nodes") (s.Store.nodes > 0);
          for v = 0 to s.Store.values - 1 do
            check_int (Fmt.str "%s: slot %d counts its shape" id v)
              (Shape.numel s.Store.shape.(v)) s.Store.numel.(v)
          done);
      Array.iter
        (List.iter (fun (p : Kernel.plan) ->
             Array.iteri
               (fun k shape ->
                 check_int (Fmt.str "%s: %s output %d" id p.kernel.Kernel.name k)
                   (Shape.numel shape) p.out_elems.(k))
               p.out_shapes))
        lprog.Lowered.registry.Kernel.plan_table.Kernel.by_kernel)
    Models.tiny_ids

(* [t]'s shape with its last dimension one wider, and a value with its
   first tensor leaf widened ([None] without a tensor leaf). *)
let widen t =
  match List.rev (Tensor.shape t) with
  | d :: rest -> Tensor.zeros (List.rev ((d + 1) :: rest))
  | [] -> Tensor.zeros [ 2 ]

let rec widen_first_leaf = function
  | Driver.Htensor t -> Some (Driver.Htensor (widen t))
  | Driver.Hint _ | Driver.Hbool _ | Driver.Hfloat _ -> None
  | Driver.Hleaf v -> Option.map (fun v -> Driver.Hleaf v) (widen_first_leaf v)
  | Driver.Hnode (a, b) -> (
    match widen_first_leaf a with
    | Some a -> Some (Driver.Hnode (a, b))
    | None -> Option.map (fun b -> Driver.Hnode (a, b)) (widen_first_leaf b))
  | Driver.Hlist vs -> Option.map (fun vs -> Driver.Hlist vs) (widen_first_in vs)
  | Driver.Htuple vs -> Option.map (fun vs -> Driver.Htuple vs) (widen_first_in vs)

and widen_first_in = function
  | [] -> None
  | v :: vs -> (
    match widen_first_leaf v with
    | Some v -> Some (v :: vs)
    | None -> Option.map (fun vs -> v :: vs) (widen_first_in vs))

(* @main's boundary: every tiny catalog model's generated weights and
   instances match its declared parameter types; one reshaped weight, or
   one reshaped input leaf in the last instance, is rejected naming that
   parameter before any DFG node is built. *)
let test_boundary_checks_every_model () =
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let c = compile ~inputs:model.Model.inputs model.Model.source in
      let weights = model.Model.gen_weights 1 in
      let instances = gen_batch model ~batch:3 ~seed:5 in
      let device = Device.create () in
      ignore (run_batch ~device c ~weights ~instances ());
      check_true (id ^ ": generated traffic runs") ((Device.profiler device).P.nodes_created > 0);
      let rejected what name ~weights ~instances =
        let device = Device.create () in
        (match run_batch ~device c ~weights ~instances () with
        | _ -> Alcotest.failf "%s: a reshaped %s must be rejected" id what
        | exception Value.Runtime_error m ->
          check_true
            (Fmt.str "%s: the error %S names %s" id m name)
            (T_util.contains m (Fmt.str "%S" name)));
        check_int (Fmt.str "%s: no node built for a reshaped %s" id what) 0
          (Device.profiler device).P.nodes_created
      in
      let w, t =
        List.find (fun (n, _) -> List.mem n c.lprog.Lowered.weight_params) weights
      in
      rejected "weight" w
        ~weights:(List.map (fun (n, x) -> n, if n = w then widen t else x) weights)
        ~instances;
      let last = List.nth instances (List.length instances - 1) in
      let name, leaf =
        List.find_map
          (fun (n, hv) -> Option.map (fun hv -> n, hv) (widen_first_leaf hv))
          last
        |> Option.get
      in
      let last = List.map (fun (n, hv) -> n, if n = name then leaf else hv) last in
      rejected "input leaf" name ~weights
        ~instances:(List.filteri (fun i _ -> i < List.length instances - 1) instances @ [ last ]))
    Models.tiny_ids

(* An instance's inputs reach @main's parameters by name whatever order
   the instance lists them in, and a name @main does not take is an
   error. *)
let test_inputs_follow_parameter_order () =
  let source =
    {|def @main(%a: Tensor[(1, 4)], %b: Tensor[(1, 8)], %w: Tensor[(4, 8)]) -> Tensor[(1, 8)] {
  add(matmul(%a, %w), %b)
}|}
  in
  let c = compile ~inputs:[ "a"; "b" ] source in
  let rng = Rng.create 7 in
  let weights = [ "w", Tensor.random rng [ 4; 8 ] ] in
  let a = Driver.Htensor (Tensor.random rng [ 1; 4 ]) and b = Driver.Htensor (Tensor.random rng [ 1; 8 ]) in
  let go instances =
    let device = Device.create () in
    let r = run_batch ~compute_values:true ~device c ~weights ~instances () in
    Driver.fingerprints r, time_bits (Device.profiler device)
  in
  let fp_ab, t_ab = go [ [ "a", a; "b", b ]; [ "b", b; "a", a ] ] in
  let fp_ba, t_ba = go [ [ "b", b; "a", a ]; [ "a", a; "b", b ] ] in
  Alcotest.(check (array int64)) "same fingerprints in either order" fp_ab fp_ba;
  Alcotest.(check int64) "both instances agree" fp_ab.(0) fp_ab.(1);
  Alcotest.(check (array int64)) "same virtual time in either order" t_ab t_ba;
  List.iter
    (fun (what, instances, fragment) ->
      match go instances with
      | _ -> Alcotest.failf "%s must be rejected" what
      | exception Value.Runtime_error m ->
        check_true (Fmt.str "%s: %S names %s" what m fragment) (T_util.contains m fragment))
    [
      "an extra input listed first", [ [ "c", b; "a", a; "b", b ] ], "\"c\"";
      "a weight given as an input", [ [ "a", a; "b", b; "w", b ] ], "\"w\"";
      "an input listed twice", [ [ "a", a; "b", b; "a", a ] ], "\"a\"";
    ]

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
      Alcotest.test_case "aot calls: recursion and globals as values match the VM" `Quick
        test_aot_calls_match_vm;
      Alcotest.test_case "aot calls: ill-formed calls raise runtime errors" `Quick
        test_aot_call_errors;
      Alcotest.test_case "aot operands: every resolved form matches the VM" `Quick
        test_aot_operands_match_vm;
      Alcotest.test_case "aot operands: ill-formed operands raise runtime errors" `Quick
        test_operand_errors;
      Alcotest.test_case "forwarded: aot matches the vm" `Quick
        test_aot_forwarded_match_vm;
      Alcotest.test_case "staged once: batches match fresh staging" `Quick
        test_staged_once_matches_fresh;
      Alcotest.test_case "staged once: no runtime outlives its run" `Quick
        test_staged_run_releases_runtime;
      Alcotest.test_case "staged once: a nested run fails" `Quick test_staged_nested_run_fails;
      Alcotest.test_case "dynet: one policy record serves every batch" `Quick
        test_dynet_policy_reusable;
      Alcotest.test_case "staged once: outputs outlive the reused store" `Quick
        test_outputs_outlive_the_store;
      Alcotest.test_case "site plans: a reshaped weight is an error" `Quick
        test_site_plans_reject_new_weight_shapes;
      Alcotest.test_case "site plans: kept across runs and engines" `Quick
        test_site_plans_kept_across_batches;
      Alcotest.test_case "element counts: plans and slots match shapes" `Quick
        test_element_counts_match_shapes;
      Alcotest.test_case "boundary: every model's traffic passes, a reshape is named" `Quick
        test_boundary_checks_every_model;
      Alcotest.test_case "boundary: inputs follow @main's parameter order" `Quick
        test_inputs_follow_parameter_order;
    ]
