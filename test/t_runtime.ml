(** Tests for the runtime: fibers, DFG construction, schedulers (including
    topological-correctness properties on random DFGs), and the batch
    executor. *)

open Acrobat
open T_util
module Fiber = Acrobat_runtime.Fiber
module Scheduler = Acrobat_runtime.Scheduler
module Runtime = Acrobat_runtime.Runtime
module Executor = Acrobat_runtime.Executor
module Store = Acrobat_runtime.Store
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

(* Append a node the way the engines do: look up the plan, then invoke,
   signed as ACROBAT signs it (by the plan's id) unless [sig_key] says
   otherwise; returns handles on its outputs. *)
let invoke ?sig_key rt ~kernel ~args ~instance ~phase ~depth =
  let bound = Runtime.bind rt kernel in
  let plan = Runtime.plan_in rt bound args in
  let sig_key = match sig_key with Some f -> f plan | None -> plan.Kernel.id in
  let first = Runtime.invoke rt bound ~plan ~args ~instance ~phase ~depth ~sig_key in
  Array.init (Array.length plan.out_shapes) (Runtime.output rt first)

(* A materialized tensor of [shape] at address 0, registered in [rt]'s
   store (no value). *)
let input rt shape =
  let s = rt.Runtime.store in
  Store.handle s (Store.add_value s ~addr:0 ~shape ~numel:(Shape.numel shape))

let unit_kernel =
  op_kernel reg ~name:"sig" ~roles:[| Kernel.Batched |] ~shared_binds:[] Op.Sigmoid
    [ Kernel.Arg 0 ]

let source_kernel =
  op_kernel reg ~name:"src" ~roles:[||] ~shared_binds:[]
    (Op.Constant { shape = [ 1; 2 ]; value = 0.5 })
    []

(* Two batched arguments, possibly one node's two outputs. *)
let pair_kernel =
  op_kernel reg ~name:"pair" ~roles:[| Kernel.Batched; Kernel.Batched |] ~shared_binds:[]
    Op.Add [ Kernel.Arg 0; Kernel.Arg 1 ]

(* A shared argument (a constant every node of the kernel reads) before a
   batched one. *)
let shared_kernel =
  op_kernel reg ~name:"bias" ~roles:[| Kernel.Shared; Kernel.Batched |]
    ~shared_binds:[ 0, Kernel.Bconst { shape = [ 1; 2 ]; value = 0.25 } ]
    Op.Add [ Kernel.Arg 0; Kernel.Arg 1 ]

(* Two outputs. *)
let split_kernel =
  make_kernel reg ~name:"split" ~roles:[| Kernel.Batched |] ~shared_binds:[] ~out_tmps:[| 0; 1 |]
    [ [ Op.Sigmoid, [ Kernel.Arg 0 ] ]; [ Op.Tanh, [ Kernel.Arg 0 ] ] ]

(* Build a random DAG of [n] nodes through a Runtime the way engines do;
   returns the runtime and every output handle. Dependencies only point
   backwards. Nodes come from four instances, each with a phase that only
   grows, never below its arguments', and a depth one above its deepest
   argument's, so every scheduler can run them; they use source, one- and two-argument, shared-argument
   and two-output kernels, and a fifth of them a signature interned from
   their plan's id and a tag, or one of their own, so one kernel splits
   into several classes.
   Now and then the runtime flushes mid-graph, as a fiber stall does,
   after calling [before_flush] on it: later nodes then read executed
   ones. *)
let build_random_dfg ?(before_flush = ignore) ~scheduler ~seed n =
  let device = Device.create () in
  let policy =
    {
      Executor.gather_fusion = true;
      quality = (fun _ -> 0.8);
      compute_values = false;
      detect_dynamic_sharing = true;
    }
  in
  let rt = Runtime.create ~device ~scheduler ~policy ~seed ~instances:4 in
  let rng = Rng.create seed in
  let handles = ref [] and depths = Hashtbl.create 64 in
  let phases = Array.make 4 0 in
  let pick () = List.nth !handles (Rng.int rng (List.length !handles)) in
  for _ = 1 to n do
    if !handles <> [] && Rng.int rng 12 = 0 then begin
      before_flush rt;
      Runtime.flush rt
    end;
    let instance = Rng.int rng 4 in
    if Rng.int rng 10 = 0 then phases.(instance) <- phases.(instance) + 1;
    let kernel, args =
      if !handles = [] || Rng.int rng 4 = 0 then source_kernel, [||]
      else
        match Rng.int rng 4 with
        | 0 -> pair_kernel, [| pick (); pick () |]
        | 1 -> shared_kernel, [| pick () |]
        | 2 -> split_kernel, [| pick () |]
        | _ -> unit_kernel, [| pick () |]
    in
    let depth, phase =
      Array.fold_left
        (fun (d, p) (h : Value.handle) ->
          let hd, hp = Hashtbl.find depths h.slot in
          max d (1 + hd), max p hp)
        (0, phases.(instance)) args
    in
    phases.(instance) <- phase;
    let sig_key =
      if Rng.int rng 5 = 0 then begin
        match Rng.int rng 3 with
        | 2 -> Some (fun _ -> Store.fresh_signature rt.Runtime.store)
        | key -> Some (fun (plan : Kernel.plan) -> Store.intern rt.Runtime.store ~plan_id:plan.id ~key)
      end
      else None
    in
    let outs = invoke ?sig_key rt ~kernel ~args ~instance ~phase ~depth in
    Array.iter
      (fun (h : Value.handle) ->
        Hashtbl.replace depths h.slot (depth, phase);
        handles := h :: !handles)
      outs
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

(* The batches of [batches] as node ids. *)
let batch_ids (batches : Store.batch list) =
  List.map
    (fun (b : Store.batch) -> Array.to_list (Array.sub b.bstore.order b.blo (b.bhi - b.blo)))
    batches

(* At every flush of a random DFG, stall flushes included, the store
   scheduler and the list-based reference (Ref_sched) emit the same
   batches in the same order and charge the same simulated time. *)
let prop_scheduler_matches_reference scheduler name =
  qtest ~count:100 ("scheduler: " ^ name ^ " emits the list-based reference's batches")
    QCheck2.Gen.(pair (int_range 1 120) int)
    (fun (n, seed) ->
      let same = ref true in
      let compare rt =
        match rt.Runtime.pending with
        | [] -> ()
        | windows ->
          let live = Device.create () and reference = Device.create () in
          let batches = batch_ids (Scheduler.schedule scheduler live (List.rev windows)) in
          let expected =
            List.concat_map (Ref_sched.schedule scheduler reference) (List.rev windows)
          in
          let bits d = Array.map Int64.bits_of_float (Device.profiler d).Profiler.times_us in
          if batches <> expected || bits live <> bits reference then same := false
      in
      let rt, _ = build_random_dfg ~before_flush:compare ~scheduler ~seed n in
      compare rt;
      !same)


(* Four source kernels of one output shape: four signatures. *)
let tie_kernels =
  Array.init 4 (fun i ->
      op_kernel reg ~name:(Fmt.str "tie%d" i) ~roles:[||] ~shared_binds:[]
        (Op.Constant { shape = [ 1; 2 ]; value = float_of_int i })
        [])

(* Ready classes that tie on average depth and size launch in the order
   of their lowest node ids, whatever their signatures hash to: node [i]
   is of class [classes.(i mod 4)], all at depth 0, two per class. *)
let test_agenda_ties_lowest_id_first () =
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = true }
  in
  let rt = Runtime.create ~device ~scheduler:Config.Agenda ~policy ~seed:1 ~instances:1 in
  let classes = [| 2; 0; 3; 1 |] in
  for i = 0 to 7 do
    ignore
      (invoke rt ~kernel:tie_kernels.(classes.(i mod 4)) ~args:[||] ~instance:0 ~phase:0
         ~depth:0)
  done;
  Alcotest.(check (list (list int)))
    "tied classes launch lowest id first"
    [ [ 0; 4 ]; [ 1; 5 ]; [ 2; 6 ]; [ 3; 7 ] ]
    (batch_ids (Scheduler.schedule Config.Agenda device (List.rev rt.Runtime.pending)))

(* Reads the output of [source_kernel]'s once node as a shared argument,
   beside a batched one. *)
let once_reader_kernel =
  op_kernel reg ~name:"reader" ~roles:[| Kernel.Shared; Kernel.Batched |]
    ~shared_binds:[ 0, Kernel.Bonce { kernel = source_kernel.Kernel.id; out = 0 } ]
    Op.Add [ Kernel.Arg 0; Kernel.Arg 1 ]

(* A shared argument a node produces is a dependency of its readers: a
   reader whose batched argument is materialized sits one above the once
   node, with a reader of an in-window node, so the runtime-depth and
   agenda schedulers launch the two readers as one batch after both
   producers. *)
let test_once_output_is_a_dependency () =
  List.iter
    (fun scheduler ->
      let device = Device.create () in
      let policy =
        { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
          detect_dynamic_sharing = false }
      in
      let rt = Runtime.create ~device ~scheduler ~policy ~seed:1 ~instances:2 in
      let ictx = { Value.ictx_instance = 0; ictx_depth = 0; ictx_phase = 0 } in
      let build ictx =
        (invoke rt ~kernel:source_kernel ~args:[||] ~instance:0 ~phase:ictx.Value.ictx_phase
           ~depth:0).(0).Value.slot
      in
      ignore (Runtime.once rt (Runtime.bind rt source_kernel) ictx build);
      let x = input rt [ 1; 2 ] in
      let n = invoke rt ~kernel:unit_kernel ~args:[| x |] ~instance:1 ~phase:0 ~depth:0 in
      ignore (invoke rt ~kernel:once_reader_kernel ~args:[| x |] ~instance:0 ~phase:0 ~depth:1);
      ignore (invoke rt ~kernel:once_reader_kernel ~args:n ~instance:1 ~phase:0 ~depth:1);
      Alcotest.(check (list (list int)))
        (Config.scheduler_name scheduler ^ ": readers batch after both producers")
        [ [ 0 ]; [ 1 ]; [ 2; 3 ] ]
        (batch_ids (Scheduler.schedule scheduler device (List.rev rt.Runtime.pending))))
    [ Config.Runtime_depth; Config.Agenda ]

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
      (invoke rt ~kernel:source_kernel ~args:[||] ~instance:i ~phase:0 ~depth:0)
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
  in
  let b =
    invoke rt ~kernel:unit_kernel ~args:[| a.(0) |] ~instance:0 ~phase:1 ~depth:0
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
    let src ~instance ~depth =
      (invoke rt ~kernel:source_kernel ~args:[||] ~instance ~phase:0 ~depth).(0)
    in
    let a = src ~instance:0 ~depth:0 in
    let _skip = src ~instance:0 ~depth:1 in
    let b = src ~instance:1 ~depth:2 in
    let consume ~instance h =
      ignore (invoke rt ~kernel:unit_kernel ~args:[| h |] ~instance ~phase:0 ~depth:3)
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

(* --- The executor against the list-based reference (Ref_exec) --- *)

(* A cost model under which a launch lasts exactly its byte count, doubled
   when its inputs are scattered: no launch latency, an effectively
   infinite FLOP rate, one byte per microsecond. Every kernel span then
   carries the exact bits of its FLOPs (its args) and of its bytes (its
   duration); gather spans carry their bytes as an int. *)
let bytes_revealing_cost =
  {
    Cost_model.default with
    kernel_launch_us = 0.0;
    peak_flops_per_us = 1e300;
    min_rate_flops_per_us = 1e300;
    hbm_bandwidth_bytes_per_us = 1.0;
    indirection_penalty = 1.0;
  }

(* A random batch of one random kernel: 1-3 arguments, 1-6 sigmoid/add
   instructions with or without fusion, one or two outputs. A quarter of
   the kernels have only shared arguments (like TreeLSTM's kernel of six
   shared arguments and no batched one); the rest draw each argument's
   role, so shared ones sit at arbitrary indices. Each node gets its own
   mix of [2; 1] and [2; w] shapes for its batched arguments (so one batch
   spans several plans), and each batched argument lies contiguous,
   scattered or at one address shared by the whole batch. A shared
   argument is one handle for the whole batch, as a runtime resolves it
   once per kernel. Each node's plan then gets random fractional group
   costs: real plans hold small integers, whose float sums are exact in
   any order, and the oracle must see the summation order. Returns every
   node's plan and full argument vector, and the policy. *)
let random_exec_batch seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n and bool () = Random.State.bool rs in
  let nargs = 1 + int 3 in
  let arg () = Kernel.Arg (int nargs) in
  let instrs = ref [] in
  for dst = 0 to int 5 do
    let srcs =
      match !instrs with
      | _ :: _ when bool () -> [ Kernel.Tmp (dst - 1); arg () ]
      | _ -> if bool () then [ arg () ] else [ arg (); arg () ]
    in
    let op = if List.length srcs = 1 then Op.Sigmoid else Op.Add in
    instrs := { Kernel.op; srcs; dst } :: !instrs
  done;
  let instrs = Array.of_list (List.rev !instrs) in
  let last = Array.length instrs - 1 in
  let all_shared = int 4 = 0 in
  let roles =
    Array.init nargs (fun _ -> if all_shared || int 3 = 0 then Kernel.Shared else Kernel.Batched)
  in
  let shared_binds =
    List.filter_map
      (fun pos ->
        if roles.(pos) = Kernel.Shared then
          Some (pos, Kernel.Bconst { shape = [ 2; 1 ]; value = float_of_int pos })
        else None)
      (List.init nargs Fun.id)
  in
  let fusion = bool () in
  let out_tmps = if bool () then [| last |] else [| last; 0 |] in
  let kernel =
    Kernel.finish reg ~name:"oracle" ~roles ~shared_binds ~out_tmps
      (Lower.vertical_groups ~fusion instrs)
  in
  let n = 1 + int 6 and w = 2 + int 3 in
  let shape () = [ 2; (if bool () then w else 1) ] in
  let mat addr shape = Ref_exec.Hmat { tensor = None; addr; shape } in
  let columns =
    Array.map
      (fun role ->
        match role, int 3 with
        | Kernel.Shared, _ | Kernel.Batched, 0 ->
          let h = mat (int 1000) (shape ()) in
          Array.make n h
        | Kernel.Batched, 1 ->
          let cursor = ref (int 1000) in
          Array.init n (fun _ ->
              let s = shape () in
              let h = mat !cursor s in
              cursor := !cursor + Shape.numel s;
              h)
        | Kernel.Batched, _ -> Array.init n (fun _ -> mat (int 1000) (shape ())))
      roles
  in
  let policy =
    {
      Executor.gather_fusion = bool ();
      quality = (fun id -> 1.0 /. float_of_int (1 + (id mod 4)));
      compute_values = false;
      detect_dynamic_sharing = bool ();
    }
  in
  let node_args = Array.init n (fun i -> Array.map (fun col -> col.(i)) columns) in
  let cost _ = Random.State.float rs 1e4 in
  let plans =
    Array.map
      (fun args ->
        let p = Kernel.plan kernel (Array.map Ref_exec.handle_shape args) in
        { p with group_flops = Array.map cost p.group_flops; group_bytes = Array.map cost p.group_bytes })
      node_args
  in
  Array.combine plans node_args, policy

(* The reference on record nodes holding every argument. *)
let exec_reference device policy nodes =
  let nodes =
    Array.to_list
      (Array.mapi
         (fun id (plan, args) ->
           { Ref_exec.id; plan; args; phase = 0; depth = 0; instance = 0; outs = None })
         nodes)
  in
  Ref_exec.exec_batch device policy ~rand_for:(fun _ -> Rng.create 0) nodes;
  List.map
    (fun (nd : Ref_exec.node) ->
      match nd.outs with
      | Some outs -> Array.to_list (Array.map (fun (o : Ref_exec.out) -> o.addr, o.shape) outs)
      | None -> [])
    nodes

(* The live executor on the layout the engines build: nodes of a store
   carrying their batched arguments, and the shared ones in one array every
   node of the kernel points at. *)
let exec_live device policy nodes =
  let s = Store.create () in
  let slot = function
    | Ref_exec.Hmat o -> Store.add_value s ~addr:o.addr ~shape:o.shape ~numel:(Shape.numel o.shape)
    | Ref_exec.Hnode _ -> assert false
  in
  let k = (fst nodes.(0)).Kernel.kernel in
  let shared = Array.of_list (List.map (fun (pos, _) -> slot (snd nodes.(0)).(pos)) k.shared_binds) in
  Array.iter
    (fun (plan, full) ->
      let args = Array.map (fun pos -> Store.handle s (slot full.(pos))) k.batched in
      ignore
        (Store.add_node s ~values:false ~plan ~args ~shared ~shared_handles:[||] ~instance:0 ~phase:0
           ~depth:0 ~sig_key:plan.Kernel.id))
    nodes;
  let n = Array.length nodes in
  s.order <- Array.init n Fun.id;
  Executor.exec_batch device policy ~rand_for:(fun _ -> Rng.create 0)
    { Store.bstore = s; blo = 0; bhi = n };
  List.init n (fun id ->
      List.init (Array.length s.plan.(id).out_shapes) (fun k ->
          let v = s.out_lo.(id) + k in
          s.addr.(v), s.shape.(v)))

(* Run one executor on a fresh device and record everything it did: every
   span with its exact bits, the profiler, the arena and each node's output
   addresses and shapes. *)
let observe_exec exec (nodes, policy) =
  let tracer = Trace.create () in
  let device = Device.create ~cost:bytes_revealing_cost ~tracer () in
  let outs = exec device policy nodes in
  let bits = Int64.bits_of_float in
  let arg = function
    | Obs.Json.Float f -> Fmt.str "%Lx" (bits f)
    | Obs.Json.Int i -> string_of_int i
    | _ -> "?"
  in
  let spans =
    List.map
      (fun (ev : Trace.event) ->
        Fmt.str "%s ts=%Lx dur=%Lx %s" ev.ev_name (bits ev.ev_ts_us) (bits ev.ev_dur_us)
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ arg v) ev.ev_args)))
      (Trace.events tracer)
  in
  let prof = Device.profiler device in
  ( spans,
    Array.map bits prof.Profiler.times_us,
    Profiler.counters prof,
    Memory.used_elems (Device.memory device),
    outs )

let prop_executor_matches_reference =
  qtest ~count:300 "executor: same gathers, launches, bits and outputs as the list-based reference"
    QCheck2.Gen.int
    (fun seed ->
      let batch = random_exec_batch seed in
      observe_exec exec_live batch = observe_exec exec_reference batch)

(* The launch sums of a batch whose nodes share one plan, and of one whose
   nodes carry two plans (two plans of one kernel under one signature),
   match the reference bit for bit. Ten additions of 0.1 are not ten times
   0.1, so a shared plan's sums must still be taken one node at a time. *)
let test_executor_plan_uniform_sums () =
  let costly flops (p : Kernel.plan) =
    { p with group_flops = Array.map (fun _ -> flops) p.group_flops;
             group_bytes = Array.map (fun _ -> 0.7) p.group_bytes }
  in
  let narrow = costly 0.1 (Kernel.plan pair_kernel [| [ 1; 4 ]; [ 1; 4 ] |]) in
  let wide = costly 0.3 (Kernel.plan pair_kernel [| [ 1; 6 ]; [ 1; 6 ] |]) in
  let mat addr shape = Ref_exec.Hmat { tensor = None; addr; shape } in
  (* The first argument back to back, the second at scattered addresses. *)
  let batch plans =
    let cursor = ref 0 in
    Array.mapi
      (fun i (p : Kernel.plan) ->
        let shape = p.arg_shapes.(0) in
        let a = mat !cursor shape in
        cursor := !cursor + Shape.numel shape;
        p, [| a; mat (1000 + (17 * i)) shape |])
      plans
  in
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.5); compute_values = false;
      detect_dynamic_sharing = false }
  in
  List.iter
    (fun (what, plans) ->
      let nodes = batch plans in
      check_true what
        (observe_exec exec_live (nodes, policy) = observe_exec exec_reference (nodes, policy)))
    [
      "one plan", Array.make 10 narrow;
      "two plans", Array.init 10 (fun i -> if i mod 3 = 1 then wide else narrow);
    ]

(* Minor words one accounting-only launch of [n] nodes of [pair_kernel]
   allocates. The first argument lies back to back and the second is one
   address for every node, so a batch of more than one node reads it
   scattered. Everything but the launch is built before counting. *)
let launch_words n =
  let s = Store.create () in
  let plan = Kernel.plan pair_kernel [| [ 1; 4 ]; [ 1; 4 ] |] in
  for i = 0 to n - 1 do
    let a = Store.add_value s ~addr:(4 * i) ~shape:[ 1; 4 ] ~numel:4 in
    let b = Store.add_value s ~addr:0 ~shape:[ 1; 4 ] ~numel:4 in
    ignore
      (Store.add_node s ~values:false ~plan ~args:[| Store.handle s a; Store.handle s b |]
         ~shared:[||] ~shared_handles:[||] ~instance:i ~phase:0 ~depth:0 ~sig_key:plan.id)
  done;
  s.order <- Array.init n Fun.id;
  let batch = { Store.bstore = s; blo = 0; bhi = n } in
  let device = Device.create () in
  let policy =
    { Executor.gather_fusion = true; quality = Autosched.quality Autosched.vendor;
      compute_values = false; detect_dynamic_sharing = false }
  in
  let rand_for _ = Alcotest.fail "an accounting-only launch draws no randomness" in
  let before = Gc.minor_words () in
  Executor.exec_batch device policy ~rand_for batch;
  let words = Gc.minor_words () -. before in
  check_int "one launch" 1 (Device.profiler device).Profiler.kernel_calls;
  words

let test_executor_launch_allocation () =
  let one = launch_words 1 and many = launch_words 64 in
  check_float "no minor words per node" one many;
  check_true (Fmt.str "a launch allocates a few words (%.0f)" one) (one <= 16.0)

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

(* Reference for [Kernel.plan]'s single pass: temporary shapes, per-group
   FLOPs and per-group internal traffic, each from its own walk over the
   instructions, summed in the same order. *)
let reference_plan (k : Kernel.t) (arg_shapes : Shape.t array) =
  let tmps = Array.make k.ntmps [] in
  let shape_of = function Kernel.Arg i -> arg_shapes.(i) | Kernel.Tmp j -> tmps.(j) in
  List.iter
    (fun (g : Kernel.group) ->
      List.iter
        (fun (i : Kernel.instr) -> tmps.(i.dst) <- Op.out_shape i.op (List.map shape_of i.srcs))
        g.instrs)
    k.groups;
  let group_of = Hashtbl.create 16 in
  List.iteri
    (fun gi (g : Kernel.group) ->
      List.iter (fun (i : Kernel.instr) -> Hashtbl.replace group_of i.dst gi) g.instrs)
    k.groups;
  let per_group f =
    List.mapi
      (fun gi (g : Kernel.group) -> List.fold_left (fun acc i -> acc +. f gi i) 0.0 g.instrs)
      k.groups
    |> Array.of_list
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
  tmps, flops, bytes

(* Every node of a catalog model's batch — read from the store of the run
   (the VM's own, which outlives the run) — has the plan a fresh
   computation gives its arguments' shapes, its plan's signature, its
   batched arguments only, and its kernel's shared ones: weights and
   constants materialized, a once node's outputs that node's. *)
let test_plans_match_fresh_computation () =
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let compiled = compile ~inputs:model.Model.inputs model.Model.source in
      let run = ref None in
      let policy =
        {
          Policy.acrobat_policy with
          sig_of =
            (fun rt plan args ->
              run := Some rt;
              Policy.acrobat_policy.sig_of rt plan args);
        }
      in
      ignore
        (Driver.run_batch ~mode:Driver.Vm_mode ~policy ~quality:compiled.quality
           ~lprog:compiled.lprog ~weights:(model.Model.gen_weights 1)
           ~instances:(gen_batch model ~batch:4 ~seed:3) ());
      let s = (Option.get !run).Runtime.store in
      check_true (id ^ ": nodes seen") (s.nodes > 0);
      for n = 0 to s.nodes - 1 do
        let plan = s.plan.(n) in
        let k = plan.kernel in
        let shapes = Array.init k.nargs (fun pos -> s.shape.(Store.arg_slot s n pos)) in
        let fresh = Kernel.plan k shapes in
        let tmps, flops, bytes = reference_plan k shapes in
        let what = Fmt.str "%s node %d" id n in
        let same field planned fresh reference =
          check_true (what ^ ": " ^ field) (planned = fresh && fresh = reference)
        in
        same "tmp_shapes" plan.tmp_shapes fresh.tmp_shapes tmps;
        same "out_shapes" plan.out_shapes fresh.out_shapes
          (Array.map (fun i -> tmps.(i)) k.out_tmps);
        same "group_flops" plan.group_flops fresh.group_flops flops;
        same "group_bytes" plan.group_bytes fresh.group_bytes bytes;
        same "group_arg_reads" plan.group_arg_reads fresh.group_arg_reads
          (Array.of_list (List.map Array.of_list (Ref_exec.group_arg_reads k)));
        check_true (what ^ ": flops") (plan.flops = Array.fold_left ( +. ) 0.0 flops);
        check_true (what ^ ": arg_shapes") (plan.arg_shapes = shapes);
        check_int (what ^ ": sig_key is the plan's id") plan.id s.sig_key.(n);
        let next_args = if n + 1 < s.nodes then s.arg_lo.(n + 1) else s.nargs in
        check_int (what ^ ": carries its batched arguments only") (Array.length k.batched)
          (next_args - s.arg_lo.(n));
        check_int (what ^ ": one shared slot per binding") (List.length k.shared_binds)
          (Array.length s.shared.(n));
        List.iter
          (fun (pos, bind) ->
            let v = Store.arg_slot s n pos in
            let owner = s.owner.(v) in
            check_true (what ^ ": shared arguments are shared") (k.roles.(pos) = Kernel.Shared);
            match bind with
            | Kernel.Bonce { kernel; out } ->
              check_true (what ^ ": a once output is its once node's")
                (owner >= 0 && owner < n
                && s.plan.(owner).kernel.id = kernel
                && Array.length s.plan.(owner).kernel.batched = 0
                && s.out_lo.(owner) + out = v)
            | Kernel.Bparam _ | Kernel.Bconst _ ->
              check_true (what ^ ": weights and constants are materialized") (owner = -1))
          k.shared_binds
      done)
    Models.tiny_ids

let accounting_runtime ~instances =
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = false;
      detect_dynamic_sharing = false }
  in
  Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth ~policy ~seed:1
    ~instances

let test_plans_per_shape () =
  let rt = accounting_runtime ~instances:2 in
  let narrow = [| input rt [ 1; 2 ] |] and wide = [| input rt [ 1; 3 ] |] in
  let plan args = Runtime.plan_in rt (Runtime.bind rt unit_kernel) args in
  let p_narrow = plan narrow and p_wide = plan wide in
  check_true "one plan per shape" (p_narrow != p_wide);
  check_true "plans are shared" (plan [| input rt [ 1; 2 ] |] == p_narrow);
  check_true "distinct plan ids" (p_narrow.id <> p_wide.id);
  let outs =
    List.concat_map
      (fun instance ->
        List.map
          (fun (plan, args) ->
            Runtime.output rt
              (Runtime.invoke rt (Runtime.bind rt unit_kernel) ~plan ~args ~instance ~phase:0
                 ~depth:0 ~sig_key:plan.id)
              0)
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
    op_kernel reg ~name:"slice" ~roles:[| Kernel.Batched |] ~shared_binds:[]
      (Op.Slice { lo = 0; hi = 4 })
      [ Kernel.Arg 0 ]
  in
  let slice_of shape =
    invoke rt ~kernel:slice ~args:[| input rt shape |] ~instance:0 ~phase:0 ~depth:0
  in
  for attempt = 1 to 3 do
    match slice_of [ 1; 2 ] with
    | _ -> Alcotest.failf "attempt %d: expected a shape error" attempt
    | exception Op.Shape_error _ -> ()
  done;
  check_true "nothing appended" (not (Runtime.has_pending rt));
  let outs = slice_of [ 1; 8 ] in
  Alcotest.(check (list int)) "a fitting shape still plans" [ 1; 4 ] (Value.handle_shape outs.(0))

(* Plans are shared per compiled program: both engines attach the
   registry's plan table, so a later batch — on either engine — reuses
   every plan an earlier one built instead of planning again. *)
let test_plans_shared_per_program () =
  List.iter
    (fun id ->
      let model = Models.tiny id in
      let compiled = compile ~inputs:model.Model.inputs model.Model.source in
      let table = compiled.lprog.Lowered.registry.Kernel.plan_table in
      (* The plan of every node a batch built, in order. *)
      let run mode =
        let used = ref [] in
        let policy =
          {
            Policy.acrobat_policy with
            sig_of =
              (fun rt plan args ->
                used := plan :: !used;
                Policy.acrobat_policy.sig_of rt plan args);
          }
        in
        ignore
          (Driver.run_batch ~mode ~policy ~quality:compiled.quality ~lprog:compiled.lprog
             ~weights:(model.Model.gen_weights 1)
             ~instances:(gen_batch model ~batch:4 ~seed:3) ());
        List.rev !used
      in
      let first = run Driver.Aot_mode in
      let built = Array.copy table.Kernel.by_kernel in
      check_true (id ^ ": the first batch planned") (Array.exists (( <> ) []) built);
      let again = run Driver.Aot_mode and vm = run Driver.Vm_mode in
      check_true (id ^ ": later batches built no plan")
        (Array.length built = Array.length table.Kernel.by_kernel
        && Array.for_all2 ( == ) built table.Kernel.by_kernel);
      List.iter
        (fun r ->
          check_true (id ^ ": nodes share the first batch's plans")
            (List.for_all2 ( == ) first r))
        [ again; vm ];
      Array.iteri
        (fun k plans ->
          List.iter
            (fun (p : Kernel.plan) ->
              check_int (Fmt.str "%s kernel %d: one plan per shape vector" id k) 1
                (List.length
                   (List.filter (fun (q : Kernel.plan) -> q.arg_shapes = p.arg_shapes) plans));
              check_int (Fmt.str "%s kernel %d: filed under its kernel" id k) k p.kernel.id)
            plans)
        table.Kernel.by_kernel)
    Models.tiny_ids

(* A shared table never caches a shape error: a failing plan leaves it
   untouched, and the first fitting shape adds exactly one plan. *)
let test_plan_table_skips_shape_errors () =
  let rt = accounting_runtime ~instances:1 in
  let table = Kernel.plan_table () in
  Runtime.share_plans rt table;
  let slice =
    op_kernel (Kernel.registry ()) ~name:"slice" ~roles:[| Kernel.Batched |] ~shared_binds:[]
      (Op.Slice { lo = 0; hi = 4 })
      [ Kernel.Arg 0 ]
  in
  let plan args = Runtime.plan_in rt (Runtime.bind rt slice) args in
  for attempt = 1 to 2 do
    match plan [| input rt [ 1; 2 ] |] with
    | _ -> Alcotest.failf "attempt %d: expected a shape error" attempt
    | exception Op.Shape_error _ -> ()
  done;
  check_int "nothing cached" 0 (List.length (Kernel.plans table slice));
  let p = plan [| input rt [ 1; 8 ] |] in
  check_true "the fitting plan is cached"
    (match Kernel.plans table slice with [ q ] -> q == p | _ -> false);
  check_true "and found again" (plan [| input rt [ 1; 8 ] |] == p)

(* Kernel ids are dense per registry, so kernels of two compilations can
   share one, and with it a printed signature; plan ids are unique across
   plan tables, so nodes of the two kernels never batch together. *)
let test_kernels_of_two_registries_never_batch () =
  let unary op =
    op_kernel (Kernel.registry ()) ~name:"unary" ~roles:[| Kernel.Batched |] ~shared_binds:[]
      op [ Kernel.Arg 0 ]
  in
  let sigmoid = unary Op.Sigmoid and tanh = unary Op.Tanh in
  check_int "one kernel id" sigmoid.id tanh.id;
  let policy =
    { Executor.gather_fusion = true; quality = (fun _ -> 0.8); compute_values = true;
      detect_dynamic_sharing = false }
  in
  let rt =
    Runtime.create ~device:(Device.create ()) ~scheduler:Config.Inline_depth ~policy ~seed:1
      ~instances:2
  in
  let x = Tensor.random (Rng.create 5) [ 1; 4 ] in
  let inputs = Runtime.upload_inputs rt ~batched:true [ x; x ] in
  let outs =
    List.map2
      (fun kernel (instance, h) ->
        (invoke rt ~kernel ~args:[| h |] ~instance ~phase:0 ~depth:0).(0))
      [ sigmoid; tanh ]
      (List.mapi (fun i h -> i, h) inputs)
  in
  Runtime.flush rt;
  let prof = Runtime.profiler rt in
  check_int "two batches" 2 prof.Profiler.batches_executed;
  check_int "two launches" 2 prof.Profiler.kernel_calls;
  List.iter2
    (fun expected h ->
      match Value.handle_tensor h with
      | Some t -> check_tensor "each kernel's own value" expected t
      | _ -> Alcotest.fail "no value")
    [ Ops.sigmoid x; Ops.tanh x ]
    outs

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
    prop_scheduler_matches_reference Config.Inline_depth "inline-depth";
    prop_scheduler_matches_reference Config.Runtime_depth "runtime-depth";
    prop_scheduler_matches_reference Config.Agenda "agenda";
    Alcotest.test_case "scheduler: inline batches by depth" `Quick test_inline_depth_batches_by_depth;
    Alcotest.test_case "scheduler: phase ordering" `Quick test_phase_ordering;
    Alcotest.test_case "executor: gather behaviour" `Quick test_executor_gathers_on_scattered;
    prop_executor_matches_reference;
    Alcotest.test_case "executor: a launch allocates nothing per node" `Quick
      test_executor_launch_allocation;
    Alcotest.test_case "runtime: constant memoization" `Quick test_runtime_constants_memoized;
    Alcotest.test_case "runtime: decision determinism" `Quick test_runtime_decisions_deterministic;
    Alcotest.test_case "runtime: upload accounting" `Quick test_upload_accounting;
    Alcotest.test_case "plans: match a fresh computation on every catalog model" `Quick
      test_plans_match_fresh_computation;
    Alcotest.test_case "plans: one per argument shape, never batched together" `Quick
      test_plans_per_shape;
    Alcotest.test_case "plans: shape errors raise on every invoke" `Quick
      test_plan_shape_error_every_time;
    Alcotest.test_case "plans: shared by every batch of one compiled program" `Quick
      test_plans_shared_per_program;
    Alcotest.test_case "plans: a shared table never caches a shape error" `Quick
      test_plan_table_skips_shape_errors;
    prop_fingerprint_detects_perturbation;
    prop_fingerprint_shape_sensitive;
    prop_fingerprint_component_order_invariant;
    Alcotest.test_case "plans: kernels of two registries never batch together" `Quick
      test_kernels_of_two_registries_never_batch;
    Alcotest.test_case "scheduler: agenda ties launch lowest id first" `Quick
      test_agenda_ties_lowest_id_first;
    Alcotest.test_case "scheduler: a once output is a dependency of its readers" `Quick
      test_once_output_is_a_dependency;
    Alcotest.test_case "executor: one-plan and two-plan launch sums match the reference" `Quick
      test_executor_plan_uniform_sums;
  ]
