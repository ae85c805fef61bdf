(** Tests for the simulated device: cost model, memory arena (including the
    bounded-capacity OOM path), fault injection, profiler, launch
    accounting. *)

open Acrobat
open T_util
module Memory = Acrobat_device.Memory
module Faults = Acrobat_device.Faults

let cm = Cost_model.default

(* One kernel launch with no memory traffic: at full quality and with
   contiguous inputs unless the test says otherwise. *)
let launch ?(quality = 1.0) ?(scattered_inputs = false) d ~flops =
  Device.launch_kernel d ~quality ~scattered_inputs ~flops ~bytes:0.0

let test_kernel_time_monotone () =
  let t f = Cost_model.kernel_time cm ~flops:f ~bytes:0.0 in
  check_true "more flops, more time" (t 1.0e6 < t 1.0e7);
  check_true "launch floor" (t 0.0 >= cm.Cost_model.kernel_launch_us)

let test_kernel_time_saturation () =
  (* Effective rate grows with kernel size: time per flop shrinks. *)
  let per_flop f = (Cost_model.kernel_time cm ~flops:f ~bytes:0.0 -. cm.Cost_model.kernel_launch_us) /. f in
  check_true "big kernels are more efficient" (per_flop 1.0e9 < per_flop 1.0e6)

let test_kernel_time_roofline () =
  let small_traffic = Cost_model.kernel_time cm ~flops:1000.0 ~bytes:0.0 in
  let big_traffic = Cost_model.kernel_time cm ~flops:1000.0 ~bytes:1.0e8 in
  check_true "memory-bound kernels pay bandwidth" (big_traffic > small_traffic +. 100.0)

let test_memcpy_time () =
  let t0 = Cost_model.memcpy_time cm ~bytes:0 in
  check_float "call overhead" cm.Cost_model.memcpy_call_us t0;
  check_true "bandwidth term" (Cost_model.memcpy_time cm ~bytes:8_000_000 > 900.0)

let test_memory_bump () =
  let m = Memory.create () in
  let a = Memory.alloc m ~elems:10 in
  let b = Memory.alloc m ~elems:5 in
  check_int "first at 0" 0 a;
  check_int "bump" 10 b;
  check_int "used" 15 (Memory.used_elems m);
  Memory.reset m;
  check_int "reset" 0 (Memory.used_elems m);
  check_int "peak survives reset" 15 (Memory.peak_elems m)

let test_memory_capacity_boundary () =
  let m = Memory.create ~capacity:100 () in
  ignore (Memory.alloc m ~elems:60);
  (* A boundary allocation filling the arena exactly must succeed... *)
  ignore (Memory.alloc m ~elems:40);
  check_int "arena exactly full" 100 (Memory.used_elems m);
  (* ...and the very next element must raise the typed OOM, not an assert. *)
  (match Memory.alloc m ~elems:1 with
  | _ -> Alcotest.fail "expected Device_oom past capacity"
  | exception Memory.Device_oom { requested; in_use; capacity } ->
    check_int "requested" 1 requested;
    check_int "in use" 100 in_use;
    check_int "capacity" 100 capacity);
  check_int "oom counted" 1 (Memory.oom_failures m);
  (* The failed alloc must not corrupt the arena: reset frees it, keeps peak. *)
  Memory.reset m;
  check_int "reset empties" 0 (Memory.used_elems m);
  check_int "peak survives reset" 100 (Memory.peak_elems m);
  ignore (Memory.alloc m ~elems:100)

let test_faults_parse () =
  let p = Faults.parse "seed=7,kernel=0.05,straggler=0.02x6,reset=0.001,capacity=200000,poison=3+17" in
  check_int "seed" 7 p.Faults.seed;
  check_float "kernel" 0.05 p.Faults.kernel_fault_rate;
  check_float "straggler rate" 0.02 p.Faults.straggler_rate;
  check_float "straggler mult" 6.0 p.Faults.straggler_mult;
  check_float "reset" 0.001 p.Faults.reset_rate;
  check_true "capacity" (p.Faults.capacity_elems = Some 200000);
  Alcotest.(check (list int)) "poison ids" [ 3; 17 ] p.Faults.poison;
  check_true "enabled" (Faults.enabled p);
  check_bool "none disabled" false (Faults.enabled Faults.none);
  (match Faults.parse "kernel=1.5" with
  | _ -> Alcotest.fail "expected rejection of probability > 1"
  | exception Invalid_argument _ -> ());
  match Faults.parse "bogus=1" with
  | _ -> Alcotest.fail "expected rejection of unknown key"
  | exception Invalid_argument msg ->
    (* The rejection must name the bad key and teach the valid ones. *)
    check_true "error names the key" (contains msg "bogus");
    List.iter
      (fun k -> check_true ("error lists valid key " ^ k) (contains msg k))
      [ "seed"; "kernel"; "straggler"; "reset"; "capacity"; "poison" ]

let test_faults_spec_round_trip () =
  List.iter
    (fun spec ->
      let p = Faults.parse spec in
      check_true ("pp/parse round-trip for " ^ spec) (Faults.parse (Faults.to_spec p) = p))
    [
      "seed=7,kernel=0.05,straggler=0.02x6,reset=0.001,capacity=200000,poison=3+17";
      "kernel=0.3";
      "seed=11,straggler=0.15x8";
      "reset=0.1,poison=5";
      "seed=0";
      "seed=4,corrupt=0.3";
      "corrupt=0.05,flaky=2";
      "flaky=0";
    ];
  check_true "to_spec emits the canonical key order"
    (Faults.to_spec (Faults.parse "poison=5,kernel=0.3,seed=2")
    = "seed=2,kernel=0.3,straggler=0x6,reset=0,poison=5");
  (* Corruption clauses render only when set, so legacy plans keep their
     historical spec bytes. *)
  check_true "corrupt/flaky appended after legacy keys"
    (Faults.to_spec (Faults.parse "flaky=1,corrupt=0.2")
    = "seed=0,kernel=0,straggler=0x6,reset=0,corrupt=0.2,flaky=1")

let test_faults_validate () =
  let rejects ?(key = "") plan =
    match Faults.validate plan with
    | () -> Alcotest.fail "expected validate to reject the plan"
    | exception Invalid_argument msg ->
      if key <> "" then check_true ("error names " ^ key) (contains msg key)
  in
  (* Parser-bypassing (programmatic) plans hit the same checks as specs,
     with the offending key named. *)
  Faults.validate Faults.none;
  rejects ~key:"kernel" { Faults.none with Faults.kernel_fault_rate = -0.1 };
  rejects ~key:"kernel" { Faults.none with Faults.kernel_fault_rate = Float.nan };
  rejects ~key:"straggler" { Faults.none with Faults.straggler_rate = 1.5 };
  rejects ~key:"reset" { Faults.none with Faults.reset_rate = infinity };
  rejects ~key:"straggler multiplier" { Faults.none with Faults.straggler_mult = 0.5 };
  rejects ~key:"reset cost" { Faults.none with Faults.reset_cost_us = -1.0 };
  rejects ~key:"capacity" { Faults.none with Faults.capacity_elems = Some 0 };
  (* Rates that individually pass but sum past 1.0 would make the
     per-attempt decision bands overlap. *)
  rejects ~key:"exceeds 1"
    {
      Faults.none with
      Faults.kernel_fault_rate = 0.5;
      reset_rate = 0.4;
      straggler_rate = 0.2;
    };
  (* The parse path rejects the same malformed rates, naming the key. *)
  List.iter
    (fun (spec, key) ->
      match Faults.parse spec with
      | _ -> Alcotest.fail ("expected parse to reject " ^ spec)
      | exception Invalid_argument msg -> check_true ("parse names " ^ key) (contains msg key))
    [
      "kernel=-0.2", "kernel";
      "kernel=nan", "kernel";
      "reset=1.01", "reset";
      "straggler=2", "straggler";
      "kernel=0.9,reset=0.2", "exceeds 1";
    ]

let test_faults_corrupt_parse () =
  let p = Faults.parse "seed=5,corrupt=0.25,flaky=3" in
  check_int "seed" 5 p.Faults.seed;
  check_float "corrupt" 0.25 p.Faults.corrupt_rate;
  check_true "flaky" (p.Faults.flaky_after = Some 3);
  check_true "enabled" (Faults.enabled p);
  check_true "corrupts" (Faults.corrupts p);
  check_bool "legacy faults do not corrupt" false
    (Faults.corrupts (Faults.parse "kernel=0.3"));
  check_true "flaky alone corrupts" (Faults.corrupts (Faults.parse "flaky=0"));
  check_true "flaky alone enables the plan" (Faults.enabled (Faults.parse "flaky=0"));
  (match Faults.parse "corrupt=1.5" with
  | _ -> Alcotest.fail "expected rejection of probability > 1"
  | exception Invalid_argument msg -> check_true "names corrupt" (contains msg "corrupt"));
  (match Faults.parse "flaky=-1" with
  | _ -> Alcotest.fail "expected rejection of a negative onset"
  | exception Invalid_argument msg -> check_true "names flaky" (contains msg "flaky"));
  (* Programmatic (parser-bypassing) plans hit the same checks. *)
  (match Faults.validate { Faults.none with Faults.corrupt_rate = Float.nan } with
  | () -> Alcotest.fail "expected validate to reject nan corrupt rate"
  | exception Invalid_argument msg ->
    check_true "validate names corrupt" (contains msg "corrupt"));
  match Faults.validate { Faults.none with Faults.flaky_after = Some (-2) } with
  | () -> Alcotest.fail "expected validate to reject a negative onset"
  | exception Invalid_argument msg -> check_true "validate names flaky" (contains msg "flaky")

(* Run [attempts] single-launch attempts against a fresh injector, returning
   the per-attempt fate trace. *)
let fault_trace plan attempts =
  let inj = Faults.create plan in
  List.init attempts (fun _ ->
      let d = Device.create ~faults:inj () in
      match launch d ~flops:1.0e6 with
      | () -> "ok"
      | exception Faults.Fault { kind; _ } -> Faults.kind_name kind)

let test_faults_deterministic () =
  let plan = Faults.parse "seed=3,kernel=0.3,reset=0.1" in
  let a = fault_trace plan 200 and b = fault_trace plan 200 in
  Alcotest.(check (list string)) "same seed, same fault sequence" a b;
  check_true "faults actually injected" (List.exists (fun s -> s = "kernel-fault") a);
  check_true "resets actually injected" (List.exists (fun s -> s = "device-reset") a);
  check_true "clean attempts too" (List.exists (fun s -> s = "ok") a);
  let c = fault_trace (Faults.parse "seed=4,kernel=0.3,reset=0.1") 200 in
  check_true "seed-sensitive" (c <> a)

let test_faults_corrupt_injection () =
  (* corrupt=1: every attempt silently corrupts — nothing raises, the
     launch succeeds, only the injector's ground truth knows. *)
  let inj = Faults.create (Faults.parse "corrupt=1.0") in
  let d = Device.create ~faults:inj () in
  launch d ~flops:1.0e6;
  check_true "device reports the corrupting attempt" (Device.corrupting d);
  check_true "injector ground truth" (Faults.corrupt_attempt inj);
  check_int "corruption counted" 1 (Faults.corruptions inj);
  (* flaky=2: deterministic onset — attempts 1..2 clean, all later corrupt. *)
  let inj = Faults.create (Faults.parse "flaky=2") in
  let fates =
    List.init 5 (fun _ -> Device.corrupting (Device.create ~faults:inj ()))
  in
  Alcotest.(check (list bool)) "flaky onset after attempt 2"
    [ false; false; true; true; true ] fates;
  (* Probabilistic corruption replays byte-for-byte from the plan seed. *)
  let trace spec =
    let inj = Faults.create (Faults.parse spec) in
    List.init 100 (fun _ -> Device.corrupting (Device.create ~faults:inj ()))
  in
  let a = trace "seed=5,corrupt=0.3" in
  Alcotest.(check (list bool)) "same seed, same corruption pattern" a
    (trace "seed=5,corrupt=0.3");
  check_true "corruptions actually drawn" (List.mem true a);
  check_true "clean attempts too" (List.mem false a);
  check_true "seed-sensitive" (trace "seed=6,corrupt=0.3" <> a)

let test_faults_corrupt_stream_preserved () =
  (* Flaky onset is deterministic and draw-free, so adding it must not
     perturb the legacy fault-fate stream of a (seed, plan) pair. (A
     [corrupt=] clause does draw — one independent uniform per attempt,
     taken strictly after the fate draw — so it legitimately shifts later
     fates; the byte-stability claim is about plans without corruption.) *)
  let base = "seed=3,kernel=0.3,reset=0.1" in
  Alcotest.(check (list string)) "fault fates unchanged under flaky="
    (fault_trace (Faults.parse base) 200)
    (fault_trace (Faults.parse (base ^ ",flaky=50")) 200);
  (* And the zero-rate corrupt clause is inert by construction: the draw is
     short-circuited, so the stream stays the legacy one. *)
  let p = { (Faults.parse base) with Faults.corrupt_rate = 0.0 } in
  Alcotest.(check (list string)) "corrupt_rate 0 draws nothing"
    (fault_trace (Faults.parse base) 200)
    (fault_trace p 200)

let test_faults_straggler_mult () =
  (* straggler rate 1: every attempt straggles by exactly the multiplier. *)
  let inj = Faults.create (Faults.parse "straggler=1.0x4") in
  let slow = Device.create ~faults:inj () in
  let fast = Device.create () in
  launch slow ~flops:1.0e6;
  launch fast ~flops:1.0e6;
  let k d = Profiler.time_us (Device.profiler d) Profiler.Kernel_exec in
  check_float ~eps:1e-6 "straggler multiplies kernel time" (4.0 *. k fast) (k slow);
  check_int "straggler counted once per attempt" 1 (Faults.stragglers inj)

let test_faults_burn_time () =
  (* An injected fault still charges the device for the failed attempt. *)
  let inj = Faults.create (Faults.parse "kernel=1.0") in
  let d = Device.create ~faults:inj () in
  (match launch d ~flops:1.0e6 with
  | () -> Alcotest.fail "expected injected fault"
  | exception Faults.Fault _ -> ());
  check_true "failed attempt burned time" (Profiler.total_us (Device.profiler d) > 0.0);
  check_int "fault counted" 1 (Faults.kernel_faults inj)

let test_contiguity () =
  check_true "empty" (Memory.contiguous []);
  check_true "single" (Memory.contiguous [ 5, 3 ]);
  check_true "adjacent" (Memory.contiguous [ 0, 4; 4, 2; 6, 1 ]);
  check_bool "gap" false (Memory.contiguous [ 0, 4; 5, 2 ]);
  check_bool "out of order" false (Memory.contiguous [ 4, 2; 0, 4 ]);
  check_bool "duplicate address" false (Memory.contiguous [ 0, 4; 0, 4 ])

let prop_contiguous_alloc =
  qtest "memory: consecutive allocs are contiguous"
    QCheck2.Gen.(list_size (int_range 1 10) (int_range 1 100))
    (fun sizes ->
      let m = Memory.create () in
      let chunks = List.map (fun sz -> Memory.alloc m ~elems:sz, sz) sizes in
      Memory.contiguous chunks)

let test_device_counters () =
  let d = Device.create () in
  launch d ~flops:1000.0;
  launch d ~flops:1000.0;
  ignore (Device.launch_gather d ~bytes:4000 ~elems:1000);
  Device.memcpy d ~bytes:100;
  let p = Device.profiler d in
  check_int "kernel calls incl gather" 3 p.Profiler.kernel_calls;
  check_int "gathers" 1 p.Profiler.gather_kernels;
  check_int "gather bytes" 4000 p.Profiler.gather_bytes;
  check_int "memcpys" 1 p.Profiler.memcpy_calls;
  check_true "api time" (Profiler.time_us p Profiler.Api_overhead > 0.0);
  check_true "total positive" (Profiler.total_ms p > 0.0)

let test_quality_divides_time () =
  let d1 = Device.create () and d2 = Device.create () in
  launch d1 ~quality:1.0 ~flops:1.0e6;
  launch d2 ~quality:0.5 ~flops:1.0e6;
  let k d = Profiler.time_us (Device.profiler d) Profiler.Kernel_exec in
  check_float ~eps:1e-6 "half quality doubles time" (2.0 *. k d1) (k d2)

let test_scattered_penalty () =
  let d1 = Device.create () and d2 = Device.create () in
  launch d1 ~flops:1.0e6;
  launch d2 ~scattered_inputs:true ~flops:1.0e6;
  let k d = Profiler.time_us (Device.profiler d) Profiler.Kernel_exec in
  check_true "indirection penalty" (k d2 > k d1)

let test_profiler_merge () =
  let a = Profiler.create () and b = Profiler.create () in
  Profiler.charge a Profiler.Scheduling 5.0;
  Profiler.charge b Profiler.Scheduling 7.0;
  b.Profiler.kernel_calls <- 3;
  Profiler.merge ~into:a b;
  check_float "times merged" 12.0 (Profiler.time_us a Profiler.Scheduling);
  check_int "counters merged" 3 a.Profiler.kernel_calls

let test_profiler_reset () =
  let p = Profiler.create () in
  Profiler.charge p Profiler.Kernel_exec 4.0;
  p.Profiler.nodes_created <- 9;
  Profiler.reset p;
  check_float "times zeroed" 0.0 (Profiler.total_us p);
  check_int "counters zeroed" 0 p.Profiler.nodes_created

(* The per-node and per-heap-operation charges add to the profiler's
   accumulators without boxing a float, in every build profile: 1,000
   calls of each allocate nothing, and charge what 1,000 adds would. *)
let test_charges_allocate_nothing () =
  let d = Device.create () in
  let cost = Cost_model.default in
  let p = Device.profiler d in
  List.iter
    (fun (name, charge, activity, us) ->
      let before_us = Profiler.time_us p activity in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        charge d
      done;
      let words = Gc.minor_words () -. before in
      check_float (name ^ ": minor words") 0.0 words;
      let expected = ref before_us in
      for _ = 1 to 1000 do
        expected := !expected +. us
      done;
      check_float ~eps:0.0 (name ^ ": charged") !expected (Profiler.time_us p activity))
    [
      "dfg node", Device.charge_dfg_node, Profiler.Dfg_construction, cost.Cost_model.dfg_node_us;
      "heap op", Device.charge_heap_op, Profiler.Scheduling, cost.Cost_model.heap_op_us;
      "signature hash", Device.charge_signature_hash, Profiler.Scheduling,
      cost.Cost_model.signature_hash_us;
      "bucket push", Device.charge_bucket_push, Profiler.Scheduling, cost.Cost_model.bucket_push_us;
      "scheduling", (fun d -> Device.charge_scheduling d 0.25), Profiler.Scheduling, 0.25;
      "vm dispatch", Device.charge_vm_dispatch, Profiler.Vm_overhead, cost.Cost_model.vm_dispatch_us;
      "fiber switch", Device.charge_fiber_switch, Profiler.Fiber_overhead,
      cost.Cost_model.fiber_switch_us;
    ];
  check_int "nodes counted" 1000 p.Profiler.nodes_created;
  check_int "switches counted" 1000 p.Profiler.fiber_switches

let suite =
  [
    Alcotest.test_case "cost: kernel time monotone" `Quick test_kernel_time_monotone;
    Alcotest.test_case "cost: saturation" `Quick test_kernel_time_saturation;
    Alcotest.test_case "cost: roofline" `Quick test_kernel_time_roofline;
    Alcotest.test_case "cost: memcpy" `Quick test_memcpy_time;
    Alcotest.test_case "memory: bump allocation" `Quick test_memory_bump;
    Alcotest.test_case "memory: capacity boundary + typed OOM" `Quick
      test_memory_capacity_boundary;
    Alcotest.test_case "memory: contiguity" `Quick test_contiguity;
    Alcotest.test_case "faults: plan parsing" `Quick test_faults_parse;
    Alcotest.test_case "faults: spec round-trip" `Quick test_faults_spec_round_trip;
    Alcotest.test_case "faults: plan validation rejects bad rates" `Quick
      test_faults_validate;
    Alcotest.test_case "faults: deterministic injection" `Quick test_faults_deterministic;
    Alcotest.test_case "faults: corrupt/flaky parsing and validation" `Quick
      test_faults_corrupt_parse;
    Alcotest.test_case "faults: silent corruption injection" `Quick
      test_faults_corrupt_injection;
    Alcotest.test_case "faults: corrupt clause preserves the legacy stream" `Quick
      test_faults_corrupt_stream_preserved;
    Alcotest.test_case "faults: straggler multiplier" `Quick test_faults_straggler_mult;
    Alcotest.test_case "faults: failed attempts burn device time" `Quick
      test_faults_burn_time;
    prop_contiguous_alloc;
    Alcotest.test_case "device: counters" `Quick test_device_counters;
    Alcotest.test_case "device: quality" `Quick test_quality_divides_time;
    Alcotest.test_case "device: scattered penalty" `Quick test_scattered_penalty;
    Alcotest.test_case "profiler: merge" `Quick test_profiler_merge;
    Alcotest.test_case "profiler: reset" `Quick test_profiler_reset;
    Alcotest.test_case "device: charges allocate nothing" `Quick test_charges_allocate_nothing;
  ]
