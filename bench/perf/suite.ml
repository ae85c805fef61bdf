(** The host-time benchmark: workloads, metrics, and the untraced and
    traced runners.

    An untraced run calls the library's public entry points
    ({!Acrobat.compile}, {!Acrobat.compile_model}, {!Acrobat.run_batch},
    {!Acrobat.serve_model}, {!Acrobat.serve_cluster}) on inputs generated
    from the seed, and reports the end-to-end metrics. Serving passes after
    the warm-up run the library's own executors under the simulator with a
    clock around each call, and must reproduce the warm-up's entry-point
    results to the bit. A traced run repeats the same work through
    {!Replay}, which re-issues each layer as a direct call wrapped in a
    {!Spans} span, and reports the per-layer metrics.

    Both check outputs: an eager unbatched oracle for offline workloads,
    request conservation for serving ones, identical virtual results on
    every pass, and — traced — a replay guard that demands the
    decomposition reproduce the library's results to the bit. *)

open Acrobat

(* --- Metric catalogue: BENCHMARK.json lists exactly these names --- *)

type better = Lower | Higher

type spec = { m_name : string; m_unit : string; m_better : better }

let spec m_better m_unit m_name = { m_name; m_unit; m_better }

let end_to_end =
  [
    spec Lower "s" "setup_s";
    spec Lower "ms" "compile_ms";
    spec Higher "items/s" "items_per_s";
    spec Lower "ms" "batch_ms_p50";
    spec Lower "ms" "batch_ms_p90";
    spec Lower "ms" "sim_batch_ms";
    spec Lower "ms" "sim_p50_ms";
    spec Lower "ms" "sim_p99_ms";
    spec Higher "fraction" "ok_frac";
    spec Lower "MB" "peak_heap_mb";
  ]

(** End-to-end metrics that are exact for a seed: they come from the
    simulated device and the virtual serving clock, never the host's, so
    two runs of one seed agree to the bit on any machine. *)
let exact = [ "sim_batch_ms"; "sim_p50_ms"; "sim_p99_ms"; "ok_frac" ]

let per_layer =
  [
    spec Lower "us" "ir.parse_typecheck_us";
    spec Lower "us" "compiler.anf_us";
    spec Lower "us" "compiler.taint_us";
    spec Lower "us" "compiler.lower_us";
    spec Lower "ms" "compiler.autosched_ms";
    spec Lower "count" "compiler.defs";
    spec Lower "count" "compiler.kernels";
    spec Lower "us" "runtime.setup_us";
    spec Lower "us" "engines.stage_us";
    spec Lower "s" "engines.dfg_s";
    spec Lower "ns" "engines.dfg_ns_per_node";
    spec Lower "count" "runtime.nodes_per_item";
    spec Lower "s" "runtime.sched_s";
    spec Lower "ns" "runtime.sched_ns_per_node";
    spec Lower "s" "runtime.exec_s";
    spec Lower "us" "runtime.exec_us_per_launch";
    spec Lower "us" "runtime.download_us";
    spec Lower "count" "runtime.flushes_per_batch";
    spec Lower "count" "runtime.fiber_switches_per_batch";
    spec Higher "count" "runtime.batch_width";
    spec Lower "ms" "device.sim_dfg_ms";
    spec Lower "ms" "device.sim_sched_ms";
    spec Lower "ms" "device.sim_mem_ms";
    spec Lower "ms" "device.sim_kernel_ms";
    spec Lower "ms" "device.sim_api_ms";
    spec Lower "count" "device.fiber_switches";
    spec Lower "count" "device.kernel_calls";
    spec Lower "count" "device.gather_kernels";
    spec Lower "fraction" "device.unbatched_frac";
    spec Lower "s" "serve.core_s";
    spec Lower "us" "serve.core_us_per_request";
    spec Lower "count" "serve.exec_calls";
    spec Higher "count" "serve.mean_batch";
    spec Lower "fraction" "serve.queue_share";
    spec Lower "ratio" "serve.attempts_per_completion";
    spec Lower "count" "serve.retries";
    spec Lower "count" "serve.bisections";
    spec Lower "count" "serve.shed";
    spec Lower "count" "serve.limiter_shed";
    spec Lower "count" "serve.retry_budget_shed";
    spec Lower "count" "serve.expired";
    spec Lower "count" "net.sends";
    spec Lower "count" "net.resends";
    spec Lower "count" "net.dups";
    spec Lower "count" "net.dedup_hits";
    spec Lower "count" "net.timeouts";
    spec Higher "fraction" "net.useful_frac";
    spec Lower "count" "gc.minor_words_per_item";
    spec Lower "count" "gc.promoted_words_per_item";
    spec Lower "count" "gc.major_collections";
    spec Higher "ratio" "host.cpu_over_wall";
    spec Lower "ms" "host.probe_ms";
    spec Lower "fraction" "trace.overhead_frac";
  ]

(* --- Workloads --- *)

type model = Small of string | Tiny of string

type offline = {
  o_model : model;
  batch : int;
  batches : int;  (** Mini-batches per pass. *)
  values : bool;  (** Compute real tensor values (else accounting-only). *)
  oracle : int;  (** Instances re-checked against the eager reference per run. *)
}

type serving = {
  s_model : model;
  requests : int;  (** Requests per pass. *)
  rate_per_s : float;  (** Poisson arrival rate, virtual requests/s. *)
  fleet : bool;  (** The faulty, lossy, overloaded replica fleet. *)
}

type kind = Offline of offline | Serving of serving

type workload = { name : string; why : string; kind : kind }

(* Why each workload: see README.md. The TreeLSTM oracle re-checks 16
   instances, not 64, because the accounting-only pass has no values to
   compare and value-computing TreeLSTM costs ~70 ms per instance. *)
let workloads =
  [
    {
      name = "offline-treelstm";
      why =
        "closed loop, accounting-only TreeLSTM batches of 64: DFG construction dominates \
         host time, so engine and runtime gains show here";
      kind =
        Offline { o_model = Small "treelstm"; batch = 64; batches = 32; values = false; oracle = 16 };
    };
    {
      name = "offline-stackrnn-values";
      why =
        "closed loop, StackRNN with real tensor values under fibers: kernels dominate, so a \
         kernel gain shows here and not on offline-treelstm";
      kind =
        Offline { o_model = Small "stackrnn"; batch = 16; batches = 16; values = true; oracle = 64 };
    };
    {
      name = "serve-birnn";
      why =
        "open loop, BiRNN served at 2000 req/s: batches of ~1.4 requests, so per-batch fixed \
         costs of the runtime weigh most here";
      kind = Serving { s_model = Small "birnn"; requests = 6000; rate_per_s = 2000.0; fleet = false };
    };
    {
      name = "fleet-overload";
      why =
        "open loop at ~2x capacity over 3 replicas, one faulty, and a lossy net: the only \
         workload that runs the serving core, resilience and net layers hard";
      kind =
        Serving { s_model = Tiny "moe"; requests = 128_000; rate_per_s = 200_000.0; fleet = true };
    };
  ]

(** Run sizes. [full] is the benchmark; [tiny] runs the same code at test
    size: tiny models, a few instances, one timed pass. *)
type scale = {
  workloads : workload list;
  compile_reps : int;
      (** Compiles per slice of [compile_ms] samples, and behind the traced
          compiler layers... *)
  compile_group : int;  (** ...timed in groups of this many, for sub-microsecond resolution. *)
  min_passes : int;  (** Timed passes per run, at least. *)
}

let full =
  { workloads; compile_reps = 200; compile_group = 5; min_passes = 3 }

let tiny =
  let model = function Small id | Tiny id -> Tiny id in
  let shrink w =
    let kind =
      match w.kind with
      | Offline o -> Offline { o with o_model = model o.o_model; batch = 4; batches = 2; oracle = 4 }
      | Serving s -> Serving { s with s_model = model s.s_model; requests = 40 }
    in
    { w with kind }
  in
  {
    workloads = List.map shrink workloads;
    compile_reps = 2;
    compile_group = 1;
    min_passes = 1;
  }

let find_workload scale name = List.find_opt (fun w -> w.name = name) scale.workloads

let resolve = function
  | Small id -> (Models.find id).Models.make Model.Small
  | Tiny id -> Models.tiny id

(* The fleet: replica 0 faults, the links are lossy and partition once, and
   the resilience layer sheds what the fleet cannot serve in time. The
   partition cuts replica 2 off from a tenth to a quarter of the way
   through the arrivals, at any run size. *)
let fleet_faults () = Faults.parse "seed=7,kernel=0.1,reset=0.01"

let fleet_net s =
  let span_us = float_of_int s.requests /. s.rate_per_s *. 1e6 in
  Net.parse
    (Printf.sprintf
       "seed=11,delay=150:50,drop=0.05,dup=0.2,partition=%.0f:%.0f:2,timeout=5000,resends=3"
       (span_us *. 0.1) (span_us *. 0.25))

let fleet_resilience =
  { Resilience.off with Resilience.rs_retry_budget = Some 0.2; rs_target_delay_us = Some 12_000.0 }

let fleet_deadline_ms = 20.0
let fleet_replicas = 3
let serve_policy = Serve.Batcher.Adaptive { max_batch = 16; max_wait_us = 2_000.0 }
let process s = Serve.Traffic.Poisson { rate_per_s = s.rate_per_s }
let now = Spans.now
let wall_clock = Unix.gettimeofday
let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* --- Set-up: compile, tune, and generate weights, instances, arrivals --- *)

type compile_model = Model.t -> batch:int -> seed:int -> compiled * (string * Tensor.t) list

let library_compile_model : compile_model = fun m ~batch ~seed -> compile_model m ~batch ~seed

(** {!Acrobat.compile_model} with the auto-scheduler timed apart. *)
let traced_compile_model sp : compile_model =
 fun m ~batch ~seed ->
  let c = Spans.with_ sp "compile" (fun () -> compile ~inputs:m.Model.inputs m.Model.source) in
  let weights = m.Model.gen_weights seed in
  let rng = Rng.create (seed + 1) in
  let calibration = List.init (min 8 batch) (fun _ -> m.Model.gen_instance rng) in
  Spans.with_ sp "compiler.autosched" (fun () -> tune c ~weights ~calibration), weights

type offline_inputs = {
  oc : compiled;
  oweights : (string * Tensor.t) list;
  obatches : (string * Driver.hval) list array array;
  reference : compiled;  (** The eager unbatched PyTorch preset: the oracle. *)
}

let offline_inputs (compile_model : compile_model) o model ~seed =
  let oc, oweights = compile_model model ~batch:o.batch ~seed in
  let rng = Rng.create ((seed * 1009) + 3) in
  let obatches =
    Array.init o.batches (fun _ -> Array.init o.batch (fun _ -> model.Model.gen_instance rng))
  in
  let reference =
    compile ~framework:Frameworks.Pytorch ~inputs:model.Model.inputs model.Model.source
  in
  { oc; oweights; obatches; reference }

type serve_inputs = {
  sc : compiled;
  sweights : (string * Tensor.t) list;
  payloads : (int * (string * Driver.hval) list) array;
  arrivals : float array;
}

(* What serve_model and serve_cluster do before they simulate. *)
let serve_inputs (compile_model : compile_model) s model ~seed =
  let sc, sweights = compile_model model ~batch:8 ~seed in
  let payload_rng = Rng.create ((seed * 31) + 5) in
  let payloads = Array.init s.requests (fun i -> i, model.Model.gen_instance payload_rng) in
  let arrivals =
    Serve.Traffic.arrivals ~rng:(Rng.create ((seed * 53) + 11)) (process s) ~n:s.requests
  in
  { sc; sweights; payloads; arrivals }

(* A serving pass rebuilds its inputs, as serve_model does, so set-up keeps
   only the offline ones. *)
type inputs = Offline_inputs of offline_inputs | Serve_inputs

let setup compile_model w model ~seed =
  match w.kind with
  | Offline o -> Offline_inputs (offline_inputs compile_model o model ~seed)
  | Serving s ->
    ignore (serve_inputs compile_model s model ~seed);
    Serve_inputs

(* --- Offline passes --- *)

(** What one mini-batch produced, kept instead of the result itself (whose
    output handles pin the batch's whole DFG). *)
type digest = {
  latency_ms : float;
  times_us : float array;
  counters : (string * int) list;
  flushes : int;
  fps : int64 array;
  per_instance_ms : float array;
}

let digest (r : Driver.result) =
  let p = r.Driver.stats.Driver.profiler in
  {
    latency_ms = r.Driver.stats.Driver.latency_ms;
    times_us = Array.copy p.Profiler.times_us;
    counters = Profiler.counters p;
    flushes = r.Driver.stats.Driver.flushes;
    fps = Driver.fingerprints r;
    per_instance_ms = r.Driver.per_instance_ms;
  }

type batch_run = item:int -> instance_keys:int array -> (string * Driver.hval) list list -> Driver.result

type pass_result =
  | Offline_pass of digest array
  | Serving_pass of Serve.Stats.summary * Profiler.t

(** Where a pass reports each timed unit — a mini-batch or an executor
    call — once it ends: its start and end ({!Spans.now}) and its items. *)
type record = float -> float -> int -> unit

(** One pass over the mini-batches: their digests. Instance [i] of batch
    [b] draws its decisions from the stream keyed by its global id
    [b * batch + i], in this run and in the oracle's. *)
let offline_pass inp o (run : batch_run) (record : record) =
  Offline_pass
    (Array.mapi
       (fun b instances ->
         let instance_keys = Array.init o.batch (fun i -> (b * o.batch) + i) in
         let instances = Array.to_list instances in
         let t0 = now () in
         let r = run ~item:b ~instance_keys instances in
         record t0 (now ()) o.batch;
         digest r)
       inp.obatches)

let library_batch o inp ~seed : batch_run =
 fun ~item:_ ~instance_keys instances ->
  run_batch ~compute_values:o.values ~seed ~instance_keys inp.oc ~weights:inp.oweights ~instances ()

let replay_batch sp o inp ~seed : batch_run =
 fun ~item ~instance_keys instances ->
  Replay.run_batch sp ~item ~compute_values:o.values ~seed ~instance_keys inp.oc
    ~weights:inp.oweights ~instances ()

(** The oracle: the first [o.oracle] instances re-executed one at a time
    through the eager PyTorch preset (VM interpreter, unfused kernels, no
    batching). Their fingerprints must equal the batched run's. A value
    workload is checked against the pass itself; an accounting-only pass
    computes no values, so its first instances are re-run batched with
    values on. Returns (checked, mismatched). *)
let oracle inp o ~seed (pass : digest array) =
  let n = min o.oracle (o.batch * o.batches) in
  let instance i = inp.obatches.(i / o.batch).(i mod o.batch) in
  let batched =
    if o.values then Array.init n (fun i -> pass.(i / o.batch).fps.(i mod o.batch))
    else
      Driver.fingerprints
        (run_batch ~compute_values:true ~seed ~instance_keys:(Array.init n Fun.id) inp.oc
           ~weights:inp.oweights ~instances:(List.init n instance) ())
  in
  let mismatched = ref 0 in
  for i = 0 to n - 1 do
    let r =
      run_batch ~compute_values:true ~seed ~instance_keys:[| i |] inp.reference
        ~weights:inp.oweights ~instances:[ instance i ] ()
    in
    if not (Int64.equal (Driver.fingerprints r).(0) batched.(i)) then incr mismatched
  done;
  n, !mismatched

(* --- Serving passes --- *)

(** The library's entry point for the workload, as a user calls it. *)
let library_serve s model ~seed =
  if not s.fleet then
    let r = serve_model ~policy:serve_policy ~process:(process s) ~requests:s.requests ~seed model in
    Serving_pass (r.sv_summary, r.sv_profiler)
  else
    let r =
      serve_cluster ~policy:serve_policy ~deadline_ms:fleet_deadline_ms
        ~fault_plans:[ fleet_faults () ] ~dispatch:Serve.Cluster.Join_shortest_queue
        ~resilience:fleet_resilience ~net:(fleet_net s) ~replicas:fleet_replicas
        ~process:(process s) ~requests:s.requests ~seed model
    in
    Serving_pass (r.cr_summary, r.cr_profiler)

type executor =
  degraded:bool -> (int * (string * Driver.hval) list) list -> Serve.Server.exec_result

(** What [serve_model] / [serve_cluster] do once their inputs are built,
    with the executors [clean] (every fault-free replica) and [faulty]
    (replica 0 of the fleet, given its fault injector) supplied. *)
let simulate s inp ~(clean : executor) ~(faulty : Faults.t -> executor) =
  let payload i = inp.payloads.(i) in
  let config ~deadline_us ~tolerance ~resilience =
    {
      Serve.Server.policy = serve_policy;
      queue_capacity = 256;
      deadline_us;
      cost = Cost_model.default;
      tolerance;
      resilience;
    }
  in
  let stats =
    if not s.fleet then
      Serve.Server.simulate
        (config ~deadline_us:None ~tolerance:Serve.Server.default_tolerance
           ~resilience:Resilience.off)
        ~arrivals:inp.arrivals ~payload ~execute:clean
    else begin
      (* serve_cluster's choices for a fault plan on replica 0 only. *)
      let server =
        config
          ~deadline_us:(Some (fleet_deadline_ms *. 1000.0))
          ~tolerance:{ Serve.Server.default_tolerance with Serve.Server.degrade_high_frac = 0.85 }
          ~resilience:fleet_resilience
      in
      let executors =
        Array.init fleet_replicas (fun i ->
            if i = 0 then faulty (Faults.create (fleet_faults ())) else clean)
      in
      let cfg =
        {
          Serve.Cluster.default_config with
          Serve.Cluster.c_server = server;
          c_replicas = fleet_replicas;
          c_dispatch = Serve.Cluster.Join_shortest_queue;
          c_net = Some (fleet_net s);
        }
      in
      (Serve.Cluster.simulate cfg ~arrivals:inp.arrivals ~payload ~executors)
        .Serve.Cluster.cluster_stats
    end
  in
  Serving_pass (Serve.Stats.summarize stats, stats.Serve.Stats.profiler)

(** A timed serving pass: the library's own executors
    ({!Acrobat.batch_executor}, {!Acrobat.fault_executor}) under
    {!simulate}, each call recorded. The pass identity check holds it to
    the warm-up's [serve_model] / [serve_cluster] results, to the bit. *)
let library_serve_pass s model ~seed (record : record) =
  let inp = serve_inputs library_compile_model s model ~seed in
  let clocked (exec : executor) : executor =
   fun ~degraded batch ->
    let t0 = now () in
    let r = exec ~degraded batch in
    record t0 (now ()) (List.length batch);
    r
  in
  simulate s inp
    ~clean:
      (clocked
         (Serve.Server.infallible (fun batch ->
              batch_executor ~seed inp.sc ~weights:inp.sweights (List.map snd batch))))
    ~faulty:(fun injector ->
      clocked (fault_executor ~seed ~injector ~primary:inp.sc ~weights:inp.sweights ()))

(** The same pass re-issued through {!Replay}. Spans: [serve.inputs]
    (compile, tune, payloads, arrivals) and [serve.simulate], whose self
    time is the serving core — event loop, admission, batching, routing,
    net, stats — and whose [serve.exec] children are the executor calls. *)
let replay_serve_pass sp s model ~seed =
  let inp =
    Spans.with_ sp "serve.inputs" (fun () -> serve_inputs (traced_compile_model sp) s model ~seed)
  in
  let clean ~item batch =
    Serve.Server.Exec_ok
      (Replay.batch_executor sp ~item ~seed inp.sc ~weights:inp.sweights (List.map snd batch))
  in
  Spans.with_ sp "serve.simulate" (fun () ->
      simulate s inp ~clean:(Replay.timed sp clean) ~faulty:(fun injector ->
          Replay.timed sp (fun ~item batch ->
              Replay.fault_executor sp ~item ~seed ~injector inp.sc ~weights:inp.sweights batch)))

(* --- Passes and checks --- *)

type pass = {
  start : float;
  stop : float;  (** {!Spans.now} at the pass's start and end. *)
  items : int;
  result : pass_result;
  units : (float * float * int) list;
      (** Start, end and items of each mini-batch or executor call. *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

type ctx = {
  scale : scale;
  w : workload;
  model : Model.t;
  seed : int;
  sp : Spans.t;
  speed : Speed.t;
  probing : bool;  (** Interleave probes between timed units (untraced runs). *)
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
}

let problem ctx ~items fmt =
  Fmt.kstr
    (fun m ->
      ctx.problems <- m :: ctx.problems;
      ctx.failed <- ctx.failed + items)
    fmt

let items_of w = match w.kind with Offline o -> o.batch * o.batches | Serving s -> s.requests

(* After a set-up or a group of compiles: a speed probe. Between two
   units of a pass: a speed probe when one is due. *)
let probe ctx = if ctx.probing then Speed.sample ctx.speed
let tick ctx = if ctx.probing then Speed.tick ctx.speed

(** Run [f] as one pass from a collected heap, recording when it ran, its
    allocation, and each unit [f] records. *)
let timed_pass ctx f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let units = ref [] in
  let record t0 t1 n =
    units := (t0, t1, n) :: !units;
    tick ctx
  in
  let start = now () in
  let result = f record in
  let stop = now () in
  let g1 = Gc.quick_stat () in
  let items = items_of ctx.w in
  ctx.attempted <- ctx.attempted + items;
  (match ctx.w.kind, result with
  | Serving s, Serving_pass (summary, _) ->
    (* Every request ends in exactly one terminal bucket; [s_offered] sums
       completions and every drop counter. *)
    let lost = abs (s.requests - summary.Serve.Stats.s_offered) in
    if lost > 0 then
      problem ctx ~items:lost "conservation: %d requests sent, %d accounted for" s.requests
        summary.Serve.Stats.s_offered
  | _ -> ());
  {
    start;
    stop;
    items;
    result;
    units = !units;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(** Every pass must reproduce the warm-up pass's virtual results exactly:
    latency, activity times, every profiler counter, flushes, fingerprints
    (offline) or the whole summary and merged profile (serving). For a
    traced pass this is the replay guard. *)
let check_same ctx ~what (reference : pass) (p : pass) =
  match reference.result, p.result with
  | Offline_pass a, Offline_pass b ->
    Array.iteri
      (fun i d ->
        if compare d a.(i) <> 0 then
          problem ctx ~items:(Array.length d.fps) "%s: mini-batch %d differs from the warm-up run"
            what i)
      b
  | Serving_pass (s1, p1), Serving_pass (s2, p2) ->
    if compare s1 s2 <> 0
       || compare p1.Profiler.times_us p2.Profiler.times_us <> 0
       || Profiler.counters p1 <> Profiler.counters p2
    then problem ctx ~items:p.items "%s: serving summary differs from the warm-up run" what
  | _ -> invalid_arg "Suite.check_same: passes of different kinds"

(** At least [min] timed passes, then more while another one, as long as
    the last, still ends by the wall-clock time [until]. *)
let repeat ~until ~min f =
  let rec go k last acc =
    if k >= min && wall_clock () +. last > until then List.rev acc
    else
      let t0 = wall_clock () in
      let p = f k in
      go (k + 1) (wall_clock () -. t0) (p :: acc)
  in
  go 0 0.0 []

let library_pass ctx inputs record =
  match ctx.w.kind, inputs with
  | Offline o, Offline_inputs inp -> offline_pass inp o (library_batch o inp ~seed:ctx.seed) record
  | Serving s, _ -> library_serve_pass s ctx.model ~seed:ctx.seed record
  | Offline _, Serve_inputs -> invalid_arg "Suite.library_pass: inputs of another workload"

(* The warm-up: offline, a library pass; serving, the entry point itself,
   which every later pass must reproduce. *)
let warm_pass ctx inputs record =
  match ctx.w.kind with
  | Offline _ -> library_pass ctx inputs record
  | Serving s -> library_serve s ctx.model ~seed:ctx.seed

(* ok_frac: offline, the share of oracle-checked instances that matched;
   serving, completed over offered. *)
let ok_frac ctx inputs (warm : pass) =
  match ctx.w.kind, inputs, warm.result with
  | Offline o, Offline_inputs inp, Offline_pass ds ->
    let checked, mismatched = oracle inp o ~seed:ctx.seed ds in
    ctx.attempted <- ctx.attempted + checked;
    if mismatched > 0 then
      problem ctx ~items:mismatched "oracle: %d of %d instances differ from the eager reference"
        mismatched checked;
    per checked (float_of_int (checked - mismatched))
  | Serving _, _, Serving_pass (s, _) -> Serve.Stats.goodput s
  | _ -> invalid_arg "Suite.ok_frac: inputs of another workload"

(* --- End-to-end metrics (untraced) --- *)

(* [compile_reps] compiles in groups of [compile_group]: the start and end
   of each group. From a collected heap, so the compiles do not pay for the
   previous pass's garbage. A fixed count, not a fixed time, keeps the
   run's allocation — and so [peak_heap_mb] — exact for a seed. *)
let compile_slice ctx =
  let m = ctx.model in
  Gc.full_major ();
  List.init (ctx.scale.compile_reps / ctx.scale.compile_group) (fun _ ->
      let t0 = now () in
      for _ = 1 to ctx.scale.compile_group do
        ignore (compile ~inputs:m.Model.inputs m.Model.source)
      done;
      let t1 = now () in
      probe ctx;
      t0, t1)

(* One set-up from a collected heap, so an earlier set-up's garbage does
   not grow the heap this one runs in: its start and end, and the inputs. *)
let timed_setup ctx compile_model =
  Gc.full_major ();
  let t0 = now () in
  let inputs = setup compile_model ctx.w ctx.model ~seed:ctx.seed in
  let t1 = now () in
  probe ctx;
  (t0, t1), inputs

(* Traced set-ups: one before the warm-up and one before each of the
   first [min_passes] passes. *)
let slices ctx = ctx.scale.min_passes + 1

(* Set-ups per slice. The first set-up of a process runs cold, at about
   twice the time of the rest; it is one sample of a dozen or more and
   cannot pull the median. *)
let setups_per_slice = 3

(* Items per raw host second: traced runs, which probe only between passes. *)
let rate p = float_of_int p.items /. (p.stop -. p.start)

let virtual_metrics = function
  | Offline_pass ds ->
    let latencies = Array.to_list (Array.map (fun d -> d.latency_ms) ds) in
    let per_instance = List.concat_map (fun d -> Array.to_list d.per_instance_ms) (Array.to_list ds) in
    [
      "sim_batch_ms", per (List.length latencies) (List.fold_left ( +. ) 0.0 latencies);
      "sim_p50_ms", Stat.percentile per_instance 50.0;
      "sim_p99_ms", Stat.percentile per_instance 99.0;
    ]
  | Serving_pass (s, p) ->
    [
      "sim_batch_ms", per s.Serve.Stats.s_batches (Profiler.total_ms p);
      "sim_p50_ms", s.Serve.Stats.s_p50_ms;
      "sim_p99_ms", s.Serve.Stats.s_p99_ms;
    ]

(* Set-ups and compiles are timed in slices, one before the warm-up and
   one before every timed pass, so their samples spread over the whole
   run as the passes' do. *)
let run_untraced ctx ~until =
  let setups = ref [] and compiles = ref [] in
  let slice () =
    let timed = List.init setups_per_slice (fun _ -> timed_setup ctx library_compile_model) in
    setups := List.map fst timed @ !setups;
    compiles := compile_slice ctx @ !compiles;
    snd (List.hd timed)
  in
  let inputs = slice () in
  let warm = timed_pass ctx (warm_pass ctx inputs) in
  let ok_frac = ok_frac ctx inputs warm in
  (* The heap keeps growing slowly pass after pass, and how many passes
     fit in [seconds] depends on the machine: read the peak after a fixed
     amount of work so it is exact for a seed. *)
  let peak_mb = ref nan in
  let passes =
    repeat ~until ~min:ctx.scale.min_passes (fun k ->
        ignore (slice ());
        let p = timed_pass ctx (library_pass ctx inputs) in
        check_same ctx ~what:"pass" warm p;
        if k = ctx.scale.min_passes - 1 then
          peak_mb :=
            float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
        p)
  in
  (* Every host time at the reference speed (see {!Speed}), read once the
     last probe has run. [items_per_s] is over all timed passes together.
     [batch_ms]: the passes run the same mini-batches or executor calls in
     the same order, and each call counts at its median over the passes,
     so a burst of load that slows one pass's calls does not reach the
     tail. It counts items (instances or requests), each at the host ms of
     the call that ran it: that keeps the fleet's percentiles inside its
     full 16-request batches, most of its requests, instead of on the
     seed-dependent mix of partial ones. *)
  probe ctx;
  let scaled (from, until) = Speed.scaled ctx.speed ~from ~until in
  let batch_ms =
    let runs = List.map (fun p -> Array.of_list p.units) passes in
    let calls = List.fold_left (fun n a -> min n (Array.length a)) max_int runs in
    List.init calls (fun i ->
        let _, _, items = (List.hd runs).(i) in
        ( Stat.median (List.map (fun a -> let t0, t1, _ = a.(i) in scaled (t0, t1) *. 1000.0) runs),
          items ))
  in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 passes in
  let per_compile span = scaled span *. 1000.0 /. float_of_int ctx.scale.compile_group in
  [
    "setup_s", Stat.median (List.map scaled !setups);
    "compile_ms", Stat.median (List.map per_compile !compiles);
    ( "items_per_s",
      sum (fun p -> float_of_int p.items) /. sum (fun p -> scaled (p.start, p.stop)) );
    "batch_ms_p50", Stat.weighted_percentile batch_ms 50.0;
    "batch_ms_p90", Stat.weighted_percentile batch_ms 90.0;
    "ok_frac", ok_frac;
    "peak_heap_mb", !peak_mb;
  ]
  @ virtual_metrics warm.result

(* --- Per-layer metrics (traced) --- *)

(** The compile pipeline stage by stage: parse and typecheck, ANF, taint
    analysis (which lowering also runs internally; timed here on its own),
    lowering. Medians over the repetitions, plus the size of the lowered
    program. *)
let compile_layers ctx =
  let sp = ctx.sp and m = ctx.model in
  let cfg = Config.acrobat and inputs = m.Model.inputs in
  let samples = Hashtbl.create 8 in
  let stage name f =
    let t0 = now () in
    let v = Spans.with_ sp name f in
    Hashtbl.replace samples name
      ((now () -. t0) :: Option.value ~default:[] (Hashtbl.find_opt samples name));
    v
  in
  let lowered =
    List.init ctx.scale.compile_reps (fun rep ->
        Spans.with_ sp ~item:rep "compile" (fun () ->
            let p = stage "ir.parse_typecheck" (fun () -> Ir.Typecheck.parse_and_check m.Model.source) in
            let p = stage "compiler.anf" (fun () -> Acrobat_compiler.Anf.program p) in
            ignore
              (stage "compiler.taint" (fun () ->
                   Acrobat_compiler.Taint.analyze ~context_sensitive:cfg.Config.context_sensitive
                     (Acrobat_compiler.Sites.create ()) p ~inputs));
            stage "compiler.lower" (fun () -> Lower.program ~config:cfg p ~inputs)))
  in
  let lp = List.hd lowered in
  let us name = Stat.median (Hashtbl.find samples name) *. 1e6 in
  [
    "ir.parse_typecheck_us", us "ir.parse_typecheck";
    "compiler.anf_us", us "compiler.anf";
    "compiler.taint_us", us "compiler.taint";
    "compiler.lower_us", us "compiler.lower";
    "compiler.defs", float_of_int (Hashtbl.length lp.Lowered.defs);
    "compiler.kernels", float_of_int (List.length (Kernel.all_kernels lp.Lowered.registry));
  ]

(* Activity times (us), counters, and batch count of a pass's successfully
   executed batches — the profile the serving layer merges. *)
let device_profile = function
  | Offline_pass ds ->
    let times = Array.make Profiler.n_activities 0.0 in
    Array.iter (fun d -> Array.iteri (fun i v -> times.(i) <- times.(i) +. v) d.times_us) ds;
    let counter k = Array.fold_left (fun acc d -> acc + List.assoc k d.counters) 0 ds in
    times, counter, Array.length ds
  | Serving_pass (s, p) ->
    p.Profiler.times_us, (fun k -> List.assoc k (Profiler.counters p)), s.Serve.Stats.s_batches

(** Per-layer metrics of one traced pass, read from the spans and counters
    it recorded and from its virtual results. *)
let pass_layers ctx (p : pass) =
  let sp = ctx.sp in
  let batches = Spans.calls sp "run_batch" in
  let per_batch_us name = per batches (Spans.dur sp name *. 1e6) in
  let per_batch name = per batches (float_of_int (Spans.count sp name)) in
  let nodes = Spans.count sp "runtime.nodes" in
  let dfg = Spans.self sp "engines.dfg" in
  let sched = Spans.dur sp "runtime.sched" and exec = Spans.dur sp "runtime.exec" in
  let times, counter, ok_batches = device_profile p.result in
  let sim a = per ok_batches (times.(Profiler.activity_index a) /. 1000.0) in
  let dev k = per ok_batches (float_of_int (counter k)) in
  let summary = match p.result with Serving_pass (s, _) -> Some s | Offline_pass _ -> None in
  let core, exec_calls, exec_requests, completed =
    match summary with
    | None -> Spans.self sp "offline.pass", batches, p.items, p.items
    | Some s ->
      ( Spans.self sp "serve.simulate",
        Spans.count sp "serve.exec_calls",
        Spans.count sp "serve.exec_requests",
        s.Serve.Stats.s_completed )
  in
  let sv f = match summary with Some s -> f s | None -> 0 in
  let count f = float_of_int (sv f) in
  let sends = sv (fun s -> s.Serve.Stats.s_net_sends) in
  [
    "runtime.setup_us", per_batch_us "runtime.setup";
    "engines.stage_us", per_batch_us "engines.stage";
    "engines.dfg_s", dfg;
    "engines.dfg_ns_per_node", per nodes (dfg *. 1e9);
    "runtime.nodes_per_item", per exec_requests (float_of_int nodes);
    "runtime.sched_s", sched;
    "runtime.sched_ns_per_node", per nodes (sched *. 1e9);
    "runtime.exec_s", exec;
    "runtime.exec_us_per_launch", per (Spans.count sp "runtime.launches") (exec *. 1e6);
    "runtime.download_us", per_batch_us "runtime.download";
    "runtime.flushes_per_batch", per_batch "runtime.flushes";
    "runtime.fiber_switches_per_batch", per_batch "runtime.fiber_switches";
    "runtime.batch_width", per (Spans.count sp "runtime.kernel_batches") (float_of_int nodes);
    "device.sim_dfg_ms", sim Profiler.Dfg_construction;
    "device.sim_sched_ms", sim Profiler.Scheduling;
    "device.sim_mem_ms", sim Profiler.Mem_transfer;
    "device.sim_kernel_ms", sim Profiler.Kernel_exec;
    "device.sim_api_ms", sim Profiler.Api_overhead;
    "device.fiber_switches", dev "fiber_switches";
    "device.kernel_calls", dev "kernel_calls";
    "device.gather_kernels", dev "gather_kernels";
    ( "device.unbatched_frac",
      per (counter "batches_executed") (float_of_int (counter "unbatched_ops")) );
    "serve.core_s", core;
    "serve.core_us_per_request", per p.items (core *. 1e6);
    "serve.exec_calls", float_of_int exec_calls;
    "serve.mean_batch", per exec_calls (float_of_int exec_requests);
    ( "serve.queue_share",
      match summary with
      | Some s when s.Serve.Stats.s_mean_ms > 0.0 ->
        s.Serve.Stats.s_mean_queue_ms /. s.Serve.Stats.s_mean_ms
      | _ -> 0.0 );
    "serve.attempts_per_completion", per completed (float_of_int exec_requests);
    "serve.retries", count (fun s -> s.Serve.Stats.s_retries);
    "serve.bisections", count (fun s -> s.Serve.Stats.s_bisections);
    "serve.shed", count (fun s -> s.Serve.Stats.s_shed);
    "serve.limiter_shed", count (fun s -> s.Serve.Stats.s_limit_shed);
    "serve.retry_budget_shed", count (fun s -> s.Serve.Stats.s_retry_shed);
    "serve.expired", count (fun s -> s.Serve.Stats.s_expired);
    "net.sends", float_of_int sends;
    "net.resends", count (fun s -> s.Serve.Stats.s_net_resends);
    "net.dups", count (fun s -> s.Serve.Stats.s_net_dups);
    "net.dedup_hits", count (fun s -> s.Serve.Stats.s_net_dedup_hits);
    "net.timeouts", count (fun s -> s.Serve.Stats.s_net_timeouts);
    "net.useful_frac", per sends (float_of_int (sends - sv (fun s -> s.Serve.Stats.s_net_resends)));
  ]

let replay_pass ctx inputs times =
  let sp = ctx.sp in
  match ctx.w.kind, inputs with
  | Offline o, Offline_inputs inp ->
    Spans.with_ sp "offline.pass" (fun () ->
        offline_pass inp o (replay_batch sp o inp ~seed:ctx.seed) times)
  | Serving s, _ -> replay_serve_pass sp s ctx.model ~seed:ctx.seed
  | Offline _, Serve_inputs -> invalid_arg "Suite.replay_pass: inputs of another workload"

(* Speed probes a traced run makes before each of its passes. It records
   host times raw and reports the median probe beside them, rather than
   interleave probes with its spans. *)
let probes_per_pass = 20

(** Set-ups with the auto-scheduler timed, the compile pipeline stage by
    stage, a library warm-up pass, then traced and library passes in
    alternation: the traced ones give the layers, the library ones the
    allocation counts and the tracing overhead. Spans are kept from the
    set-ups, the compiles and the first traced pass. *)
let run_traced ctx ~until =
  let sp = ctx.sp in
  Spans.set_recording sp true;
  let n = slices ctx in
  let inputs = snd (List.hd (List.init n (fun _ -> timed_setup ctx (traced_compile_model sp)))) in
  (* One compiler.autosched span per set-up. *)
  let autosched_ms = Spans.dur sp "compiler.autosched" *. 1000.0 /. float_of_int n in
  let compile = compile_layers ctx in
  let warm = timed_pass ctx (warm_pass ctx inputs) in
  ignore (ok_frac ctx inputs warm);
  let cpu0 = now () and t0 = wall_clock () in
  let passes =
    repeat ~until ~min:(max 2 ctx.scale.min_passes) (fun k ->
        for _ = 1 to probes_per_pass do
          Speed.sample ctx.speed
        done;
        if k mod 2 = 0 then begin
          Spans.reset_totals sp;
          let p = timed_pass ctx (replay_pass ctx inputs) in
          Spans.set_recording sp false;
          check_same ctx ~what:"replay guard" warm p;
          `Traced (p, pass_layers ctx p)
        end
        else begin
          let p = timed_pass ctx (library_pass ctx inputs) in
          check_same ctx ~what:"pass" warm p;
          `Library p
        end)
  in
  let cpu1 = now () and t1 = wall_clock () in
  let traced = List.filter_map (function `Traced x -> Some x | `Library _ -> None) passes in
  let library = List.filter_map (function `Library p -> Some p | `Traced _ -> None) passes in
  let layers =
    List.map
      (fun (name, _) -> name, Stat.median (List.map (fun (_, ls) -> List.assoc name ls) traced))
      (snd (List.hd traced))
  in
  let per_item f = Stat.median (List.map (fun p -> f p /. float_of_int p.items) library) in
  compile @ layers
  @ [
      "compiler.autosched_ms", autosched_ms;
      "gc.minor_words_per_item", per_item (fun p -> p.minor_words);
      "gc.promoted_words_per_item", per_item (fun p -> p.promoted_words);
      ( "gc.major_collections",
        Stat.median (List.map (fun p -> float_of_int p.major_collections) library) );
      "host.cpu_over_wall", (cpu1 -. cpu0) /. (t1 -. t0);
      "host.probe_ms", Speed.ms ctx.speed;
      ( "trace.overhead_frac",
        1.0
        -. (Stat.median (List.map (fun (p, _) -> rate p) traced)
           /. Stat.median (List.map rate library)) );
    ]

(* --- Entry point --- *)

(** Run workload [w] once, for about [seconds] of wall time from the start,
    set-up and warm-up included; longer only if the minimum passes take
    longer. The
    metrics come back in catalogue order ({!end_to_end} untraced,
    {!per_layer} traced); a metric the run did not produce, or produced but
    the catalogue lacks, is a bug and raises. *)
let run ?(scale = full) ~trace ~seed ~seconds w : Report.outcome * Spans.t =
  let until = wall_clock () +. seconds in
  let ctx =
    {
      scale;
      w;
      model = (match w.kind with Offline o -> resolve o.o_model | Serving s -> resolve s.s_model);
      seed;
      sp = Spans.create ();
      speed = Speed.create ();
      probing = not trace;
      problems = [];
      attempted = 0;
      failed = 0;
    }
  in
  let values = if trace then run_traced ctx ~until else run_untraced ctx ~until in
  let notes =
    if trace then []
    else
      [
        { Report.name = "host.probe_ms"; unit_ = "ms"; value = Speed.ms ctx.speed };
        { Report.name = "host.reference_ms"; unit_ = "ms"; value = Speed.reference_ms };
      ]
  in
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.m_name = name) catalogue) then
        Fmt.failwith "metric %s is not in the catalogue" name)
    values;
  let metrics =
    List.map
      (fun s ->
        match List.assoc_opt s.m_name values with
        | Some value ->
          if not (Float.is_finite value) then
            problem ctx ~items:0 "metric %s is not a finite number" s.m_name;
          { Report.name = s.m_name; unit_ = s.m_unit; value }
        | None -> Fmt.failwith "metric %s was not measured" s.m_name)
      catalogue
  in
  ( {
      Report.workload = w.name;
      traced = trace;
      correct = ctx.problems = [];
      attempted = ctx.attempted;
      failed = ctx.failed;
      problems = List.rev ctx.problems;
      metrics;
      notes;
    },
    ctx.sp )
