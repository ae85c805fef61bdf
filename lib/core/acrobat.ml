(** ACROBAT: compile-time optimized auto-batching for dynamic deep learning.

    The top-level API. A typical session:

    {[
      let compiled = Acrobat.compile ~inputs:[ "inps" ] source in
      let compiled = Acrobat.tune compiled ~weights ~calibration in
      let result = Acrobat.run compiled ~weights ~instances () in
      ...
    ]}

    [compile] parses, type checks and lowers the input program under a
    framework configuration (ACROBAT by default; the DyNet / PyTorch
    baselines are selected through [framework]); [tune] runs the
    auto-scheduler with PGO-derived kernel priorities; [run] executes a
    mini-batch on the simulated accelerator and reports outputs plus the
    full activity profile. *)

module Tensor = Acrobat_tensor.Tensor
module Shape = Acrobat_tensor.Shape
module Rng = Acrobat_tensor.Rng
module Ops = Acrobat_tensor.Ops
module Ir = Acrobat_ir
module Config = Acrobat_compiler.Config
module Lower = Acrobat_compiler.Lower
module Lowered = Acrobat_compiler.Lowered
module Forwarded = Acrobat_compiler.Forwarded
module Kernel = Acrobat_compiler.Kernel
module Autosched = Acrobat_compiler.Autosched
module Device = Acrobat_device.Device
module Cost_model = Acrobat_device.Cost_model
module Profiler = Acrobat_device.Profiler
module Memory = Acrobat_device.Memory
module Faults = Acrobat_device.Faults
module Net = Acrobat_net.Net
module Value = Acrobat_runtime.Value
module Driver = Acrobat_engines.Driver
module Policy = Acrobat_engines.Policy
module Frameworks = Acrobat_engines.Frameworks
module Cortex = Acrobat_engines.Cortex
module Model = Acrobat_models.Model
module Models = Acrobat_models.Catalog
module Workloads = Acrobat_workloads
module Serve = Acrobat_serve
module Obs = Acrobat_obs
module Trace = Acrobat_obs.Trace
module Chaos = Acrobat_chaos
module Tenancy = Acrobat_tenancy
module Resilience = Acrobat_resilience.Policy

type compiled = {
  lprog : Lowered.t;
  framework : Frameworks.kind;
  quality : int -> float;  (** Kernel schedule quality (auto-scheduled). *)
  policy : Policy.t;
      (** [framework]'s engine policy, built once: a policy depends on
          nothing but the batch it signs, so every batch shares it. *)
  staged : Acrobat_engines.Aot.t Lazy.t;
      (** [lprog] staged for the AOT engine, once: at the first batch that
          needs it. {!tune} changes only [quality], so a tuned copy shares
          it; each batch binds its own runtime to it for the run. *)
}

(** Parse, type check, analyze and lower [source]. [inputs] names the
    @main parameters that vary per batch instance (everything else is a
    model weight). *)
let compile ?(framework = Frameworks.Acrobat Config.acrobat) ?tracer
    ~(inputs : string list) (source : string) : compiled =
  let lprog = Lower.compile ~config:(Frameworks.config framework) ?tracer ~inputs source in
  let quality =
    match framework with
    | Frameworks.Acrobat _ ->
      (* Untuned: every kernel at the search floor until [tune] runs. *)
      fun _ -> Autosched.sample_floor
    | Frameworks.Dynet _ | Frameworks.Pytorch ->
      fun id -> Autosched.quality Frameworks.vendor_quality id
  in
  let staged = lazy (Driver.stage lprog) in
  { lprog; framework; quality; policy = Frameworks.policy framework; staged }

(* The staged program a batch of [c] binds: AOT presets only. *)
let staged c =
  match Frameworks.mode c.framework with
  | Driver.Aot_mode -> Some (Lazy.force c.staged)
  | Driver.Vm_mode -> None

(** Execute a mini-batch. [compute_values] makes kernels produce real
    tensors (needed to inspect outputs; large benchmark configurations run
    accounting-only, cf. DESIGN.md). *)
let run ?compute_values ?seed (c : compiled) ~(weights : (string * Tensor.t) list)
    ~(instances : (string * Driver.hval) list list) () : Driver.result =
  Driver.run_batch ?compute_values ?seed ?staged:(staged c) ~mode:(Frameworks.mode c.framework)
    ~policy:c.policy ~quality:c.quality ~lprog:c.lprog ~weights
    ~instances ()

(** Auto-schedule the generated kernels (§D.1): a profiling run on
    [calibration] collects per-kernel invocation counts and representative
    FLOPs; the iteration budget is then split by estimated cost — PGO
    counts when enabled, else the static nesting-depth heuristic — and the
    search runs per kernel. Baseline frameworks use vendor kernels and are
    returned unchanged. *)
let tune ?iters ?(search_seed = 0) (c : compiled) ~(weights : (string * Tensor.t) list)
    ~(calibration : (string * Driver.hval) list list) : compiled =
  match c.framework with
  | Frameworks.Dynet _ | Frameworks.Pytorch -> c
  | Frameworks.Acrobat cfg ->
    let iters = Option.value ~default:cfg.Config.autosched_iters iters in
    let profile_run = run c ~weights ~instances:calibration () in
    let profile = profile_run.Driver.profile in
    let lookup id = List.find_opt (fun (k, _, _, _) -> k = id) profile in
    let flops id =
      match lookup id with Some (_, _, mean_flops, _) -> mean_flops | None -> 1.0e6
    in
    let weight_elems id = match lookup id with Some (_, _, _, se) -> se | None -> 0 in
    let priority id =
      if cfg.Config.pgo then begin
        (* Exact execution cost: measured invocation count x measured work. *)
        match lookup id with Some (_, count, _, _) -> count *. flops id | None -> 1.0
      end
      else
        (* Static estimate: the nesting-depth frequency heuristic, with no
           knowledge of per-kernel work (SS D.1). *)
        Option.value ~default:1.0 (Hashtbl.find_opt c.lprog.Lowered.kernel_hints id)
    in
    let table =
      Autosched.tune ~seed:search_seed ~registry:c.lprog.Lowered.registry ~iters ~priority
        ~flops ~weight_elems ()
    in
    { c with quality = Autosched.quality table }

(** Convenience: compile and tune a catalog model for a framework. *)
let compile_model ?framework ?iters ?tracer (model : Model.t) ~(batch : int)
    ~(seed : int) : compiled * (string * Tensor.t) list =
  let c = compile ?framework ?tracer ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights seed in
  let rng = Rng.create (seed + 1) in
  let calibration = List.init (min 8 batch) (fun _ -> model.Model.gen_instance rng) in
  let c = tune ?iters c ~weights ~calibration in
  c, weights

(** Generate a seeded batch of instances for a model. *)
let gen_batch (model : Model.t) ~batch ~seed =
  let rng = Rng.create seed in
  List.init batch (fun _ -> model.Model.gen_instance rng)

(** Execute one mini-batch through {!Driver.run_batch}. Same as {!run} but
    exposes the per-batch entry point the serving loop shares.
    [instance_keys] re-keys per-instance decision streams by stable request
    ids (integrity mode; see {!Acrobat_runtime.Runtime.set_decision_keys}). *)
let run_batch ?compute_values ?seed ?device ?tracer ?instance_keys (c : compiled)
    ~(weights : (string * Tensor.t) list)
    ~(instances : (string * Driver.hval) list list) () : Driver.result =
  Driver.run_batch ?compute_values ?seed ?device ?tracer ?instance_keys ?staged:(staged c)
    ~mode:(Frameworks.mode c.framework) ~policy:c.policy
    ~quality:c.quality ~lprog:c.lprog ~weights ~instances ()

(* --- Online serving (lib/serve) glue --- *)

(* What the serving layer learns from one batch run: its simulated latency
   and activity profile, plus per-request fingerprints in integrity mode. *)
let exec_outcome ?(fingerprints = false) ?(corrupted = false) (r : Driver.result) =
  {
    Serve.Server.ex_latency_us = r.Driver.stats.latency_ms *. 1000.0;
    ex_profiler = Some r.Driver.stats.profiler;
    ex_fingerprints = (if fingerprints then Some (Driver.fingerprints r) else None);
    ex_corrupted = corrupted;
  }

(** A {!Serve.Server} executor that runs each assembled batch through the
    real engine stack on a fresh simulated device, reporting the batch's
    simulated latency and activity profile. *)
let batch_executor ?(seed = 2024) ?tracer (c : compiled)
    ~(weights : (string * Tensor.t) list)
    (instances : (string * Driver.hval) list list) : Serve.Server.exec_outcome =
  exec_outcome (run_batch ~seed ?tracer c ~weights ~instances ())

(** Integrity-armed clean executor: like {!batch_executor} but computes
    real tensor values, keys each request's decision stream by its request
    id (so its outputs never depend on batch composition) and attaches
    per-request result fingerprints for the audit layer to compare. *)
let integrity_batch_executor ?(seed = 2024) ?tracer (c : compiled)
    ~(weights : (string * Tensor.t) list)
    (batch : (int * (string * Driver.hval) list) list) : Serve.Server.exec_outcome =
  let instance_keys = Array.of_list (List.map fst batch) in
  exec_outcome ~fingerprints:true
    (run_batch ~compute_values:true ~seed ?tracer ~instance_keys c ~weights
       ~instances:(List.map snd batch) ())

(** The audit layer's reference engine, sampling at [rate] ([None] when
    the rate is 0): re-execute one request {e unbatched} on a fresh,
    fault-free device (the program [program id] gives for request [id],
    batch of one, decision stream keyed by the request id) and fingerprint
    the result. Batched and unbatched execution agree on values — ACROBAT's
    core equivalence — so any mismatch against the serving replica's
    fingerprint is corruption on that replica's device. *)
let reference_auditor ?(seed = 2024) ~rate
    (program : int -> compiled * (string * Tensor.t) list) :
    (int * (string * Driver.hval) list) Serve.Server.auditor option =
  if rate <= 0.0 then None
  else
    Some
      {
        Serve.Server.au_rate = rate;
        (* Distinct stream: arming the auditor must not perturb payload,
           arrival, fault or jitter draws. *)
        au_seed = (seed * 61) + 29;
        au_reference =
          (fun id (_, inst) ->
            let c, weights = program id in
            let r =
              run_batch ~compute_values:true ~seed ~instance_keys:[| id |] c ~weights
                ~instances:[ inst ] ()
            in
            (Driver.fingerprints r).(0), r.Driver.stats.latency_ms *. 1000.0);
      }

(** The outcome of a serving run: SLO summary plus the merged device
    activity profile (printable with {!Profiler.pp}, same report style as
    the offline bench). *)
type serve_report = {
  sv_summary : Serve.Stats.summary;
  sv_profiler : Profiler.t;
  sv_stats : Serve.Stats.t;
      (** The run's accounting, snapshot timeline included
          ({!Serve.Stats.metrics_json}). *)
}

let serve_report_json (r : serve_report) : Obs.Json.t =
  Obs.Json.Obj
    (match Serve.Stats.summary_to_json r.sv_summary with
    | Obs.Json.Obj fields -> fields @ [ "profiler", Profiler.to_json r.sv_profiler ]
    | other -> [ "summary", other; "profiler", Profiler.to_json r.sv_profiler ])

(** A fault-aware {!Serve.Server} executor. Each batch runs on a fresh
    simulated device wired to the shared fault [injector] (so a retried
    batch draws fresh fault randomness — transient faults are transient).
    Requests whose ids appear in the plan's [poison] list fail the whole
    batch {e non-transiently}, leaving isolation to the server's bisection.
    Injected {!Faults.Fault} and {!Memory.Device_oom} exceptions are mapped
    to {!Serve.Server.Exec_fault} reports; the failed attempt's device time
    still occupies the virtual device. OOM is reported non-transient
    (re-running the same batch would OOM again) with [ef_oom] set so the
    server both bisects into smaller batches and shrinks its batch cap. *)
let fault_executor ?(seed = 2024) ?(integrity = false) ?tracer ~(injector : Faults.t)
    ~(primary : compiled) ?degraded_c ~(weights : (string * Tensor.t) list) ()
    ~(degraded : bool) (batch : (int * (string * Driver.hval) list) list) :
    Serve.Server.exec_result =
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
  | None ->
    let c = if degraded then Option.value ~default:primary degraded_c else primary in
    let device = Device.create ~faults:injector ?tracer () in
    let instances = List.map snd batch in
    (* Integrity mode computes real values (so injected corruption has
       something to corrupt), keys decision streams by request id and
       fingerprints the results; legacy mode runs accounting-only with the
       exact RNG streams it always drew. *)
    let instance_keys =
      if integrity then Some (Array.of_list (List.map fst batch)) else None
    in
    (match
       run_batch ~compute_values:integrity ~seed ~device ?instance_keys c ~weights
         ~instances ()
     with
    | r ->
      Serve.Server.Exec_ok
        (exec_outcome ~fingerprints:integrity
           ~corrupted:(integrity && Faults.corrupt_attempt injector)
           r)
    | exception Faults.Fault { kind; launch } ->
      Serve.Server.Exec_fault
        {
          ef_latency_us = Profiler.total_us (Device.profiler device);
          ef_reason = Fmt.str "%s at launch %d" (Faults.kind_name kind) launch;
          ef_transient = true;
          ef_oom = false;
          ef_reset = (kind = Faults.Device_reset);
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

(** The executor of one serving replica slot, for every entry point: with a
    fault [injector], a {!fault_executor}; otherwise a clean executor. Either
    swaps in [degraded_c] while its server is degraded (omit it to keep the
    primary model throughout). [integrity] makes batches compute values and
    carry fingerprints for the audit layer. *)
let device_executor ~seed ~integrity ?tracer ?injector ?degraded_c (c : compiled)
    ~(weights : (string * Tensor.t) list) :
    degraded:bool -> (int * (string * Driver.hval) list) list -> Serve.Server.exec_result =
  match injector with
  | Some injector ->
    fault_executor ~seed ~integrity ?tracer ~injector ~primary:c ?degraded_c ~weights ()
  | None ->
    fun ~degraded batch ->
      let c = if degraded then Option.value ~default:c degraded_c else c in
      Serve.Server.Exec_ok
        (if integrity then integrity_batch_executor ~seed ?tracer c ~weights batch
         else batch_executor ~seed ?tracer c ~weights (List.map snd batch))

(* The per-server config of every serving entry point. *)
let server_config ~policy ~queue_capacity ~deadline_ms ~tolerance ~resilience =
  {
    Serve.Server.policy;
    queue_capacity;
    deadline_us = Option.map (fun ms -> ms *. 1000.0) deadline_ms;
    cost = Cost_model.default;
    tolerance;
    resilience;
  }

(** What {!serve_model} and {!serve_cluster} build before simulating. *)
type serve_setup = {
  su_compiled : compiled;
  su_weights : (string * Tensor.t) list;
  su_degraded : compiled option;
      (** The model's degraded variant, compiled only when faults or
          brownout can ask for it. *)
  su_payloads : (int * (string * Driver.hval) list) array;
  su_arrivals : float array;
  su_config : Serve.Server.config;
}

(* Compile the model (and, when [fault_mode] or brownout may degrade a
   server, its degraded variant), draw the payloads and arrival trace from
   [seed], and assemble the per-server config. A fault-injected run
   defaults to degrading earlier, at 85% queue occupancy. *)
let serve_setup ~framework ?iters ~policy ~queue_capacity ?deadline_ms ?arrivals ~resilience
    ?tracer ~fault_mode ~process ~requests ~seed (model : Model.t) =
  let c, weights = compile_model ~framework ?iters ?tracer model ~batch:8 ~seed in
  let payload_rng = Rng.create ((seed * 31) + 5) in
  let payloads =
    Array.init requests (fun i -> i, model.Model.gen_instance payload_rng)
  in
  let arrivals =
    match arrivals with
    | Some a -> a
    | None -> Serve.Traffic.arrivals ~rng:(Rng.create ((seed * 53) + 11)) process ~n:requests
  in
  let tolerance =
    if fault_mode then
      { Serve.Server.default_tolerance with Serve.Server.degrade_high_frac = 0.85 }
    else Serve.Server.default_tolerance
  in
  let degraded =
    if fault_mode || Option.is_some resilience.Resilience.rs_brownout then
      Option.map
        (fun dm -> fst (compile_model ~framework ?iters dm ~batch:8 ~seed))
        model.Model.degraded
    else None
  in
  {
    su_compiled = c;
    su_weights = weights;
    su_degraded = degraded;
    su_payloads = payloads;
    su_arrivals = arrivals;
    su_config = server_config ~policy ~queue_capacity ~deadline_ms ~tolerance ~resilience;
  }

(** Simulate serving [requests] independently-arriving instances of [model]
    under an arrival [process] and batch-assembly [policy].

    Compiles and tunes the model once, then replays the generated traffic
    trace through {!Serve.Server.simulate} with {!batch_executor} as the
    device: every assembled cross-request batch really executes (DFG
    construction, scheduling, batching, simulated kernels), and its cost
    model latency occupies the virtual device. Deterministic for a fixed
    [seed]. [arrivals] overrides the generated trace (e.g. a synchronized
    burst).

    When a fault [plan] with any fault source enabled is supplied, batches
    run under {!fault_executor} and the server's fault-tolerance machinery
    (retry, bisection, circuit breaker, degradation — see DESIGN.md SS8) is
    exercised; if the model carries a degraded variant it is compiled and
    tuned too, and swapped in while the server is degraded, which it
    enters at 85% queue occupancy. With the default [Faults.none] plan the
    executor, RNG draws and output are bit-identical to the fault-unaware
    server.

    [audit] arms the sampled-audit integrity layer at the given rate: each
    delivered request is, with that probability, re-executed unbatched on a
    clean reference device and its fingerprint compared before delivery
    (see {!Serve.Server.auditor}). Corruption in the fault plan
    ([corrupt=]/[flaky=]) or a positive audit rate switches executors to
    integrity mode (real values, id-keyed decision streams, fingerprints);
    both default off, leaving legacy runs byte-identical.
    [snapshot_every_us] turns on the metrics timeline of [sv_stats]. *)
let serve_model ?(framework = Frameworks.Acrobat Config.acrobat) ?iters
    ?(policy = Serve.Server.default_config.Serve.Server.policy) ?(queue_capacity = 256)
    ?deadline_ms ?arrivals ?(faults = Faults.none) ?(resilience = Resilience.off)
    ?(audit = 0.0) ?tracer ?snapshot_every_us
    ~(process : Serve.Traffic.process) ~(requests : int) ~(seed : int) (model : Model.t) :
    serve_report =
  let fault_mode = Faults.enabled faults in
  let su =
    serve_setup ~framework ?iters ~policy ~queue_capacity ?deadline_ms ?arrivals ~resilience
      ?tracer ~fault_mode ~process ~requests ~seed model
  in
  let c = su.su_compiled and weights = su.su_weights in
  let integrity = Faults.corrupts faults || audit > 0.0 in
  let injector = if fault_mode then Some (Faults.create faults) else None in
  let execute =
    device_executor ~seed ~integrity ?tracer ?injector ?degraded_c:su.su_degraded c ~weights
  in
  let auditor = reference_auditor ~seed ~rate:audit (fun _ -> c, weights) in
  let stats =
    Serve.Server.simulate ?tracer ?snapshot_every_us ?auditor su.su_config
      ~arrivals:su.su_arrivals
      ~payload:(fun i -> su.su_payloads.(i))
      ~execute
  in
  {
    sv_summary = Serve.Stats.summarize stats;
    sv_profiler = stats.Serve.Stats.profiler;
    sv_stats = stats;
  }

(* --- Multi-tenant serving (lib/tenancy) glue --- *)

(** Simulate multi-tenant many-model serving over real compiled models
    (see {!Tenancy.Dispatcher}).

    Each distinct model named by a tenant is compiled and tuned {e once}
    and its parameter footprint measured once — the bytes the dispatcher
    charges as swap cost whenever a replica's resident model changes.
    [models] resolves a tenant's model id to the catalog entry to compile
    (e.g. [Models.tiny]); per-tenant request payloads are generated from
    each tenant's own seed ([(tn_seed * 31) + 5], mirroring the
    single-stream payload derivation), so adding a tenant never perturbs
    another tenant's instances. [fault_plans] is positional per replica
    slot, like {!serve_cluster}; autoscaled replicas beyond the list run
    fault-free.

    [audit] arms the sampled-audit integrity layer (see {!serve_model}):
    sampled requests re-execute unbatched on a clean reference device for
    {e their own} model before delivery, and a replica accumulating
    mismatches is quarantined — drained and replaced like-for-like by the
    pool (see {!Tenancy.Dispatcher}). Corruption in any fault plan or a
    positive audit rate switches every replica slot to integrity-mode
    executors; both default off, leaving legacy runs byte-identical. *)
let serve_tenants ?(framework = Frameworks.Acrobat Config.acrobat) ?iters
    ?(policy = Serve.Server.default_config.Serve.Server.policy) ?(queue_capacity = 256)
    ?(fault_plans = []) ?(min_replicas = 1) ?(max_replicas = 1)
    ?(resilience = Resilience.off) ?hedge_percentile
    ?(audit = 0.0) ?net ?tracer ~(models : string -> Model.t)
    ~(tenants : Tenancy.Tenant.t array) ~(seed : int) () : Tenancy.Dispatcher.report =
  let distinct =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun t -> t.Tenancy.Tenant.tn_model) tenants))
  in
  let compiled =
    List.map
      (fun id ->
        let m = models id in
        let c, weights = compile_model ~framework ?iters ?tracer m ~batch:8 ~seed in
        id, (m, c, weights))
      distinct
  in
  let lookup id = List.assoc id compiled in
  (* Parameter footprints, measured once per model (not per swap). *)
  let bytes = List.map (fun (id, (m, _, _)) -> id, Model.param_bytes m) compiled in
  let model_bytes id = List.assoc id bytes in
  let instances =
    Array.map
      (fun t ->
        let m, _, _ = lookup t.Tenancy.Tenant.tn_model in
        let rng = Rng.create ((t.Tenancy.Tenant.tn_seed * 31) + 5) in
        Array.init t.Tenancy.Tenant.tn_requests (fun _ -> m.Model.gen_instance rng))
      tenants
  in
  let payload ~tenant ~index ~id = id, instances.(tenant).(index) in
  let cfg =
    {
      Tenancy.Dispatcher.t_server =
        server_config ~policy ~queue_capacity
          ~deadline_ms:None (* per-request deadlines come from tenant SLOs *)
          ~tolerance:Serve.Server.default_tolerance ~resilience;
      t_autoscale = Tenancy.Autoscaler.default ~min_replicas ~max_replicas;
      t_hedge_percentile = hedge_percentile;
      t_net = net;
    }
  in
  let plan_for i = try List.nth fault_plans i with _ -> Faults.none in
  let integrity = List.exists Faults.corrupts fault_plans || audit > 0.0 in
  (* One executor closure per replica slot: a fault-injected slot keeps its
     own injector across every model it hosts (the device is flaky, not the
     model), while clean slots run the plain batch executor. Integrity mode
     switches every slot — clean ones included — to value-computing,
     fingerprinting executors, so audits genuinely compare batched against
     unbatched execution. *)
  let executors =
    Array.init (max 1 max_replicas) (fun i ->
        let plan = plan_for i in
        let injector = if Faults.enabled plan then Some (Faults.create plan) else None in
        fun c weights batch ->
          device_executor ~seed ~integrity ?tracer ?injector c ~weights ~degraded:false batch)
  in
  (* The audit layer needs each sampled request's own model to re-execute
     it; the dispatcher launches are the only place the (request, model)
     pairing exists, so integrity-mode launches record it here. Audits run
     strictly after the batch that produced the result, so the entry is
     always present by the time the reference engine looks it up. *)
  let model_of_req : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let execute i ~model batch =
    if integrity then
      List.iter (fun (id, _) -> Hashtbl.replace model_of_req id model) batch;
    let _, c, weights = lookup model in
    executors.(min i (Array.length executors - 1)) c weights batch
  in
  let auditor =
    reference_auditor ~seed ~rate:audit (fun id ->
        let _, c, weights = lookup (Hashtbl.find model_of_req id) in
        c, weights)
  in
  Tenancy.Dispatcher.simulate ?tracer ?auditor cfg ~tenants ~payload ~execute
    ~model_bytes

(* --- Replicated serving (lib/serve/cluster) glue --- *)

(** Per-replica slice of a cluster run's report. *)
type replica_report = {
  rr_id : int;
  rr_health : string;  (** Final health: up / probing / down. *)
  rr_summary : Serve.Stats.summary;
}

(** The outcome of a cluster serving run: the aggregate SLO summary (one
    terminal outcome per request, hedge/failover counters included), the
    merged device profile across all replicas, and per-replica views. *)
type cluster_report = {
  cr_summary : Serve.Stats.summary;
  cr_profiler : Profiler.t;
  cr_replicas : replica_report list;
}

let cluster_report_json (r : cluster_report) : Obs.Json.t =
  Obs.Json.Obj
    [
      "cluster", Serve.Stats.summary_to_json r.cr_summary;
      "profiler", Profiler.to_json r.cr_profiler;
      ( "replicas",
        Obs.Json.List
          (List.map
             (fun rr ->
               Obs.Json.Obj
                 [
                   "id", Obs.Json.Int rr.rr_id;
                   "health", Obs.Json.Str rr.rr_health;
                   "stats", Serve.Stats.summary_to_json rr.rr_summary;
                 ])
             r.cr_replicas) );
    ]

(** Simulate serving [requests] across [replicas] replicas of [model] on
    one virtual timeline (see {!Serve.Cluster}).

    The model is compiled and tuned {e once}; each replica gets its own
    simulated device and its own fault injector built from [fault_plans]
    (positional: plan [i] applies to replica [i]; missing entries mean no
    faults — the way to make one replica flaky while its peers stay
    healthy). [dispatch] picks the routing policy, [hedge_percentile]
    enables hedged requests, and [requeue_budget] caps failover
    re-dispatches per request. With [replicas = 1], no faults and hedging
    off, the aggregate summary is identical to {!serve_model}'s.

    [audit] arms the sampled-audit integrity layer on every replica; a
    replica whose audited results keep mismatching the clean reference is
    {e quarantined} (drained and fenced like a failed-over replica, then
    re-admitted only after clean audited probes — see {!Serve.Replica}).

    [net] interposes the lossy virtual transport between dispatcher and
    replicas (see {!Serve.Cluster} and [Acrobat_net.Net]): per-link delay,
    drop, duplication, reorder, gray loss and partition windows, with
    idempotency-keyed exactly-once delivery and timeout-driven resends.
    [None] keeps the direct-call path byte-identical. *)
let serve_cluster ?(framework = Frameworks.Acrobat Config.acrobat) ?iters
    ?(policy = Serve.Server.default_config.Serve.Server.policy) ?(queue_capacity = 256)
    ?deadline_ms ?arrivals ?(fault_plans = [])
    ?(dispatch = Serve.Cluster.Join_shortest_queue) ?hedge_percentile
    ?(requeue_budget = Serve.Cluster.default_config.Serve.Cluster.c_requeue_budget)
    ?(resilience = Resilience.off) ?(audit = 0.0) ?net ?tracer ?(replicas = 1)
    ~(process : Serve.Traffic.process) ~(requests : int)
    ~(seed : int) (model : Model.t) : cluster_report =
  let plan_for i = try List.nth fault_plans i with _ -> Faults.none in
  let su =
    serve_setup ~framework ?iters ~policy ~queue_capacity ?deadline_ms ?arrivals ~resilience
      ?tracer ~fault_mode:(List.exists Faults.enabled fault_plans) ~process
      ~requests ~seed model
  in
  let c = su.su_compiled and weights = su.su_weights in
  let brownout_mode = Option.is_some resilience.Resilience.rs_brownout in
  (* One executor (and one injector) per replica: a retried or failed-over
     batch lands on a device with its own independent fault stream. A clean
     replica swaps in the degraded model only under brownout: queue
     pressure alone must not swap models on a fault-free device. When the
     integrity layer is armed, every replica — clean ones included — runs in
     integrity mode, so each batch carries fingerprints the audit can check
     (a clean replica's fingerprints simply always match the reference). *)
  let integrity = List.exists Faults.corrupts fault_plans || audit > 0.0 in
  let executors =
    Array.init replicas (fun i ->
        let plan = plan_for i in
        let faulty = Faults.enabled plan in
        let injector = if faulty then Some (Faults.create plan) else None in
        let degraded_c = if faulty || brownout_mode then su.su_degraded else None in
        device_executor ~seed ~integrity ?tracer ?injector ?degraded_c c ~weights)
  in
  let auditor = reference_auditor ~seed ~rate:audit (fun _ -> c, weights) in
  let cfg =
    {
      Serve.Cluster.default_config with
      Serve.Cluster.c_server = su.su_config;
      c_replicas = replicas;
      c_dispatch = dispatch;
      c_hedge_percentile = hedge_percentile;
      c_requeue_budget = requeue_budget;
      c_net = net;
    }
  in
  let report =
    Serve.Cluster.simulate ?tracer ?auditor cfg ~arrivals:su.su_arrivals
      ~payload:(fun i -> su.su_payloads.(i))
      ~executors
  in
  {
    cr_summary = Serve.Stats.summarize report.Serve.Cluster.cluster_stats;
    cr_profiler = report.Serve.Cluster.cluster_stats.Serve.Stats.profiler;
    cr_replicas =
      List.map
        (fun (v : Serve.Cluster.replica_view) ->
          {
            rr_id = v.Serve.Cluster.rv_id;
            rr_health = Serve.Replica.health_name v.Serve.Cluster.rv_health;
            rr_summary = Serve.Stats.summarize v.Serve.Cluster.rv_stats;
          })
        report.Serve.Cluster.replica_views;
  }
