(** The chaos campaign driver: generate scenarios, run them through the
    serve cluster with tracing on, check the invariant suite, and shrink
    whatever violates into a minimal reproducer.

    Scenarios execute against a synthetic executor (below) rather than a
    compiled model: invariants quantify over {e accounting}, not latency
    values, and the synthetic executor exercises every recovery path —
    transient faults, resets, stragglers, OOM, deterministic poison — at
    thousands of scenarios per second. The emitted reproducer is the real
    [acrobatc serve] command with the same topology, traffic seed and fault
    plans, so a violation can be replayed against the full compiled-model
    stack.

    Determinism: a campaign is a pure function of [(ca_seed, ca_runs,
    ca_fault_prob)]. Every simulation runs on the virtual clock with seeded
    RNG streams only, so [report_json] is byte-identical across runs — the
    property [make check] enforces by diffing two campaign executions. *)

module Rng = Acrobat_tensor.Rng
module Faults = Acrobat_device.Faults
module Server = Acrobat_serve.Server
module Cluster = Acrobat_serve.Cluster
module Stats = Acrobat_serve.Stats
module Traffic = Acrobat_serve.Traffic
module Event_loop = Acrobat_serve.Event_loop
module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Tenant = Acrobat_tenancy.Tenant
module Autoscaler = Acrobat_tenancy.Autoscaler
module Dispatcher = Acrobat_tenancy.Dispatcher
module Resilience = Acrobat_resilience.Policy

(* Synthetic request cost: the executor's latency is 100us + 10us per
   batched request, and one request occupies 100 "elements" against a
   capacity plan. Values are arbitrary; invariants never read them beyond
   "time passes and batches finish". *)
let elems_per_req = 100

(* Synthetic per-request fingerprint: any injective function of the id
   works — the audit layer compares fingerprints for equality, never
   structure. A corrupted attempt perturbs every request's fingerprint,
   mirroring the real executor's every-output perturbation; the campaign
   auditor's reference is the unperturbed value. *)
let synth_fp ~corrupted id =
  let base = Int64.mul (Int64.of_int (id + 1)) 0x9e3779b97f4a7c15L in
  if corrupted then Int64.add base 1L else base

(* Audit re-execution latency: a bit over one unbatched request (the
   reference engine runs without batching). *)
let audit_latency_us = 110.0

(* One replica's executor: a fresh injector per call of this function (one
   per simulation), consulted once per batch attempt like the real device
   glue. Poison and capacity are deterministic (non-transient, so the
   server goes straight to bisection); injector draws are seeded by the
   plan. The payload is the request id itself. *)
let executor_of_plan (plan : Faults.plan) : degraded:bool -> int list -> Server.exec_result
    =
  let inj = Faults.create plan in
  fun ~degraded:_ (batch : int list) ->
    let n = List.length batch in
    match List.find_opt (fun id -> List.mem id plan.Faults.poison) batch with
    | Some id ->
      Server.Exec_fault
        {
          ef_latency_us = 100.0;
          ef_reason = Fmt.str "poisoned request #%d" id;
          ef_transient = false;
          ef_oom = false;
          ef_reset = false;
        }
    | None -> (
      match plan.Faults.capacity_elems with
      | Some cap when n * elems_per_req > cap ->
        Server.Exec_fault
          {
            ef_latency_us = 60.0;
            ef_reason = Fmt.str "oom: %d elems > %d" (n * elems_per_req) cap;
            ef_transient = false;
            ef_oom = true;
            ef_reset = false;
          }
      | _ -> (
        Faults.begin_attempt inj;
        match Faults.on_launch inj with
        | mult ->
          let corrupted = Faults.corrupt_attempt inj in
          Server.Exec_ok
            {
              Server.ex_latency_us = (100.0 +. (10.0 *. float_of_int n)) *. mult;
              ex_profiler = None;
              ex_fingerprints =
                Some (Array.of_list (List.map (synth_fp ~corrupted) batch));
              ex_corrupted = corrupted;
            }
        | exception Faults.Fault { kind; _ } ->
          Server.Exec_fault
            {
              ef_latency_us = 50.0;
              ef_reason = Faults.kind_name kind;
              ef_transient = true;
              ef_oom = false;
              ef_reset = kind = Faults.Device_reset;
            }))

(* The campaign's reference engine: the synthetic executor's uncorrupted
   fingerprint for the request, after one unbatched re-execution's worth of
   simulated latency. Seeded off the scenario seed on a distinct stream,
   exactly as [Acrobat.reference_auditor] derives its from [--seed]. *)
let auditor_of (sc : Scenario.t) : int Server.auditor option =
  if sc.Scenario.sc_audit <= 0.0 then None
  else
    Some
      {
        Server.au_rate = sc.Scenario.sc_audit;
        au_seed = (sc.Scenario.sc_seed * 61) + 29;
        au_reference = (fun id _payload -> synth_fp ~corrupted:false id, audit_latency_us);
      }

let cluster_config (sc : Scenario.t) : Cluster.config =
  {
    Cluster.default_config with
    Cluster.c_server =
      {
        Server.default_config with
        Server.policy = sc.Scenario.sc_policy;
        queue_capacity = sc.Scenario.sc_queue_cap;
        deadline_us = Option.map (fun ms -> ms *. 1000.0) sc.Scenario.sc_deadline_ms;
        resilience = sc.Scenario.sc_resilience;
      };
    c_replicas = sc.Scenario.sc_replicas;
    c_dispatch = sc.Scenario.sc_dispatch;
    c_hedge_percentile = sc.Scenario.sc_hedge;
    c_requeue_budget = sc.Scenario.sc_requeue_budget;
    c_net = sc.Scenario.sc_net;
  }

let tenancy_config (sc : Scenario.t) (tc : Scenario.tenancy) : Dispatcher.config =
  {
    Dispatcher.t_server =
      {
        Server.default_config with
        Server.policy = sc.Scenario.sc_policy;
        queue_capacity = sc.Scenario.sc_queue_cap;
        resilience = sc.Scenario.sc_resilience;
      };
    t_autoscale =
      Autoscaler.default ~min_replicas:tc.Scenario.tc_min
        ~max_replicas:tc.Scenario.tc_max;
    t_hedge_percentile = sc.Scenario.sc_hedge;
    t_net = sc.Scenario.sc_net;
  }

(* Synthetic per-model weight footprint for the swap penalty. Any
   deterministic positive size works — invariants never read latencies —
   but distinct sizes per model name keep swap costs asymmetric the way a
   real catalog's are. *)
let model_bytes (m : string) : int = 10_000 * (1 + (String.length m mod 7))

(** Execute one scenario with tracing on. The arrival trace derives from
    [sc_seed] {e exactly} as [Acrobat.serve_cluster] derives it from
    [--seed] (and per-tenant seeds exactly as [--tenant] derives them), so
    the emitted CLI reproducer replays the same traffic. Returns the
    aggregate summary, the trace, per-tenant observations (empty on plain
    cluster runs), and the peak replica count (quota scaling). *)
let run_scenario_full (sc : Scenario.t) :
    Stats.summary * Trace.t * Invariants.tenant_obs list * int =
  let tracer = Trace.create () in
  match sc.Scenario.sc_tenancy with
  | None ->
    let arrivals =
      Traffic.arrivals
        ~rng:(Rng.create ((sc.Scenario.sc_seed * 53) + 11))
        (Scenario.process sc) ~n:sc.Scenario.sc_requests
    in
    let report =
      Cluster.simulate ~tracer ?auditor:(auditor_of sc) (cluster_config sc) ~arrivals
        ~payload:(fun i -> i)
        ~executors:(Array.map executor_of_plan sc.Scenario.sc_plans)
    in
    Stats.summarize report.Cluster.cluster_stats, tracer, [], sc.Scenario.sc_replicas
  | Some tc ->
    (* The shrinker halves [sc_requests] without rebuilding tenant records,
       so the per-tenant stream length is always taken from the scenario. *)
    let tenants =
      Array.map
        (fun t -> { t with Tenant.tn_requests = sc.Scenario.sc_requests })
        tc.Scenario.tc_tenants
    in
    let execs = Array.map executor_of_plan sc.Scenario.sc_plans in
    let execute i ~model:_ batch =
      (* Autoscaled replicas index plans positionally; clamp in case a
         shrink candidate truncated the plan array below the ceiling. *)
      execs.(min i (Array.length execs - 1)) ~degraded:false batch
    in
    let report =
      Dispatcher.simulate ~tracer ?auditor:(auditor_of sc) (tenancy_config sc tc)
        ~tenants
        ~payload:(fun ~tenant:_ ~index:_ ~id -> id)
        ~execute ~model_bytes
    in
    let obs =
      List.map
        (fun (tv : Dispatcher.tenant_view) ->
          let s = Stats.summarize tv.Dispatcher.tv_stats in
          {
            Invariants.tb_name = tv.Dispatcher.tv_tenant.Tenant.tn_name;
            tb_offered = s.Stats.s_offered;
            tb_completed = s.Stats.s_completed;
            tb_quota = tv.Dispatcher.tv_tenant.Tenant.tn_quota;
            tb_peak_inflight = tv.Dispatcher.tv_peak_inflight;
            tb_resilience_shed =
              s.Stats.s_limit_shed + s.Stats.s_retry_shed + s.Stats.s_breaker_shed;
          })
        report.Dispatcher.tn_tenants
    in
    Stats.summarize report.Dispatcher.tn_stats, tracer, obs,
    report.Dispatcher.tn_peak_replicas

let run_scenario (sc : Scenario.t) : Stats.summary * Trace.t =
  let summary, tracer, _, _ = run_scenario_full sc in
  summary, tracer

(* The goodput floor a scenario provably must meet: a clean fleet with no
   deadline and a queue deep enough that nothing sheds answers everything.
   Hedging can double a request's queue footprint, hence the 2x bound.
   Anything fault-injected or admission-bounded gets no floor — legitimate
   shedding is indistinguishable from lost work at this level (the
   conservation and terminal invariants still apply). *)
let derived_floor (sc : Scenario.t) : float =
  let clean = Array.for_all (fun p -> not (Faults.enabled p)) sc.Scenario.sc_plans in
  let need =
    (if sc.Scenario.sc_hedge = None then 1 else 2) * sc.Scenario.sc_requests
  in
  if sc.Scenario.sc_tenancy <> None then
    (* Quota shedding and SLO expiry are legitimate on tenant mixes; the
       starvation and quota invariants carry the liveness burden instead. *)
    0.0
  else if Resilience.active sc.Scenario.sc_resilience then
    (* The limiter and retry budget shed legitimately under pressure; the
       retry_amplification and brownout_dwell invariants bound them. *)
    0.0
  else if sc.Scenario.sc_net <> None then
    (* A lossy transport sheds lawfully at the deadline gate and the requeue
       budget; the net conservation, exactly-once and partition invariants
       carry the correctness burden instead. *)
    0.0
  else if
    clean && sc.Scenario.sc_deadline_ms = None && sc.Scenario.sc_queue_cap >= need
  then 1.0
  else 0.0

let tenant_obs_json (tb : Invariants.tenant_obs) : Json.t =
  Json.Obj
    [
      "name", Json.Str tb.Invariants.tb_name;
      "offered", Json.Int tb.Invariants.tb_offered;
      "completed", Json.Int tb.Invariants.tb_completed;
      "quota", Json.Int tb.Invariants.tb_quota;
      "peak_inflight", Json.Int tb.Invariants.tb_peak_inflight;
      "resilience_shed", Json.Int tb.Invariants.tb_resilience_shed;
    ]

(* Canonical byte form of a run's observable output, for replay comparison.
   Tenant observations ride along so the determinism invariant also covers
   per-tenant accounting. *)
let observable_string (summary : Stats.summary) (tracer : Trace.t)
    (tenants : Invariants.tenant_obs list) : string =
  Json.to_string
    (Json.Obj
       [
         "summary", Stats.summary_to_json summary;
         "tenants", Json.List (List.map tenant_obs_json tenants);
         "trace", Trace.to_json tracer;
       ])

(** Check one scenario against the full invariant suite. Returns the
    violations (empty = healthy) and the run's trace JSON for artifact
    dumps. [goodput_floor] strengthens (never weakens) the derived floor;
    [check_replay] re-runs the scenario and demands byte-identical
    summary + trace (the determinism invariant). A crash anywhere in the
    stack is itself a violation, named ["crash"]. *)
let check_scenario ?goodput_floor ?(check_replay = true) (sc : Scenario.t) :
    Invariants.violation list * Json.t =
  match run_scenario_full sc with
  | summary, tracer, tenants, peak_replicas ->
    let floor =
      Float.max (derived_floor sc) (Option.value ~default:0.0 goodput_floor)
    in
    let violations =
      Invariants.check
        {
          Invariants.in_requests = Scenario.total_requests sc;
          in_requeue_budget = sc.Scenario.sc_requeue_budget;
          in_goodput_floor = floor;
          in_summary = summary;
          in_events = Trace.events tracer;
          in_tenants = tenants;
          in_retry_budget_frac =
            sc.Scenario.sc_resilience.Resilience.rs_retry_budget;
          in_brownout = sc.Scenario.sc_resilience.Resilience.rs_brownout;
          in_peak_replicas = peak_replicas;
          in_audit_rate = sc.Scenario.sc_audit;
          in_net = sc.Scenario.sc_net;
        }
    in
    let violations =
      if not check_replay then violations
      else begin
        let summary2, tracer2, tenants2, _ = run_scenario_full sc in
        let a = observable_string summary tracer tenants
        and b = observable_string summary2 tracer2 tenants2 in
        if String.equal a b then violations
        else
          violations
          @ [
              {
                Invariants.vi_name = "replay";
                vi_detail =
                  Fmt.str
                    "same seed produced different output (%d vs %d bytes of \
                     summary+trace JSON)"
                    (String.length a) (String.length b);
              };
            ]
      end
    in
    violations, Trace.to_json tracer
  | exception exn ->
    ( [
        {
          Invariants.vi_name = "crash";
          vi_detail = Fmt.str "simulation raised: %s" (Printexc.to_string exn);
        };
      ],
      Json.Null )

(** Campaign parameters. *)
type campaign = {
  ca_seed : int;
  ca_runs : int;  (** Scenarios to generate and check. *)
  ca_fault_prob : float;  (** Per-replica probability of a fault plan. *)
  ca_goodput_floor : float option;  (** Extra floor on top of the derived one. *)
  ca_check_replay : bool;  (** Same-seed byte-identical replay invariant. *)
  ca_shrink : bool;  (** Minimize violating scenarios before reporting. *)
  ca_shrink_budget : int;  (** Max re-simulations per shrink. *)
}

let default_campaign =
  {
    ca_seed = 42;
    ca_runs = 100;
    ca_fault_prob = 0.5;
    ca_goodput_floor = None;
    ca_check_replay = true;
    ca_shrink = false;
    ca_shrink_budget = 200;
  }

(** One violating scenario's record in the campaign report. *)
type outcome = {
  oc_scenario : Scenario.t;
  oc_violations : Invariants.violation list;
  oc_shrunk : (Scenario.t * Invariants.violation list) option;
      (** Minimal violating scenario and its violations, when shrinking ran. *)
  oc_trace : Json.t;  (** Failing trace (the shrunk scenario's if shrunk). *)
}

type report = {
  rp_campaign : campaign;
  rp_scenarios : int;  (** Scenarios actually checked. *)
  rp_outcomes : outcome list;  (** Violating scenarios, in campaign order. *)
}

(** The scenario to minimize/report for an outcome: the shrunk one when
    available, the original otherwise. *)
let minimal (oc : outcome) : Scenario.t * Invariants.violation list =
  match oc.oc_shrunk with
  | Some (sc, vs) -> sc, vs
  | None -> oc.oc_scenario, oc.oc_violations

(* Arm the event-loop dispatch-order assertions for the duration of [f], so
   scheduling regressions surface as crashes the suite reports; the prior
   setting is restored on exit. *)
let with_debug_checks f =
  let was = Event_loop.debug_checks_enabled () in
  Event_loop.set_debug_checks true;
  Fun.protect ~finally:(fun () -> Event_loop.set_debug_checks was) f

(* Check campaign scenario [index]; [Some outcome] iff it violates.
   Call under [with_debug_checks]. *)
let check_index (ca : campaign) (index : int) : outcome option =
  let sc = Scenario.generate ~campaign_seed:ca.ca_seed ~fault_prob:ca.ca_fault_prob index in
  let check sc' =
    check_scenario ?goodput_floor:ca.ca_goodput_floor ~check_replay:ca.ca_check_replay sc'
  in
  let violations, trace = check sc in
  if violations = [] then None
  else begin
    let shrunk =
      if not ca.ca_shrink then None
      else begin
        let violates sc' = fst (check sc') <> [] in
        let minimal_sc, _runs = Shrink.shrink ~violates ~budget:ca.ca_shrink_budget sc in
        let vs, _ = check minimal_sc in
        (* The shrinker only ever accepts violating candidates, but guard
           against a flaky predicate anyway. *)
        if vs = [] then None else Some (minimal_sc, vs)
      end
    in
    let trace =
      match shrunk with Some (msc, _) -> snd (check msc) | None -> trace
    in
    Some { oc_scenario = sc; oc_violations = violations; oc_shrunk = shrunk;
           oc_trace = trace }
  end

(** Check a single campaign scenario by index — the [--only] replay path:
    re-derives scenario [index] from the campaign seed and runs the exact
    campaign check (including shrinking when enabled). *)
let check_one (ca : campaign) (index : int) : outcome option =
  with_debug_checks (fun () -> check_index ca index)

(** Run a campaign: check scenarios [0 .. ca_runs - 1], collecting (and,
    when [ca_shrink], minimizing) every violating one. *)
let run_campaign (ca : campaign) : report =
  with_debug_checks (fun () ->
      let outcomes = ref [] in
      for index = 0 to ca.ca_runs - 1 do
        match check_index ca index with
        | None -> ()
        | Some oc -> outcomes := oc :: !outcomes
      done;
      { rp_campaign = ca; rp_scenarios = ca.ca_runs; rp_outcomes = List.rev !outcomes })

(** Headline campaign metric: violating scenarios per thousand checked. *)
let violations_per_kiloscenario (r : report) : float =
  if r.rp_scenarios = 0 then 0.0
  else 1000.0 *. float_of_int (List.length r.rp_outcomes) /. float_of_int r.rp_scenarios

(** The reproducer block for one violating outcome: a comment naming the
    violated invariants, the one-line [acrobatc serve] replay of the
    (minimal) scenario, and the [acrobatc chaos] line that re-derives and
    re-checks it from the campaign seed alone. *)
let repro_lines (ca : campaign) (oc : outcome) : string list =
  let sc, vs = minimal oc in
  [
    Fmt.str "# scenario %d of campaign seed %d violates: %s"
      oc.oc_scenario.Scenario.sc_index ca.ca_seed
      (String.concat ", " (Invariants.names vs));
    Scenario.to_cli sc;
    Fmt.str "acrobatc chaos --seed %d --fault-prob %g%s --only %d --shrink" ca.ca_seed
      ca.ca_fault_prob
      (match ca.ca_goodput_floor with
      | Some g -> Fmt.str " --min-goodput %g" g
      | None -> "")
      oc.oc_scenario.Scenario.sc_index;
  ]

let violation_json (v : Invariants.violation) : Json.t =
  Json.Obj [ "invariant", Json.Str v.Invariants.vi_name;
             "detail", Json.Str v.Invariants.vi_detail ]

let outcome_json (oc : outcome) : Json.t =
  let sc, vs = minimal oc in
  Json.Obj
    [
      "scenario", Scenario.to_json oc.oc_scenario;
      "violations", Json.List (List.map violation_json oc.oc_violations);
      "shrunk", (if oc.oc_shrunk = None then Json.Bool false else Json.Bool true);
      "minimal", Scenario.to_json sc;
      "minimal_violations", Json.List (List.map violation_json vs);
    ]

(** Deterministic JSON report: same campaign parameters, same bytes. *)
let report_json (r : report) : Json.t =
  Json.Obj
    [
      "seed", Json.Int r.rp_campaign.ca_seed;
      "runs", Json.Int r.rp_campaign.ca_runs;
      "fault_prob", Json.Float r.rp_campaign.ca_fault_prob;
      "scenarios", Json.Int r.rp_scenarios;
      "violating", Json.Int (List.length r.rp_outcomes);
      "violations_per_kiloscenario", Json.Float (violations_per_kiloscenario r);
      "outcomes", Json.List (List.map outcome_json r.rp_outcomes);
    ]
