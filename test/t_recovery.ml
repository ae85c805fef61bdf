(** Golden pins of the batch-recovery path on all three serving engines.

    A scripted device yields transient faults, one OOM, one device reset
    and one poison request. Each engine's exact summary JSON — retry
    counts, jittered backoff timings, bisection splits, budget sheds,
    failover and quarantine counters — and a digest of its full trace are
    compared to fixed strings. The determinism tests only compare a run
    with its own rerun, so these pins are what holds the retry, jitter and
    bisection schedule still across refactors of the resolution loop. *)

open Acrobat
module Server = Serve.Server
module Batcher = Serve.Batcher
module Traffic = Serve.Traffic
module Stats = Serve.Stats
module Cluster = Serve.Cluster
module Json = Serve.Json
module Dispatcher = Tenancy.Dispatcher
module Tenant = Tenancy.Tenant
module Autoscaler = Tenancy.Autoscaler

let poison_id = 13

let fault ?(transient = true) ?(oom = false) ?(reset = false) reason =
  Server.Exec_fault
    {
      ef_latency_us = 40.0;
      ef_reason = reason;
      ef_transient = transient;
      ef_oom = oom;
      ef_reset = reset;
    }

(* [calls] numbers executions across every replica of one run, so each run
   sees exactly one OOM (call 5) and one reset (call 12); every fourth call
   and a storm of calls 16-19 are transient flakes, and any other batch
   holding [poison_id] fails deterministically. [corrupt n] marks call
   [n]'s outputs silently corrupted (only an audit can tell). *)
let scripted ~calls ~corrupt ~degraded batch =
  incr calls;
  let n = !calls in
  if n = 5 then fault ~transient:false ~oom:true "oom"
  else if n = 12 then fault ~reset:true "reset"
  else if List.mem poison_id batch then fault ~transient:false "poison"
  else if n mod 4 = 0 || (n >= 16 && n < 20) then fault "flake"
  else
    Server.Exec_ok
      {
        Server.ex_latency_us =
          (if degraded then 90.0 else 150.0) +. (20.0 *. float_of_int (List.length batch));
        ex_profiler = None;
        ex_fingerprints = None;
        ex_corrupted = corrupt n;
      }

let auditor =
  { Server.au_rate = 0.5; au_seed = 99; au_reference = (fun _ _ -> 0L, 35.0) }

let arrivals ~seed ~rate ~n =
  Traffic.arrivals ~rng:(Rng.create seed) (Traffic.Poisson { rate_per_s = rate }) ~n

let summary stats = Json.to_string (Stats.summary_to_json (Stats.summarize stats))
let digest tracer = Digest.to_hex (Digest.string (Json.to_string (Trace.to_json tracer)))

let server_config =
  {
    Server.default_config with
    Server.policy = Batcher.Adaptive { max_batch = 8; max_wait_us = 600.0 };
    queue_capacity = 24;
    tolerance =
      {
        Server.default_tolerance with
        Server.breaker_threshold = 3;
        degrade_high_frac = 0.5;
      };
    resilience = { Resilience.off with Resilience.rs_retry_budget = Some 0.3 };
  }

(** Single server, retry budget armed: [summary; trace digest]. *)
let server_run () =
  let tracer = Trace.create () in
  let calls = ref 0 in
  let stats =
    Server.simulate ~tracer server_config
      ~arrivals:(arrivals ~seed:21 ~rate:25_000.0 ~n:80)
      ~payload:Fun.id ~execute:(scripted ~calls ~corrupt:(fun _ -> false))
  in
  [ summary stats; digest tracer ]

(** Three replicas, one-reset failover, audited quarantine of replica 2:
    [cluster summary; replica 0..2 summaries; trace digest]. *)
let cluster_run () =
  let tracer = Trace.create () in
  let calls = ref 0 in
  let exec i =
    let corrupt n = i = 2 && n mod 3 = 1 in
    fun ~degraded batch -> scripted ~calls ~corrupt ~degraded batch
  in
  let cfg =
    {
      Cluster.default_config with
      Cluster.c_server =
        {
          server_config with
          Server.queue_capacity = 32;
          resilience = { Resilience.off with Resilience.rs_retry_budget = Some 1.0 };
        };
      c_replicas = 3;
      c_reset_threshold = 1;
    }
  in
  let r =
    Cluster.simulate ~tracer ~auditor cfg
      ~arrivals:(arrivals ~seed:22 ~rate:25_000.0 ~n:120)
      ~payload:Fun.id ~executors:(Array.init 3 exec)
  in
  (summary r.Cluster.cluster_stats
  :: List.map (fun v -> summary v.Cluster.rv_stats) r.Cluster.replica_views)
  @ [ digest tracer ]

let tenant ~index ~model ~rate name : Tenant.t =
  {
    Tenant.tn_name = name;
    tn_model = model;
    tn_rate_per_s = rate;
    tn_bursty = false;
    tn_seed = Tenant.derived_seed ~seed:5 ~index;
    tn_slo_ms = 40.0;
    tn_quota = 24;
    tn_weight = 1.0 +. float_of_int index;
    tn_requests = 60;
  }

(** Two tenants on two replicas, resilience and hedging armed, audited:
    [report JSON; trace digest]. *)
let dispatcher_run () =
  let tracer = Trace.create () in
  let calls = ref 0 in
  let cfg =
    {
      Dispatcher.default_config with
      Dispatcher.t_server =
        {
          server_config with
          Server.tolerance = Server.default_tolerance;
          resilience =
            {
              Resilience.rs_retry_budget = Some 0.5;
              rs_target_delay_us = Some 4_000.0;
              rs_brownout = None;
            };
        };
      t_autoscale = Autoscaler.fixed 2;
      t_hedge_percentile = Some 90.0;
    }
  in
  let tenants =
    [| tenant ~index:0 ~model:"treelstm" ~rate:10_000.0 "alpha";
       tenant ~index:1 ~model:"birnn" ~rate:6_000.0 "beta" |]
  in
  let r =
    Dispatcher.simulate ~tracer ~auditor cfg ~tenants
      ~payload:(fun ~tenant:_ ~index:_ ~id -> id)
      ~execute:(fun i ~model:_ batch ->
        scripted ~calls ~corrupt:(fun n -> i = 0 && n mod 3 = 1) ~degraded:false batch)
      ~model_bytes:(fun m -> if m = "treelstm" then 2_000_000 else 500_000)
  in
  [ Json.to_string (Dispatcher.report_json r); digest tracer ]

(* Generated from the runs above; regenerate only for a deliberate,
   documented change of recovery behaviour. *)

let golden_server =
  [
    "{\"offered\":80,\"completed\":49,\"shed\":22,\"expired\":0,\"makespan_ms\":4.43044,\"throughput_rps\":11059.8,\"p50_ms\":1.19066,\"p95_ms\":2.69037,\"p99_ms\":2.85071,\"mean_ms\":1.49717,\"mean_queue_ms\":1.31533,\"mean_compute_ms\":0.181837,\"batches\":15,\"mean_batch\":3.26667,\"drop_rate\":0.3875,\"fault_batches\":13,\"retries\":6,\"bisections\":4,\"poisoned\":1,\"breaker_opens\":1,\"breaker_shed\":0,\"degraded_batches\":12,\"goodput\":0.6125,\"limit_shed\":0,\"retry_shed\":8,\"retried_requests\":17,\"brownouts\":0,\"brownout_restores\":0}";
    "a9f8602da269c6a29f4c9edc1de856d4";
  ]

let golden_cluster =
  [
    "{\"offered\":120,\"completed\":45,\"shed\":74,\"expired\":0,\"makespan_ms\":22.9281,\"throughput_rps\":1962.66,\"p50_ms\":20.7243,\"p95_ms\":21.0265,\"p99_ms\":21.5892,\"mean_ms\":15.3274,\"mean_queue_ms\":15.07,\"mean_compute_ms\":0.257444,\"batches\":15,\"mean_batch\":3.0,\"drop_rate\":0.625,\"fault_batches\":11,\"retries\":4,\"bisections\":2,\"poisoned\":1,\"breaker_opens\":4,\"breaker_shed\":0,\"degraded_batches\":4,\"goodput\":0.375,\"failovers\":4,\"requeued\":21,\"probes\":3,\"readmitted\":1,\"hedges\":0,\"hedge_wins\":0,\"hedge_cancels\":0,\"hedge_wasted\":0,\"limit_shed\":0,\"retry_shed\":0,\"retried_requests\":11,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":2,\"corrupted_delivered\":1,\"audits\":25,\"audit_mismatches\":2,\"quarantines\":1,\"quarantine_restores\":0}";
    "{\"offered\":1,\"completed\":1,\"shed\":0,\"expired\":0,\"makespan_ms\":0.205,\"throughput_rps\":4878.05,\"p50_ms\":0.205,\"p95_ms\":0.205,\"p99_ms\":0.205,\"mean_ms\":0.205,\"mean_queue_ms\":0.0,\"mean_compute_ms\":0.205,\"batches\":1,\"mean_batch\":1.0,\"drop_rate\":0.0,\"fault_batches\":4,\"retries\":2,\"bisections\":0,\"poisoned\":0,\"breaker_opens\":2,\"breaker_shed\":0,\"degraded_batches\":0,\"goodput\":1.0,\"failovers\":2,\"requeued\":0,\"probes\":0,\"readmitted\":0,\"hedges\":0,\"hedge_wins\":0,\"hedge_cancels\":0,\"hedge_wasted\":0,\"limit_shed\":0,\"retry_shed\":0,\"retried_requests\":2,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":0,\"corrupted_delivered\":0,\"audits\":1,\"audit_mismatches\":0,\"quarantines\":0,\"quarantine_restores\":0}";
    "{\"offered\":114,\"completed\":39,\"shed\":74,\"expired\":0,\"makespan_ms\":22.8182,\"throughput_rps\":1709.16,\"p50_ms\":20.75,\"p95_ms\":21.0588,\"p99_ms\":21.5892,\"mean_ms\":17.6537,\"mean_queue_ms\":17.3866,\"mean_compute_ms\":0.267179,\"batches\":10,\"mean_batch\":3.9,\"drop_rate\":0.657895,\"fault_batches\":6,\"retries\":2,\"bisections\":2,\"poisoned\":1,\"breaker_opens\":1,\"breaker_shed\":0,\"degraded_batches\":4,\"goodput\":0.342105,\"failovers\":1,\"requeued\":0,\"probes\":0,\"readmitted\":1,\"hedges\":0,\"hedge_wins\":0,\"hedge_cancels\":0,\"hedge_wasted\":0,\"limit_shed\":0,\"retry_shed\":0,\"retried_requests\":9,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":0,\"corrupted_delivered\":0,\"audits\":22,\"audit_mismatches\":0,\"quarantines\":0,\"quarantine_restores\":0}";
    "{\"offered\":5,\"completed\":5,\"shed\":0,\"expired\":0,\"makespan_ms\":0.903103,\"throughput_rps\":5536.47,\"p50_ms\":0.191421,\"p95_ms\":0.297462,\"p99_ms\":0.297462,\"mean_ms\":0.206777,\"mean_queue_ms\":0.0147766,\"mean_compute_ms\":0.192,\"batches\":4,\"mean_batch\":1.25,\"drop_rate\":0.0,\"fault_batches\":1,\"retries\":0,\"bisections\":0,\"poisoned\":0,\"breaker_opens\":1,\"breaker_shed\":0,\"degraded_batches\":0,\"goodput\":1.0,\"failovers\":1,\"requeued\":0,\"probes\":0,\"readmitted\":0,\"hedges\":0,\"hedge_wins\":0,\"hedge_cancels\":0,\"hedge_wasted\":0,\"corrupted_batches\":2,\"corrupted_delivered\":1,\"audits\":2,\"audit_mismatches\":2,\"quarantines\":1,\"quarantine_restores\":0}";
    "5875912a91208b6edfdd6ec3b59af7b4";
  ]

let golden_dispatcher =
  [
    "{\"summary\":{\"offered\":120,\"completed\":69,\"shed\":0,\"expired\":0,\"makespan_ms\":12.4915,\"throughput_rps\":5523.74,\"p50_ms\":0.403528,\"p95_ms\":1.2831,\"p99_ms\":1.35198,\"mean_ms\":0.464454,\"mean_queue_ms\":0.247425,\"mean_compute_ms\":0.217029,\"batches\":44,\"mean_batch\":1.63636,\"drop_rate\":0.425,\"fault_batches\":23,\"retries\":16,\"bisections\":2,\"poisoned\":2,\"breaker_opens\":1,\"breaker_shed\":40,\"degraded_batches\":0,\"goodput\":0.575,\"failovers\":0,\"requeued\":0,\"probes\":0,\"readmitted\":0,\"hedges\":10,\"hedge_wins\":1,\"hedge_cancels\":2,\"hedge_wasted\":3,\"quota_shed\":0,\"swaps\":10,\"slo_ok\":69,\"slo_attainment\":1.0,\"limit_shed\":0,\"retry_shed\":9,\"retried_requests\":24,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":6,\"corrupted_delivered\":3,\"audits\":39,\"audit_mismatches\":5,\"quarantines\":1,\"quarantine_restores\":0},\"goodput\":0.575,\"slo_attainment\":1.0,\"utilization\":0.550197,\"peak_replicas\":2,\"final_replicas\":2,\"swaps\":10,\"tenants\":[{\"name\":\"alpha\",\"model\":\"treelstm\",\"weight\":1.0,\"quota\":24,\"peak_inflight\":9,\"slo_ms\":40.0,\"goodput\":0.25,\"slo_attainment\":1.0,\"summary\":{\"offered\":60,\"completed\":15,\"shed\":0,\"expired\":0,\"makespan_ms\":3.20366,\"throughput_rps\":4682.15,\"p50_ms\":0.524312,\"p95_ms\":1.35198,\"p99_ms\":1.35198,\"mean_ms\":0.764501,\"mean_queue_ms\":0.520168,\"mean_compute_ms\":0.244333,\"batches\":7,\"mean_batch\":2.57143,\"drop_rate\":0.75,\"fault_batches\":11,\"retries\":5,\"bisections\":2,\"poisoned\":2,\"breaker_opens\":1,\"breaker_shed\":40,\"degraded_batches\":0,\"goodput\":0.25,\"quota_shed\":0,\"swaps\":4,\"slo_ok\":15,\"slo_attainment\":1.0,\"limit_shed\":0,\"retry_shed\":3,\"retried_requests\":8,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":2,\"corrupted_delivered\":1,\"audits\":9,\"audit_mismatches\":2,\"quarantines\":0,\"quarantine_restores\":0}},{\"name\":\"beta\",\"model\":\"birnn\",\"weight\":2.0,\"quota\":24,\"peak_inflight\":7,\"slo_ms\":40.0,\"goodput\":0.9,\"slo_attainment\":1.0,\"summary\":{\"offered\":60,\"completed\":54,\"shed\":0,\"expired\":0,\"makespan_ms\":12.4915,\"throughput_rps\":4322.93,\"p50_ms\":0.355679,\"p95_ms\":0.652731,\"p99_ms\":0.789474,\"mean_ms\":0.381107,\"mean_queue_ms\":0.171663,\"mean_compute_ms\":0.209444,\"batches\":37,\"mean_batch\":1.45946,\"drop_rate\":0.1,\"fault_batches\":12,\"retries\":11,\"bisections\":0,\"poisoned\":0,\"breaker_opens\":0,\"breaker_shed\":0,\"degraded_batches\":0,\"goodput\":0.9,\"quota_shed\":0,\"swaps\":6,\"slo_ok\":54,\"slo_attainment\":1.0,\"limit_shed\":0,\"retry_shed\":6,\"retried_requests\":16,\"brownouts\":0,\"brownout_restores\":0,\"corrupted_batches\":4,\"corrupted_delivered\":2,\"audits\":30,\"audit_mismatches\":3,\"quarantines\":0,\"quarantine_restores\":0}}],\"scale_events\":[{\"ts_us\":6370.22,\"event\":\"quarantine_replace\",\"replicas\":2}]}";
    "e04077ed5cbfae31b1f425809e001ad5";
  ]

let pin name golden run () =
  Alcotest.(check (list string)) (name ^ ": exact fault-path output") golden (run ())

(* Every engine asserts its conservation laws at the end of a run under
   the event loop's debug checks; the scripted fault paths hold them and
   still print their golden outputs. *)
let test_goldens_under_debug_checks () =
  let was = Serve.Event_loop.debug_checks_enabled () in
  Fun.protect
    ~finally:(fun () -> Serve.Event_loop.set_debug_checks was)
    (fun () ->
      Serve.Event_loop.set_debug_checks true;
      pin "server" golden_server server_run ();
      pin "cluster" golden_cluster cluster_run ();
      pin "dispatcher" golden_dispatcher dispatcher_run ())

let suite =
  [
    Alcotest.test_case "golden: server fault path" `Quick
      (pin "server" golden_server server_run);
    Alcotest.test_case "golden: cluster fault path" `Quick
      (pin "cluster" golden_cluster cluster_run);
    Alcotest.test_case "golden: dispatcher fault path" `Quick
      (pin "dispatcher" golden_dispatcher dispatcher_run);
    Alcotest.test_case "golden: all paths conserve under debug checks" `Quick
      test_goldens_under_debug_checks;
  ]
