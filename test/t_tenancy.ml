(** Tests for the multi-tenant serving layer (lib/tenancy): weighted fair
    sharing, quota admission, model-swap accounting, the autoscaler state
    machine, byte-identical determinism, and single-tenant equivalence
    against the plain cluster path. *)

open Acrobat
open T_util
module Tenant = Tenancy.Tenant
module Fairshare = Tenancy.Fairshare
module Autoscaler = Tenancy.Autoscaler
module Dispatcher = Tenancy.Dispatcher
module Server = Serve.Server
module Batcher = Serve.Batcher
module Traffic = Serve.Traffic
module Stats = Serve.Stats
module Cluster = Serve.Cluster
module Json = Obs.Json

(* --- Shared fixtures --- *)

let mk_tenant ?(model = "treelstm") ?(rate = 2_000.0) ?(bursty = false)
    ?(slo_ms = 50.0) ?(quota = 64) ?(weight = 1.0) ?(requests = 120) ~seed ~index
    name : Tenant.t =
  {
    Tenant.tn_name = name;
    tn_model = model;
    tn_rate_per_s = rate;
    tn_bursty = bursty;
    tn_seed = Tenant.derived_seed ~seed ~index;
    tn_slo_ms = slo_ms;
    tn_quota = quota;
    tn_weight = weight;
    tn_requests = requests;
  }

(* Uniform synthetic device: setup-dominated latency, no faults. *)
let uniform_execute _replica ~model:_ batch =
  Server.Exec_ok
    {
      Server.ex_latency_us = 500.0 +. (50.0 *. float_of_int (List.length batch));
      ex_profiler = None;
      ex_fingerprints = None;
      ex_corrupted = false;
    }

let payload ~tenant:_ ~index:_ ~id = id
let no_swap_bytes _model = 0
let some_bytes _model = 1_000_000

let base_config ?(scaler = Autoscaler.fixed 1) () =
  {
    Dispatcher.default_config with
    Dispatcher.t_server =
      {
        Server.default_config with
        Server.policy = Batcher.Adaptive { max_batch = 8; max_wait_us = 500.0 };
        queue_capacity = 128;
      };
    t_autoscale = scaler;
  }

let with_resilience (cfg : Dispatcher.config) resilience =
  { cfg with Dispatcher.t_server = { cfg.Dispatcher.t_server with Server.resilience } }

(* --- Fairshare --- *)

(* A saturated device with uniform per-service cost: service counts must
   track the weights within an O(1) bound, independent of horizon. *)
let prop_fairshare_tracks_weights =
  qtest ~count:200 "fairshare: saturated service counts track weights"
    QCheck2.Gen.(list_size (int_range 2 4) (int_range 1 8))
    (fun ws ->
      let weights = Array.of_list (List.map float_of_int ws) in
      let fs = Fairshare.create ~weights in
      let n = Array.length weights in
      let counts = Array.make n 0 in
      let rounds = 1_000 in
      for _ = 1 to rounds do
        match Fairshare.ranked fs ~eligible:(fun _ -> true) with
        | [] -> ()
        | i :: _ ->
          Fairshare.serve fs i;
          Fairshare.charge fs i ~work:1.0;
          counts.(i) <- counts.(i) + 1
      done;
      let total_w = Array.fold_left ( +. ) 0.0 weights in
      let max_w = Array.fold_left Float.max 0.0 weights in
      let tol = (2.0 *. max_w) +. 2.0 in
      Array.for_all
        (fun i ->
          let expected = float_of_int rounds *. weights.(i) /. total_w in
          Float.abs (float_of_int counts.(i) -. expected) <= tol)
        (Array.init n (fun i -> i)))

let test_fairshare_no_banked_credit () =
  (* Tenant 1 sits ineligible for 100 rounds; when it returns, the vfloor
     clamp must forfeit its idle time instead of granting a catch-up burst. *)
  let fs = Fairshare.create ~weights:[| 1.0; 1.0 |] in
  for _ = 1 to 100 do
    match Fairshare.ranked fs ~eligible:(fun i -> i = 0) with
    | 0 :: _ ->
      Fairshare.serve fs 0;
      Fairshare.charge fs 0 ~work:1.0
    | _ -> Alcotest.fail "expected tenant 0"
  done;
  let c1 = ref 0 in
  for _ = 1 to 20 do
    match Fairshare.ranked fs ~eligible:(fun _ -> true) with
    | i :: _ ->
      Fairshare.serve fs i;
      Fairshare.charge fs i ~work:1.0;
      if i = 1 then incr c1
    | [] -> ()
  done;
  check_true "returning tenant gets at most half + rounding" (!c1 <= 11);
  check_true "returning tenant is not starved either" (!c1 >= 9)

(* --- Autoscaler state machine --- *)

let test_autoscaler_decisions () =
  let cfg = Autoscaler.default ~min_replicas:1 ~max_replicas:3 in
  let t = Autoscaler.create cfg in
  (* Fresh controller: delay above threshold scales up. *)
  (match Autoscaler.decide t ~now_us:0.0 ~replicas:1 ~max_queue_delay_us:10_000.0 with
  | Autoscaler.Scale_up -> ()
  | d -> Alcotest.failf "expected scale_up, got %s" (Autoscaler.decision_name d));
  Autoscaler.note_scaled t ~now_us:0.0 ~decision:Autoscaler.Scale_up;
  check_int "epoch bumped" 1 (Autoscaler.epoch t);
  (* Inside the cooldown window every input holds. *)
  (match
     Autoscaler.decide t ~now_us:(cfg.Autoscaler.as_cooldown_us /. 2.0) ~replicas:2
       ~max_queue_delay_us:1.0e9
   with
  | Autoscaler.Hold -> ()
  | d -> Alcotest.failf "expected hold in cooldown, got %s" (Autoscaler.decision_name d));
  let after = cfg.Autoscaler.as_cooldown_us +. 1.0 in
  (* At the ceiling, high delay holds rather than scaling past max. *)
  (match Autoscaler.decide t ~now_us:after ~replicas:3 ~max_queue_delay_us:1.0e9 with
  | Autoscaler.Hold -> ()
  | d -> Alcotest.failf "expected hold at max, got %s" (Autoscaler.decision_name d));
  (* Quiet queue with spare capacity scales down, but never below min. *)
  (match Autoscaler.decide t ~now_us:after ~replicas:2 ~max_queue_delay_us:0.0 with
  | Autoscaler.Scale_down -> ()
  | d -> Alcotest.failf "expected scale_down, got %s" (Autoscaler.decision_name d));
  match Autoscaler.decide t ~now_us:after ~replicas:1 ~max_queue_delay_us:0.0 with
  | Autoscaler.Hold -> ()
  | d -> Alcotest.failf "expected hold at min, got %s" (Autoscaler.decision_name d)

(* --- Dispatcher: determinism --- *)

let mixed_tenants ~seed =
  [|
    mk_tenant ~seed ~index:0 ~model:"treelstm" ~rate:1_500.0 ~weight:2.0 "alpha";
    mk_tenant ~seed ~index:1 ~model:"birnn" ~rate:900.0 ~bursty:true "beta";
    mk_tenant ~seed ~index:2 ~model:"moe" ~rate:400.0 ~quota:4 ~requests:60 "gamma";
  |]

let run_mixed ~seed =
  let cfg = base_config ~scaler:(Autoscaler.default ~min_replicas:1 ~max_replicas:3) () in
  Dispatcher.simulate cfg ~tenants:(mixed_tenants ~seed) ~payload
    ~execute:uniform_execute ~model_bytes:some_bytes

let test_determinism () =
  let j1 = Json.to_string (Dispatcher.report_json (run_mixed ~seed:7)) in
  let j2 = Json.to_string (Dispatcher.report_json (run_mixed ~seed:7)) in
  check_true "same seed gives byte-identical per-tenant report" (String.equal j1 j2);
  let j3 = Json.to_string (Dispatcher.report_json (run_mixed ~seed:8)) in
  check_true "different seed actually changes the report" (not (String.equal j1 j3))

(* --- Dispatcher: quota admission --- *)

let test_quota_sheds_before_admission () =
  (* One tenant, quota 2, arrivals far faster than the device: the gate
     must shed at admission and peak inflight can never exceed the quota. *)
  let t = mk_tenant ~seed:5 ~index:0 ~rate:50_000.0 ~quota:2 ~requests:80 "greedy" in
  let r =
    Dispatcher.simulate (base_config ()) ~tenants:[| t |] ~payload
      ~execute:uniform_execute ~model_bytes:no_swap_bytes
  in
  let s = Stats.summarize r.Dispatcher.tn_stats in
  check_true "quota shed fired" (s.Stats.s_quota_shed > 0);
  check_int "everything offered is accounted" 80 s.Stats.s_offered;
  match r.Dispatcher.tn_tenants with
  | [ tv ] ->
    check_true "peak inflight capped by quota" (tv.Dispatcher.tv_peak_inflight <= 2)
  | _ -> Alcotest.fail "expected one tenant view"

(* --- Dispatcher: model swaps --- *)

let test_swap_accounting () =
  let cfg = base_config () in
  let two_models =
    [|
      mk_tenant ~seed:9 ~index:0 ~model:"treelstm" ~requests:40 "a";
      mk_tenant ~seed:9 ~index:1 ~model:"birnn" ~requests:40 "b";
    |]
  in
  let r =
    Dispatcher.simulate cfg ~tenants:two_models ~payload ~execute:uniform_execute
      ~model_bytes:some_bytes
  in
  check_true "alternating models on one replica swap repeatedly"
    (r.Dispatcher.tn_swaps > 2);
  let same_model =
    [|
      mk_tenant ~seed:9 ~index:0 ~model:"treelstm" ~requests:40 "a";
      mk_tenant ~seed:9 ~index:1 ~model:"treelstm" ~requests:40 "b";
    |]
  in
  let r2 =
    Dispatcher.simulate cfg ~tenants:same_model ~payload ~execute:uniform_execute
      ~model_bytes:some_bytes
  in
  (* Only the initial cold load: the resident model never changes after. *)
  check_int "same model loads exactly once" 1 r2.Dispatcher.tn_swaps

(* --- Dispatcher: single-tenant equivalence with the cluster path --- *)

let test_single_tenant_matches_cluster () =
  (* Identical arrivals, policy, queue capacity, deadline and executor on
     both paths; swap bytes zero so the tenancy layer adds no device time.
     The per-request outcome sets must then agree exactly. *)
  let slo_ms = 40.0 in
  let t =
    mk_tenant ~seed:3 ~index:0 ~rate:3_000.0 ~slo_ms ~quota:max_int ~requests:150
      "solo"
  in
  let arrivals =
    let rng = Rng.create ((t.Tenant.tn_seed * 53) + 11) in
    Traffic.arrivals ~rng (Tenant.process t) ~n:t.Tenant.tn_requests
  in
  let server =
    {
      Server.default_config with
      Server.policy = Batcher.Adaptive { max_batch = 8; max_wait_us = 500.0 };
      queue_capacity = 64;
      deadline_us = Some (slo_ms *. 1000.0);
    }
  in
  let tenancy_cfg =
    { (base_config ()) with Dispatcher.t_server = { server with Server.deadline_us = None } }
  in
  let dr =
    Dispatcher.simulate tenancy_cfg ~arrivals:[| arrivals |] ~tenants:[| t |] ~payload
      ~execute:uniform_execute ~model_bytes:no_swap_bytes
  in
  let cr =
    Cluster.simulate
      { Cluster.default_config with Cluster.c_server = server; c_replicas = 1 }
      ~arrivals
      ~payload:(fun id -> id)
      ~executors:[| (fun ~degraded:_ batch -> uniform_execute 0 ~model:"m" batch) |]
  in
  let ds = Stats.summarize dr.Dispatcher.tn_stats in
  let cs = Stats.summarize cr.Cluster.cluster_stats in
  check_int "offered matches cluster" cs.Stats.s_offered ds.Stats.s_offered;
  check_int "completed matches cluster" cs.Stats.s_completed ds.Stats.s_completed;
  check_int "shed matches cluster" cs.Stats.s_shed ds.Stats.s_shed;
  check_int "expired matches cluster" cs.Stats.s_expired ds.Stats.s_expired;
  check_int "batches match cluster" cs.Stats.s_batches ds.Stats.s_batches;
  check_float ~eps:1e-6 "p50 matches cluster" cs.Stats.s_p50_ms ds.Stats.s_p50_ms;
  (* The two paths may tie-break an adaptive flush timer differently on a
     handful of launches; latency means agree to within a microsecond. *)
  check_float ~eps:1e-3 "mean matches cluster" cs.Stats.s_mean_ms ds.Stats.s_mean_ms

(* --- Tenant spec parsing --- *)

let test_spec_roundtrip () =
  let t = Tenant.parse ~seed:11 ~index:2 ~bursty:false ~requests:100 "web:moe:1500:25:8:2" in
  check_int "derived seed uses the stride" (11 + (2 * Tenant.seed_stride)) t.Tenant.tn_seed;
  let t2 = Tenant.parse ~seed:0 ~index:0 ~bursty:false ~requests:100 (Tenant.to_spec t) in
  check_true "spec round-trips the registry fields"
    (t2.Tenant.tn_name = t.Tenant.tn_name
    && t2.Tenant.tn_model = t.Tenant.tn_model
    && t2.Tenant.tn_rate_per_s = t.Tenant.tn_rate_per_s
    && t2.Tenant.tn_slo_ms = t.Tenant.tn_slo_ms
    && t2.Tenant.tn_quota = t.Tenant.tn_quota
    && t2.Tenant.tn_weight = t.Tenant.tn_weight)

(* --- Autoscaler end to end: flash crowd needs the scaler --- *)

let test_autoscaler_beats_fixed () =
  let tenants =
    [|
      mk_tenant ~seed:11 ~index:0 ~model:"treelstm" ~rate:800.0 ~slo_ms:15.0
        ~requests:600 "steady";
      mk_tenant ~seed:11 ~index:1 ~model:"birnn" ~rate:1_200.0 ~bursty:true
        ~slo_ms:15.0 ~weight:2.0 ~requests:700 "crowd";
      mk_tenant ~seed:11 ~index:2 ~model:"moe" ~rate:400.0 ~slo_ms:20.0
        ~requests:300 "light";
    |]
  in
  let execute _replica ~model:_ batch =
    Server.Exec_ok
      {
        Server.ex_latency_us = 2_000.0 +. (200.0 *. float_of_int (List.length batch));
        ex_fingerprints = None;
        ex_corrupted = false;
        ex_profiler = None;
      }
  in
  let run scaler =
    Dispatcher.simulate (base_config ~scaler ()) ~tenants ~payload ~execute
      ~model_bytes:some_bytes
  in
  let fixed = Stats.summarize (run (Autoscaler.fixed 1)).Dispatcher.tn_stats in
  let auto_report = run (Autoscaler.default ~min_replicas:1 ~max_replicas:4) in
  let auto = Stats.summarize auto_report.Dispatcher.tn_stats in
  check_true "fixed fleet drowns under the flash crowd"
    (Stats.goodput fixed < 0.8);
  check_true "autoscaler holds goodput" (Stats.goodput auto >= 0.95);
  check_true "the scaler actually scaled" (auto_report.Dispatcher.tn_peak_replicas > 1);
  check_true "scale trajectory recorded"
    (List.length auto_report.Dispatcher.tn_scale_events > 0)

(* --- Overload resilience at the tenancy layer (DESIGN.md §13) --- *)

(* Satellite: the configured quota is per replica. Once the autoscaler has
   grown the fleet, a tenant may hold proportionally more inflight work —
   but never more than quota x current replicas. *)
let test_quota_scales_with_replicas () =
  let tenants =
    [|
      mk_tenant ~seed:5 ~index:0 ~rate:20_000.0 ~quota:2 ~requests:2_000 "greedy";
      mk_tenant ~seed:5 ~index:1 ~rate:14_000.0 ~quota:64 ~requests:600 "heavy";
    |]
  in
  let r =
    Dispatcher.simulate
      (base_config ~scaler:(Autoscaler.default ~min_replicas:1 ~max_replicas:3) ())
      ~tenants ~payload ~execute:uniform_execute ~model_bytes:no_swap_bytes
  in
  check_true "the fleet scaled" (r.Dispatcher.tn_peak_replicas >= 2);
  match r.Dispatcher.tn_tenants with
  | [ greedy; _heavy ] ->
    check_true "scaled quota admits more than the per-replica figure"
      (greedy.Dispatcher.tv_peak_inflight > 2);
    check_true "peak inflight stays under quota x peak replicas"
      (greedy.Dispatcher.tv_peak_inflight <= 2 * r.Dispatcher.tn_peak_replicas)
  | _ -> Alcotest.fail "expected two tenant views"

(* Satellite regression: arming the resilience layer without tripping any
   of its mechanisms must not perturb the dispatcher's RNG streams or
   timing — the report stays byte-identical to the legacy run. *)
let test_tenancy_resilience_idle_matches_legacy () =
  let run resilience =
    let cfg = with_resilience (base_config ()) resilience in
    let tenants =
      [|
        mk_tenant ~seed:13 ~index:0 ~rate:1_000.0 ~requests:80 "a";
        mk_tenant ~seed:13 ~index:1 ~model:"birnn" ~rate:600.0 ~requests:50 "b";
      |]
    in
    Json.to_string
      (Dispatcher.report_json
         (Dispatcher.simulate cfg ~tenants ~payload ~execute:uniform_execute
            ~model_bytes:no_swap_bytes))
  in
  let off = run Acrobat.Resilience.off in
  let idle =
    run
      {
        Acrobat.Resilience.rs_retry_budget = Some 0.5;
        rs_target_delay_us = Some 1.0e9;
        rs_brownout = None;
      }
  in
  check_true "armed-but-idle dispatcher is byte-identical to legacy"
    (String.equal off idle)

let test_tenant_breaker_opens_and_recovers () =
  (* The first 4 batch executions fault; with a zero retry budget each one
     is a consecutive failure, so the tenant's breaker opens at the default
     threshold (4), sheds at the door through the cooldown, then a
     half-open trial on the now-healthy device closes it again. *)
  let calls = ref 0 in
  let execute _replica ~model:_ batch =
    incr calls;
    if !calls <= 4 then
      Server.Exec_fault
        {
          ef_latency_us = 300.0;
          ef_reason = "storm";
          ef_transient = true;
          ef_oom = false;
          ef_reset = false;
        }
    else uniform_execute 0 ~model:"m" batch
  in
  let cfg =
    with_resilience (base_config ())
      { Acrobat.Resilience.off with Acrobat.Resilience.rs_retry_budget = Some 0.0 }
  in
  let t = mk_tenant ~seed:2 ~index:0 ~rate:2_000.0 ~requests:150 "flaky" in
  let r =
    Dispatcher.simulate cfg ~tenants:[| t |] ~payload ~execute
      ~model_bytes:no_swap_bytes
  in
  let s = Stats.summarize r.Dispatcher.tn_stats in
  check_true "breaker opened" (s.Stats.s_breaker_opens >= 1);
  check_true "open breaker shed arrivals" (s.Stats.s_breaker_shed > 0);
  check_true "denied retries were counted as sheds" (s.Stats.s_retry_shed > 0);
  check_true "the half-open trial closed the breaker: service resumed"
    (s.Stats.s_completed > 0);
  check_int "every request is accounted" 150 s.Stats.s_offered

let test_dispatcher_hedging () =
  (* Every 13th batch straggles at 20x latency. Batch outcomes resolve at
     launch, so hedging guards against queueing delay: requests stuck
     behind the straggler on the lone replica outlive their p90 timer and
     get duplicated. The primary copy is always ahead of its duplicate in
     EDF order, so every duplicate resolves as wasted work or a
     cancellation — never an extra completion (a duplicate completing
     would overflow the conservation check). *)
  let calls = ref 0 in
  let execute _replica ~model:_ batch =
    incr calls;
    let base = 500.0 +. (50.0 *. float_of_int (List.length batch)) in
    Server.Exec_ok
      {
        Server.ex_latency_us = (if !calls mod 13 = 0 then base *. 20.0 else base);
        ex_fingerprints = None;
        ex_corrupted = false;
        ex_profiler = None;
      }
  in
  let cfg =
    {
      (base_config ~scaler:(Autoscaler.fixed 1) ()) with
      Dispatcher.t_hedge_percentile = Some 90.0;
    }
  in
  let t = mk_tenant ~seed:7 ~index:0 ~rate:3_000.0 ~slo_ms:1_000.0 ~requests:200 "hedged" in
  let r =
    Dispatcher.simulate cfg ~tenants:[| t |] ~payload ~execute
      ~model_bytes:no_swap_bytes
  in
  let s = Stats.summarize r.Dispatcher.tn_stats in
  check_true "hedges fired" (s.Stats.s_hedges > 0);
  check_int "every logical request completed exactly once" 200 s.Stats.s_completed;
  check_int "offered is conserved" 200 s.Stats.s_offered;
  check_true "duplicates resolved as wasted work or cancellations"
    (s.Stats.s_hedge_wasted + s.Stats.s_hedge_cancels > 0);
  check_true "hedge outcomes are attributed"
    (s.Stats.s_hedge_wins + s.Stats.s_hedge_wasted + s.Stats.s_hedge_cancels
     <= s.Stats.s_hedges)

(* --- Integrity at the tenancy layer (audit + quarantine-replace) --- *)

let test_dispatcher_audit_quarantine_replace () =
  (* The initial replica (id 0) silently corrupts every batch; replacement
     replicas are clean. With full auditing the dispatcher must shield
     every delivery, quarantine the dirty replica, and replace it —
     the elastic pool retires rather than probes. *)
  let t = mk_tenant ~seed:7 ~index:0 ~rate:3_000.0 ~requests:300 "audited" in
  let execute replica ~model:_ batch =
    let corrupted = replica = 0 in
    Server.Exec_ok
      {
        Server.ex_latency_us = 500.0 +. (50.0 *. float_of_int (List.length batch));
        ex_profiler = None;
        ex_corrupted = corrupted;
        ex_fingerprints =
          Some
            (Array.of_list
               (List.map
                  (fun id -> Int64.of_int (if corrupted then -id - 1 else 1000 + id))
                  batch));
      }
  in
  let auditor =
    {
      Server.au_rate = 1.0;
      au_seed = 33;
      au_reference = (fun id _ -> Int64.of_int (1000 + id), 80.0);
    }
  in
  let r =
    Dispatcher.simulate ~auditor (base_config ()) ~tenants:[| t |] ~payload ~execute
      ~model_bytes:no_swap_bytes
  in
  let s = Stats.summarize r.Dispatcher.tn_stats in
  check_true "audits ran" (s.Stats.s_audits > 0);
  check_true "mismatches detected" (s.Stats.s_audit_mismatches > 0);
  check_int "audit 1.0 delivers zero corrupted results" 0
    s.Stats.s_corrupted_delivered;
  check_true "the dirty replica was quarantined" (s.Stats.s_quarantines >= 1);
  check_true "a quarantine_replace scale event was logged"
    (List.exists
       (fun (_, ev, _) -> ev = "quarantine_replace")
       r.Dispatcher.tn_scale_events);
  check_true "the replacement keeps goodput high" (Stats.goodput s >= 0.9);
  (* Per-tenant stats mirror the aggregate integrity counters. *)
  let tv = List.hd r.Dispatcher.tn_tenants in
  let ts = Stats.summarize tv.Dispatcher.tv_stats in
  check_int "tenant view mirrors audits" s.Stats.s_audits ts.Stats.s_audits;
  check_int "tenant view mirrors delivered corruption" 0 ts.Stats.s_corrupted_delivered

let test_dispatcher_audit_deterministic () =
  let t = mk_tenant ~seed:9 ~index:0 ~rate:2_500.0 ~requests:200 "det" in
  let execute _replica ~model:_ batch =
    Server.Exec_ok
      {
        Server.ex_latency_us = 400.0 +. (40.0 *. float_of_int (List.length batch));
        ex_profiler = None;
        ex_corrupted = false;
        ex_fingerprints =
          Some (Array.of_list (List.map (fun id -> Int64.of_int (1000 + id)) batch));
      }
  in
  let auditor =
    {
      Server.au_rate = 0.5;
      au_seed = 21;
      au_reference = (fun id _ -> Int64.of_int (1000 + id), 60.0);
    }
  in
  let run () =
    Json.to_string
      (Stats.summary_to_json
         (Stats.summarize
            (Dispatcher.simulate ~auditor (base_config ()) ~tenants:[| t |] ~payload
               ~execute ~model_bytes:no_swap_bytes)
              .Dispatcher.tn_stats))
  in
  Alcotest.(check string) "identical audited dispatcher JSON" (run ()) (run ())

let test_serve_tenants_audited_end_to_end () =
  (* Through the real engine stack: replica 0's device corrupts half its
     attempts, the auditor re-executes sampled requests unbatched and
     compares real tensor fingerprints across the tenancy dispatcher. *)
  let tenants = [| mk_tenant ~seed:3 ~index:0 ~rate:2_000.0 ~requests:60 "prod" |] in
  let run audit =
    Stats.summarize
      (serve_tenants ~iters:50
         ~fault_plans:[ Faults.parse "seed=9,corrupt=0.5" ]
         ~audit ~models:Models.tiny ~tenants ~seed:3 ())
        .Tenancy.Dispatcher.tn_stats
  in
  let off = run 0.0 in
  check_true "corruption injected" (off.Stats.s_corrupted_batches > 0);
  check_true "unaudited corruption delivered" (off.Stats.s_corrupted_delivered > 0);
  let full = run 1.0 in
  check_int "audit 1.0 delivers zero corrupted results" 0
    full.Stats.s_corrupted_delivered;
  check_true "real fingerprint mismatches detected" (full.Stats.s_audit_mismatches > 0)

(* --- Net: partition-aware failover at the dispatcher (DESIGN.md §16) --- *)

let test_dispatcher_partition_failover () =
  (* The elastic dispatcher models a partitioned replica as
     scheduler-invisible unavailability: while the window is open no batch
     passes to it, and the heal re-admits it without duplicating work. *)
  let tenants = [| mk_tenant ~seed:17 ~index:0 ~rate:2_000.0 ~requests:200 "prod" |] in
  let plan = Net.parse "seed=1,partition=20000:60000:1" in
  let run net =
    Dispatcher.simulate
      { (base_config ~scaler:(Autoscaler.fixed 2) ()) with Dispatcher.t_net = net }
      ~tenants ~payload ~execute:uniform_execute ~model_bytes:no_swap_bytes
  in
  let r = run (Some plan) in
  let s = Stats.summarize r.Dispatcher.tn_stats in
  check_int "every request terminates" 200 s.Stats.s_offered;
  check_true "requests still complete through the window"
    (s.Stats.s_completed >= 190);
  check_int "the cut was detected once" 1 s.Stats.s_net_link_downs;
  check_int "the link healed once" 1 s.Stats.s_net_heals;
  (* The cut and heal reach every output channel, not just the counters. *)
  check_true "net block in the summary JSON"
    (contains (Json.to_string (Stats.summary_to_json s)) {|"net_link_downs":1|});
  check_true "net block in the printed summary"
    (contains (Fmt.str "%a" Stats.pp_summary s) "net link downs");
  (* Determinism through partition and heal: the same seed replays the
     whole report byte-identically. *)
  let json rep =
    Json.to_string (Stats.summary_to_json (Stats.summarize rep.Dispatcher.tn_stats))
  in
  Alcotest.(check string) "partitioned dispatcher replays byte-identically"
    (json r)
    (json (run (Some plan)));
  (* Disarmed plan: the scheduler gate short-circuits, byte-identical to
     no plan at all. *)
  Alcotest.(check string) "disarmed plan is byte-identical to none"
    (json (run None))
    (json (run (Some Net.none)))

(* The dispatcher reads the same hedge percentile as the cluster and
   rejects the same out-of-range values. *)
let test_dispatcher_rejects_bad_hedge () =
  List.iter
    (fun p ->
      let msg =
        Fmt.str "Dispatcher.simulate: hedge percentile must be finite and in [0, 100] (got %g)"
          p
      in
      let cfg = { (base_config ()) with Dispatcher.t_hedge_percentile = Some p } in
      let t = mk_tenant ~seed:7 ~index:0 ~rate:3_000.0 ~slo_ms:1_000.0 ~requests:4 "hedged" in
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore
            (Dispatcher.simulate cfg ~tenants:[| t |] ~payload ~execute:uniform_execute
               ~model_bytes:no_swap_bytes)))
    [ -1.0; 101.0; Float.nan ]

let suite =
  [
    prop_fairshare_tracks_weights;
    Alcotest.test_case "fairshare: idle tenants forfeit credit" `Quick
      test_fairshare_no_banked_credit;
    Alcotest.test_case "autoscaler: decision state machine" `Quick
      test_autoscaler_decisions;
    Alcotest.test_case "dispatcher: byte-identical determinism" `Quick test_determinism;
    Alcotest.test_case "dispatcher: quota sheds before admission" `Quick
      test_quota_sheds_before_admission;
    Alcotest.test_case "dispatcher: model-swap accounting" `Quick test_swap_accounting;
    Alcotest.test_case "dispatcher: single tenant matches cluster path" `Quick
      test_single_tenant_matches_cluster;
    Alcotest.test_case "tenant: spec parse round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "autoscaler: rides the flash crowd fixed cannot" `Slow
      test_autoscaler_beats_fixed;
    Alcotest.test_case "resilience: quota scales with the fleet" `Quick
      test_quota_scales_with_replicas;
    Alcotest.test_case "resilience: armed-but-idle is byte-identical" `Quick
      test_tenancy_resilience_idle_matches_legacy;
    Alcotest.test_case "resilience: tenant breaker opens and recovers" `Quick
      test_tenant_breaker_opens_and_recovers;
    Alcotest.test_case "resilience: dispatcher hedging, no dup completion" `Quick
      test_dispatcher_hedging;
    Alcotest.test_case "integrity: audit + quarantine-replace" `Quick
      test_dispatcher_audit_quarantine_replace;
    Alcotest.test_case "integrity: audited dispatcher deterministic" `Quick
      test_dispatcher_audit_deterministic;
    Alcotest.test_case "integrity: audited tenancy end to end" `Quick
      test_serve_tenants_audited_end_to_end;
    Alcotest.test_case "net: dispatcher partition failover" `Quick
      test_dispatcher_partition_failover;
    Alcotest.test_case "resilience: out-of-range hedge percentiles rejected" `Quick
      test_dispatcher_rejects_bad_hedge;
  ]
