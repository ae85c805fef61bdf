(** Tests for the chaos harness: scenario generation determinism, the
    invariant oracles (exercised by tampering with a healthy run's
    accounting), the shrinker's acceptance bound, campaign byte-determinism
    and the clean-fleet zero-violation criterion. *)

open Acrobat
open T_util
module Scenario = Chaos.Scenario
module Invariants = Chaos.Invariants
module Shrink = Chaos.Shrink
module Faults = Acrobat_device.Faults
module Net = Acrobat_net.Net
module Stats = Serve.Stats
module Batcher = Serve.Batcher
module Cluster = Serve.Cluster
module Event_loop = Serve.Event_loop
module Trace = Obs.Trace
module Json = Obs.Json

(* --- Scenario generation --- *)

let test_scenario_determinism () =
  let a = Scenario.generate ~campaign_seed:7 ~fault_prob:0.5 3 in
  let b = Scenario.generate ~campaign_seed:7 ~fault_prob:0.5 3 in
  check_true "same (seed, index) regenerates the same scenario" (a = b);
  let c = Scenario.generate ~campaign_seed:7 ~fault_prob:0.5 4 in
  check_true "different index, different scenario" (a <> c);
  let clean = Scenario.generate ~campaign_seed:7 ~fault_prob:0.0 3 in
  check_true "fault_prob 0 generates a clean fleet"
    (Scenario.fault_clause_count clean = 0)

let test_scenario_to_cli () =
  let sc = Scenario.generate ~campaign_seed:11 ~fault_prob:1.0 0 in
  let cli = Scenario.to_cli sc in
  check_true "repro is a serve command" (contains cli "acrobatc serve");
  check_true "repro pins the traffic seed"
    (contains cli (Fmt.str "--seed %d" sc.Scenario.sc_seed));
  check_true "repro forces the cluster engine" (contains cli "--requeue-budget");
  check_true "faulty fleet emits a fault plan" (contains cli "--faults")

(* --- Invariant oracles ---

   Run one clean scenario for real, then tamper with the oracle's input:
   each mutation must trip exactly the invariant it targets. This checks
   the checkers — a chaos suite whose oracles never fire is worthless. *)

let clean_scenario () =
  {
    Scenario.sc_index = 0;
    sc_seed = 99;
    sc_requests = 30;
    sc_rate = 2000.0;
    sc_bursty = false;
    sc_replicas = 2;
    sc_dispatch = Cluster.Round_robin;
    sc_hedge = None;
    sc_queue_cap = 256;
    sc_deadline_ms = None;
    sc_policy = Batcher.Adaptive { max_batch = 8; max_wait_us = 1000.0 };
    sc_requeue_budget = 2;
    sc_plans = [| Faults.none; Faults.none |];
    sc_tenancy = None;
    sc_resilience = Resilience.off;
    sc_audit = 0.0;
    sc_net = None;
  }

let healthy_input () =
  let sc = clean_scenario () in
  let summary, tracer = Chaos.run_scenario sc in
  {
    Invariants.in_requests = sc.Scenario.sc_requests;
    in_requeue_budget = sc.Scenario.sc_requeue_budget;
    in_goodput_floor = 1.0;
    in_summary = summary;
    in_events = Trace.events tracer;
    in_tenants = [];
    in_retry_budget_frac = None;
    in_brownout = None;
    in_peak_replicas = sc.Scenario.sc_replicas;
    in_audit_rate = sc.Scenario.sc_audit;
    in_net = sc.Scenario.sc_net;
  }

let violated input = Invariants.names (Invariants.check input)

let test_invariants_healthy () =
  check_true "clean run passes the whole suite" (violated (healthy_input ()) = [])

let test_invariant_conservation () =
  let input = healthy_input () in
  let names = violated { input with Invariants.in_requests = input.Invariants.in_requests + 1 } in
  check_true "phantom arrival trips conservation" (List.mem "conservation" names);
  check_true "phantom arrival also lacks a terminal" (List.mem "terminal_once" names)

let test_invariant_conservation_names_every_outcome () =
  (* A quota shed the offered count never saw: the outcomes no longer sum
     to offered, and the evidence names every terminal outcome. *)
  let input = healthy_input () in
  let s = input.Invariants.in_summary in
  let tampered =
    { input with Invariants.in_summary = { s with Stats.s_quota_shed = s.Stats.s_quota_shed + 1 } }
  in
  match List.filter (fun x -> x.Invariants.vi_name = "conservation") (Invariants.check tampered) with
  | [ x ] ->
    List.iter
      (fun name -> check_true ("detail lists " ^ name) (contains x.Invariants.vi_detail name))
      [ "completed"; "shed"; "expired"; "poisoned"; "breaker_shed"; "quota_shed";
        "limit_shed"; "retry_shed"; "net_shed" ]
  | _ -> Alcotest.fail "a tampered quota_shed must trip conservation exactly once"

let test_invariant_terminal_once () =
  let input = healthy_input () in
  (* Erase the trace: every request now lacks its terminal instant, and the
     done-event count no longer matches the completion counter. *)
  let names = violated { input with Invariants.in_events = [] } in
  check_true "missing terminals trip terminal_once" (List.mem "terminal_once" names);
  check_true "done/completed mismatch trips no_dup_completion"
    (List.mem "no_dup_completion" names)

let test_invariant_dup_completion () =
  let input = healthy_input () in
  let dones =
    List.filter (fun e -> e.Trace.ev_name = "done" && e.Trace.ev_pid = 0)
      input.Invariants.in_events
  in
  check_true "clean run completed something" (dones <> []);
  let names =
    violated
      { input with Invariants.in_events = input.Invariants.in_events @ [ List.hd dones ] }
  in
  check_true "duplicated completion trips no_dup_completion"
    (List.mem "no_dup_completion" names);
  check_true "duplicated terminal trips terminal_once" (List.mem "terminal_once" names)

let test_invariant_audit_shield () =
  let input = healthy_input () in
  let s = input.Invariants.in_summary in
  (* Tamper 1: claim the run audited every delivery, then let a corrupted
     result through — the shield must fire. *)
  let names =
    violated
      { input with
        Invariants.in_audit_rate = 1.0;
        in_summary = { s with Stats.s_corrupted_delivered = 1 } }
  in
  check_true "delivered corruption under audit 1.0 trips audit_shield"
    (List.mem "audit_shield" names);
  (* Tamper 2: more mismatches than audits is impossible accounting. *)
  let names =
    violated
      { input with
        Invariants.in_summary = { s with Stats.s_audits = 1; s_audit_mismatches = 2 } }
  in
  check_true "mismatches > audits trips audit_shield" (List.mem "audit_shield" names);
  (* Delivered corruption at a partial sampling rate is the expected
     residual, not a violation. *)
  check_bool "partial-rate delivery is legitimate" false
    (List.mem "audit_shield"
       (violated
          { input with
            Invariants.in_audit_rate = 0.5;
            in_summary = { s with Stats.s_corrupted_delivered = 3 } }))

let test_invariant_quarantine_flow () =
  let input = healthy_input () in
  let s = input.Invariants.in_summary in
  (* A quarantine counted without its trace instant: the counter and the
     span stream must tell the same story. *)
  let names =
    violated { input with Invariants.in_summary = { s with Stats.s_quarantines = 1 } }
  in
  check_true "counter without trace instant trips quarantine_flow"
    (List.mem "quarantine_flow" names);
  (* More restores than quarantines is impossible. *)
  let names =
    violated
      { input with Invariants.in_summary = { s with Stats.s_quarantine_restores = 1 } }
  in
  check_true "restores > quarantines trips quarantine_flow"
    (List.mem "quarantine_flow" names)

let test_invariant_requeue_budget () =
  let input = healthy_input () in
  let requeue id =
    {
      Trace.ev_seq = 100_000 + id;
      ev_ph = 'i';
      ev_name = "requeue";
      ev_cat = "cluster";
      ev_ts_us = 1.0;
      ev_dur_us = 0.0;
      ev_pid = 0;
      ev_tid = id + 1;
      ev_args = [];
    }
  in
  (* Three requeues of request 0 against a budget of 2. *)
  let events = input.Invariants.in_events @ [ requeue 0; requeue 0; requeue 0 ] in
  let names = violated { input with Invariants.in_events = events } in
  check_true "over-budget requeues trip requeue_budget" (List.mem "requeue_budget" names);
  (* Two requeues stay within budget. *)
  let events = input.Invariants.in_events @ [ requeue 0; requeue 0 ] in
  check_true "in-budget requeues pass"
    (not (List.mem "requeue_budget" (violated { input with Invariants.in_events = events })))

let test_invariant_goodput_floor () =
  let input = healthy_input () in
  let names = violated { input with Invariants.in_goodput_floor = 1.1 } in
  check_true "unattainable floor trips goodput_floor" (List.mem "goodput_floor" names)

let test_invariant_tenants () =
  let input = healthy_input () in
  let tb ?(res_shed = 0) name offered completed quota peak =
    {
      Invariants.tb_name = name;
      tb_offered = offered;
      tb_completed = completed;
      tb_quota = quota;
      tb_peak_inflight = peak;
      tb_resilience_shed = res_shed;
    }
  in
  (* Quotas are per replica: pin the fleet at one replica so the scaled
     bound equals the configured quota. *)
  let one = { input with Invariants.in_peak_replicas = 1 } in
  let names = violated { one with Invariants.in_tenants = [ tb "a" 10 0 4 2 ] } in
  check_true "starved tenant trips tenant_starvation"
    (List.mem "tenant_starvation" names);
  let names = violated { one with Invariants.in_tenants = [ tb "a" 10 10 4 5 ] } in
  check_true "over-quota peak trips quota_respected" (List.mem "quota_respected" names);
  (* A tenant with zero offered load may complete nothing, and peak at the
     quota is within bounds. *)
  let names =
    violated
      { one with Invariants.in_tenants = [ tb "a" 10 3 4 4; tb "b" 0 0 1 0 ] }
  in
  check_true "healthy tenant mix passes"
    ((not (List.mem "tenant_starvation" names))
    && not (List.mem "quota_respected" names));
  (* The same peak is lawful once the fleet grew to two replicas. *)
  let names =
    violated
      {
        one with
        Invariants.in_tenants = [ tb "a" 10 10 4 5 ];
        in_peak_replicas = 2;
      }
  in
  check_true "quota scales with the peak replica count"
    (not (List.mem "quota_respected" names));
  (* Every arrival belongs to exactly one tenant. *)
  let offered = input.Invariants.in_summary.Stats.s_offered in
  let split extra =
    violated
      { one with Invariants.in_tenants = [ tb "a" (offered - 1) 1 4 1; tb "b" (1 + extra) 1 4 1 ] }
  in
  check_true "tenants summing to the aggregate pass"
    (not (List.mem "tenant_conservation" (split 0)));
  check_true "tenants offering past the aggregate trip tenant_conservation"
    (List.mem "tenant_conservation" (split 1))

let test_invariant_retry_amplification () =
  let input = healthy_input () in
  let armed = { input with Invariants.in_retry_budget_frac = Some 0.1 } in
  (* A 0.1 budget over 30 offered allows 3 re-executions; 4 is a leak. *)
  let leak =
    {
      armed with
      Invariants.in_summary =
        { armed.Invariants.in_summary with Stats.s_retried_requests = 4 };
    }
  in
  check_true "over-budget re-execution trips retry_amplification"
    (List.mem "retry_amplification" (violated leak));
  let lawful =
    {
      armed with
      Invariants.in_summary =
        { armed.Invariants.in_summary with Stats.s_retried_requests = 3 };
    }
  in
  check_true "in-budget re-execution passes"
    (not (List.mem "retry_amplification" (violated lawful)));
  (* Without an armed budget the oracle must stay quiet no matter the count. *)
  let unarmed =
    {
      input with
      Invariants.in_summary =
        { input.Invariants.in_summary with Stats.s_retried_requests = 29 };
    }
  in
  check_true "oracle is silent when no budget is armed"
    (not (List.mem "retry_amplification" (violated unarmed)))

let test_invariant_brownout_dwell () =
  let input = healthy_input () in
  let instant ?(pid = 7) seq name ts =
    {
      Trace.ev_seq = 200_000 + seq;
      ev_ph = 'i';
      ev_name = name;
      ev_cat = "resilience";
      ev_ts_us = ts;
      ev_dur_us = 0.0;
      ev_pid = pid;
      ev_tid = 0;
      ev_args = [];
    }
  in
  let spec =
    { Serve.Server.Brownout.bo_high_us = 100.0; bo_dwell_us = 500.0; bo_low_us = 40.0 }
  in
  let with_brownout ~degrades ~restores events =
    {
      input with
      Invariants.in_brownout = Some spec;
      in_events = input.Invariants.in_events @ events;
      in_summary =
        {
          input.Invariants.in_summary with
          Stats.s_brownouts = degrades;
          s_brownout_restores = restores;
        };
    }
  in
  (* A restore only 200us after the degrade violates the 500us dwell. *)
  let rushed =
    with_brownout ~degrades:1 ~restores:1
      [ instant 0 "brownout_degrade" 1000.0; instant 1 "brownout_restore" 1200.0 ]
  in
  check_true "sub-dwell transition trips brownout_dwell"
    (List.mem "brownout_dwell" (violated rushed));
  (* A restore with no preceding degrade breaks alternation. *)
  let inverted =
    with_brownout ~degrades:0 ~restores:1 [ instant 0 "brownout_restore" 1000.0 ]
  in
  check_true "out-of-order transition trips brownout_dwell"
    (List.mem "brownout_dwell" (violated inverted));
  (* Counters that disagree with the trace are a leak even with no events. *)
  let phantom = with_brownout ~degrades:2 ~restores:0 [] in
  check_true "counter/trace mismatch trips brownout_dwell"
    (List.mem "brownout_dwell" (violated phantom));
  (* Dwell-respecting alternation with agreeing counters passes. *)
  let lawful =
    with_brownout ~degrades:1 ~restores:1
      [ instant 0 "brownout_degrade" 1000.0; instant 1 "brownout_restore" 1800.0 ]
  in
  check_true "lawful brownout timeline passes"
    (not (List.mem "brownout_dwell" (violated lawful)))

(* --- Network fault dimension --- *)

let find_net_scenario () =
  let rec go i =
    if i > 200 then Alcotest.fail "no net-armed scenario in 200 draws"
    else
      let sc = Scenario.generate ~campaign_seed:33 ~fault_prob:0.5 i in
      if sc.Scenario.sc_net <> None then sc else go (i + 1)
  in
  go 0

let test_net_scenario_repro () =
  let sc = find_net_scenario () in
  let cli = Scenario.to_cli sc in
  check_true "net repro carries the transport plan" (contains cli " --net \"");
  check_true "net repro pins the traffic seed"
    (contains cli (Fmt.str "--seed %d" sc.Scenario.sc_seed));
  (match sc.Scenario.sc_net with
  | Some p ->
    check_true "the emitted spec parses back to the drawn plan"
      (Net.parse (Net.to_spec p) = p)
  | None -> assert false);
  let again = Scenario.generate ~campaign_seed:33 ~fault_prob:0.5 sc.Scenario.sc_index in
  check_true "net-armed scenario regenerates identically" (sc = again)

(* Healthy lossy-transport run: the oracle input carries the armed plan so
   net_conservation / net_exactly_once / net_partition all engage. *)
let net_input () =
  let sc =
    {
      (clean_scenario ()) with
      Scenario.sc_net =
        Some (Net.parse "seed=5,delay=120:40,drop=0.08,dup=0.25,timeout=5000,resends=3");
    }
  in
  let summary, tracer = Chaos.run_scenario sc in
  {
    (healthy_input ()) with
    Invariants.in_summary = summary;
    in_events = Trace.events tracer;
    in_goodput_floor = 0.0;
    in_net = sc.Scenario.sc_net;
  }

let test_invariant_net_oracles () =
  let input = net_input () in
  check_true "lossy run passes the net oracles" (violated input = []);
  let s = input.Invariants.in_summary in
  check_true "the transport actually lost and duplicated copies"
    (s.Stats.s_net_drops > 0 && s.Stats.s_net_dups > 0 && s.Stats.s_net_dedup_hits > 0);
  (* Tamper 1: a phantom wire copy breaks copy conservation. *)
  let names =
    violated
      { input with Invariants.in_summary = { s with Stats.s_net_sends = s.Stats.s_net_sends + 1 } }
  in
  check_true "phantom wire copy trips net_conservation"
    (List.mem "net_conservation" names);
  (* Tamper 2: a delivery not accounted as fresh or dedup-absorbed. *)
  let names =
    violated
      { input with
        Invariants.in_summary =
          { s with Stats.s_net_deliveries = s.Stats.s_net_deliveries + 1 } }
  in
  check_true "unaccounted delivery trips net_conservation"
    (List.mem "net_conservation" names);
  (* Tamper 3: replay an execution instant — the dedup window let the same
     (request, replica, epoch) run twice. *)
  let execs =
    List.filter (fun e -> e.Trace.ev_name = "net_exec") input.Invariants.in_events
  in
  check_true "lossy run recorded executions" (execs <> []);
  let names =
    violated
      { input with Invariants.in_events = input.Invariants.in_events @ [ List.hd execs ] }
  in
  check_true "double execution trips net_exactly_once"
    (List.mem "net_exactly_once" names)

let test_invariant_net_partition () =
  let input = net_input () in
  (* Re-arm the oracle with a plan that cuts replica 1 during [5ms, 20ms),
     then forge a delivery landing on the cut link mid-window. *)
  let plan = Net.parse "seed=1,delay=100,partition=5000:20000:1" in
  let deliver ts =
    {
      Trace.ev_seq = 300_000;
      ev_ph = 'i';
      ev_name = "net_deliver";
      ev_cat = "net";
      ev_ts_us = ts;
      ev_dur_us = 0.0;
      ev_pid = input.Invariants.in_peak_replicas + 1 + 1;
      ev_tid = 1;
      ev_args = [];
    }
  in
  (* Feed the oracle only the forged event: the base run predates the
     partition plan, so its lawful deliveries to replica 1 would read as
     mid-window traffic. Other oracles may complain about the gutted trace;
     only the net_partition verdict is under test. *)
  let with_event ts =
    violated
      { input with Invariants.in_net = Some plan; in_events = [ deliver ts ] }
  in
  check_true "mid-window delivery on the cut link trips net_partition"
    (List.mem "net_partition" (with_event 10_000.0));
  (* The window is half-open: landing exactly at the heal instant is lawful. *)
  check_true "delivery at the heal instant is lawful"
    (not (List.mem "net_partition" (with_event 20_000.0)))

let test_net_campaign_holds () =
  (* ISSUE acceptance: the exactly-once and conservation oracles hold over a
     >= 200-scenario campaign with the network dimension in the draw. *)
  let ca =
    { Chaos.default_campaign with Chaos.ca_seed = 33; ca_runs = 200; ca_fault_prob = 0.4 }
  in
  let armed = ref 0 and partitioned = ref 0 in
  for i = 0 to ca.Chaos.ca_runs - 1 do
    let sc =
      Scenario.generate ~campaign_seed:ca.Chaos.ca_seed
        ~fault_prob:ca.Chaos.ca_fault_prob i
    in
    match sc.Scenario.sc_net with
    | Some p ->
      incr armed;
      if p.Net.np_partition <> None then incr partitioned
    | None -> ()
  done;
  check_true (Fmt.str "campaign draws lossy transports (got %d)" !armed) (!armed >= 40);
  check_true
    (Fmt.str "some lossy transports partition the fleet (got %d)" !partitioned)
    (!partitioned >= 5);
  let r = Chaos.run_campaign ca in
  check_int "200 scenarios checked" 200 r.Chaos.rp_scenarios;
  check_int "net campaign has zero violations" 0 (List.length r.Chaos.rp_outcomes)

(* --- Tenant-mix scenarios --- *)

let find_tenancy_scenario () =
  let rec go i =
    if i > 200 then Alcotest.fail "no tenant-mix scenario in 200 draws"
    else
      let sc = Scenario.generate ~campaign_seed:21 ~fault_prob:0.5 i in
      if sc.Scenario.sc_tenancy <> None then sc else go (i + 1)
  in
  go 0

let test_tenancy_scenario_repro () =
  let sc = find_tenancy_scenario () in
  let cli = Scenario.to_cli sc in
  check_true "tenant repro uses --tenant" (contains cli "--tenant ");
  check_true "tenant repro pins the autoscaler span" (contains cli "--autoscale ");
  check_true "tenant repro pins the seed"
    (contains cli (Fmt.str "--seed %d" sc.Scenario.sc_seed));
  check_true "tenant repro has no cluster topology flags"
    (not (contains cli "--replicas"));
  match sc.Scenario.sc_tenancy with
  | Some tc ->
    check_int "total_requests covers every stream"
      (Array.length tc.Scenario.tc_tenants * sc.Scenario.sc_requests)
      (Scenario.total_requests sc)
  | None -> assert false

let test_tenancy_scenario_holds () =
  let sc = find_tenancy_scenario () in
  let violations, _ = Chaos.check_scenario sc in
  check_true "tenant-mix scenario passes the invariant suite (incl. replay)"
    (violations = [])

(* Hedged tenancy scenario whose duplicates used to leak into per-tenant
   shed and expired counts: its tenants offered 329 requests for 320
   arrivals. *)
let test_tenant_offered_counts_requests () =
  let sc = Scenario.generate ~campaign_seed:7 ~fault_prob:0.6 187 in
  check_true "scenario is a hedged tenant mix"
    (sc.Scenario.sc_hedge <> None && sc.Scenario.sc_tenancy <> None);
  let summary, _, tenants, _ = Chaos.run_scenario_full sc in
  List.iter
    (fun (tb : Invariants.tenant_obs) ->
      Alcotest.(check int)
        (tb.Invariants.tb_name ^ ": offered counts arrivals")
        sc.Scenario.sc_requests tb.Invariants.tb_offered)
    tenants;
  Alcotest.(check int) "tenants sum to the aggregate" summary.Stats.s_offered
    (List.fold_left (fun n (tb : Invariants.tenant_obs) -> n + tb.Invariants.tb_offered) 0
       tenants)

(* --- Shrinker --- *)

(* A known-bad fleet: every replica faults 90% of its launches, with reset
   and straggler clauses riding along, and no failover requeues allowed.
   Retries exhaust, goodput craters; the shrinker must strip the noise down
   to <= 2 fault clauses that still violate (the ISSUE acceptance bound). *)
let known_bad_scenario () =
  {
    (clean_scenario ()) with
    Scenario.sc_requests = 40;
    sc_replicas = 3;
    sc_requeue_budget = 0;
    sc_plans =
      Array.init 3 (fun i ->
          {
            Faults.none with
            Faults.seed = 1000 + i;
            kernel_fault_rate = 0.9;
            reset_rate = 0.05;
            straggler_rate = 0.05;
          });
  }

let test_shrink_known_bad () =
  let floor = 0.9 in
  let violates sc =
    fst (Chaos.check_scenario ~goodput_floor:floor ~check_replay:false sc) <> []
  in
  let sc0 = known_bad_scenario () in
  check_int "known-bad fleet starts at 9 fault clauses" 9
    (Scenario.fault_clause_count sc0);
  check_true "known-bad fleet violates the goodput floor" (violates sc0);
  let minimal, probes = Shrink.shrink ~violates ~budget:300 sc0 in
  check_true "shrinker spent probes" (probes > 0);
  check_true "minimal scenario still violates" (violates minimal);
  check_true
    (Fmt.str "shrinks to <= 2 fault clauses (got %d)"
       (Scenario.fault_clause_count minimal))
    (Scenario.fault_clause_count minimal <= 2)

let test_shrink_strips_net () =
  (* The violation in the known-bad fleet is device-side; an irrelevant
     lossy transport riding along must be shrunk away entirely. *)
  let violates sc =
    fst (Chaos.check_scenario ~goodput_floor:0.9 ~check_replay:false sc) <> []
  in
  let sc0 =
    {
      (known_bad_scenario ()) with
      Scenario.sc_net =
        Some (Net.parse "seed=3,delay=80:40,drop=0.05,dup=0.1,timeout=5000");
    }
  in
  check_true "noisy known-bad fleet violates" (violates sc0);
  let minimal, _ = Shrink.shrink ~violates ~budget:400 sc0 in
  check_true "minimal scenario still violates" (violates minimal);
  check_true "irrelevant net plan stripped" (minimal.Scenario.sc_net = None)

(* --- Campaigns --- *)

let test_clean_campaign () =
  (* The ISSUE acceptance criterion: a fully clean fleet reports zero
     violations across >= 300 scenarios, with the overload-resilience
     dimension in the draw. *)
  let ca = { Chaos.default_campaign with Chaos.ca_runs = 300; ca_fault_prob = 0.0 } in
  let r = Chaos.run_campaign ca in
  check_int "300 scenarios checked" 300 r.Chaos.rp_scenarios;
  check_int "clean campaign has zero violations" 0 (List.length r.Chaos.rp_outcomes);
  check_float "zero per kiloscenario" 0.0 (Chaos.violations_per_kiloscenario r);
  (* Scenarios regenerate from (seed, index): confirm the campaign actually
     exercised resilience-armed fleets, not just the legacy path. *)
  let armed = ref 0 in
  for i = 0 to 299 do
    let sc = Scenario.generate ~campaign_seed:ca.Chaos.ca_seed ~fault_prob:0.0 i in
    if Resilience.active sc.Scenario.sc_resilience then incr armed
  done;
  check_true
    (Fmt.str "campaign drew resilience-armed scenarios (got %d)" !armed)
    (!armed >= 30)

let test_faulty_campaign_holds () =
  (* The serving stack is expected to survive injected faults: recovery
     paths degrade goodput but must never break accounting invariants. *)
  let ca =
    { Chaos.default_campaign with Chaos.ca_seed = 5; ca_runs = 40; ca_fault_prob = 0.7 }
  in
  let r = Chaos.run_campaign ca in
  check_int "faulty campaign has zero violations" 0 (List.length r.Chaos.rp_outcomes)

let test_corruption_campaign_holds () =
  (* ISSUE acceptance: campaigns whose scenarios arm silent corruption
     (probabilistic and flaky devices) and sampled auditing must hold every
     invariant — audit_shield and quarantine_flow included. *)
  let ca =
    { Chaos.default_campaign with Chaos.ca_seed = 21; ca_runs = 40; ca_fault_prob = 1.0 }
  in
  let armed = ref 0 and audited = ref 0 and flaky = ref 0 in
  for i = 0 to ca.Chaos.ca_runs - 1 do
    let sc =
      Scenario.generate ~campaign_seed:ca.Chaos.ca_seed
        ~fault_prob:ca.Chaos.ca_fault_prob i
    in
    if Array.exists Faults.corrupts sc.Scenario.sc_plans then begin
      incr armed;
      if Array.exists (fun p -> p.Faults.flaky_after <> None) sc.Scenario.sc_plans then
        incr flaky;
      if sc.Scenario.sc_audit > 0.0 then begin
        incr audited;
        check_true "armed scenario repro carries --audit"
          (contains (Scenario.to_cli sc) "--audit")
      end
    end
  done;
  check_true (Fmt.str "campaign draws corrupting fleets (got %d)" !armed) (!armed >= 5);
  check_true "some corrupting fleets are flaky devices" (!flaky >= 1);
  check_true "some corrupting fleets arm the auditor" (!audited >= 1);
  let r = Chaos.run_campaign ca in
  check_int "corruption campaign has zero violations" 0 (List.length r.Chaos.rp_outcomes)

let test_campaign_determinism () =
  let ca =
    { Chaos.default_campaign with Chaos.ca_seed = 9; ca_runs = 30; ca_fault_prob = 0.6 }
  in
  let a = Json.to_string (Chaos.report_json (Chaos.run_campaign ca)) in
  let b = Json.to_string (Chaos.report_json (Chaos.run_campaign ca)) in
  check_true "same campaign, byte-identical report" (String.equal a b)

let test_campaign_catches_forced_floor () =
  (* Force violations with an absolute goodput floor no faulted fleet can
     meet; each must shrink and emit a full reproducer block. *)
  let ca =
    {
      Chaos.default_campaign with
      Chaos.ca_seed = 11;
      ca_runs = 12;
      ca_fault_prob = 1.0;
      ca_goodput_floor = Some 0.999;
      ca_check_replay = false;
      ca_shrink = true;
    }
  in
  let r = Chaos.run_campaign ca in
  check_true "forced floor produces violations" (r.Chaos.rp_outcomes <> []);
  List.iter
    (fun oc ->
      let minimal_sc, vs = Chaos.minimal oc in
      check_true "minimal outcome still violates" (vs <> []);
      check_true "shrunk no larger than original"
        (Scenario.fault_clause_count minimal_sc
        <= Scenario.fault_clause_count oc.Chaos.oc_scenario);
      match Chaos.repro_lines ca oc with
      | [ header; serve; chaos ] ->
        check_true "repro header names the invariant" (contains header "violates:");
        check_true "repro serve line" (contains serve "acrobatc serve");
        check_true "repro chaos line replays by index"
          (contains chaos
             (Fmt.str "--only %d" oc.Chaos.oc_scenario.Scenario.sc_index))
      | _ -> Alcotest.fail "repro block is three lines")
    r.Chaos.rp_outcomes;
  (* check_one re-derives any campaign scenario from (seed, index) alone. *)
  let oc = List.hd r.Chaos.rp_outcomes in
  (match Chaos.check_one ca oc.Chaos.oc_scenario.Scenario.sc_index with
  | Some oc' ->
    check_true "check_one re-derives the same scenario"
      (oc'.Chaos.oc_scenario = oc.Chaos.oc_scenario)
  | None -> Alcotest.fail "check_one must reproduce the campaign violation")

let test_debug_flag_restored () =
  let was = Event_loop.debug_checks_enabled () in
  Fun.protect
    ~finally:(fun () -> Event_loop.set_debug_checks was)
    (fun () ->
      Event_loop.set_debug_checks false;
      let ca = { Chaos.default_campaign with Chaos.ca_runs = 3; ca_fault_prob = 0.0 } in
      ignore (Chaos.run_campaign ca);
      check_true "campaign restores a disabled debug flag"
        (not (Event_loop.debug_checks_enabled ()));
      Event_loop.set_debug_checks true;
      ignore (Chaos.run_campaign ca);
      check_true "campaign restores an enabled debug flag"
        (Event_loop.debug_checks_enabled ()))

(* --- Golden slice ---

   One digest over the summary JSON and full trace of chaos scenarios
   0..299 at campaign seed 42, fault probability 0.6. The slice holds 25
   tenancy and 56 cluster scenarios with hedging armed, 53 of which fire
   hedges, so it pins the hedge ledger of both dispatchers. Per-tenant
   observations are left out. Regenerate only for a deliberate, documented
   change of serving behaviour. *)

let golden_chaos_slice = "653c1731f39dd1e22e57d9c4970b7722"

let chaos_slice_digest () =
  let digests =
    List.init 300 (fun index ->
        let sc = Scenario.generate ~campaign_seed:42 ~fault_prob:0.6 index in
        let summary, tracer = Chaos.run_scenario sc in
        Digest.string (Chaos.observable_string summary tracer []))
  in
  Digest.to_hex (Digest.string (String.concat "" digests))

let test_golden_chaos_slice () =
  Alcotest.(check string) "chaos slice digest" golden_chaos_slice (chaos_slice_digest ())

let suite =
  [
    Alcotest.test_case "scenario: generation is deterministic" `Quick
      test_scenario_determinism;
    Alcotest.test_case "scenario: CLI reproducer shape" `Quick test_scenario_to_cli;
    Alcotest.test_case "invariants: clean run passes" `Quick test_invariants_healthy;
    Alcotest.test_case "invariants: conservation oracle fires" `Quick
      test_invariant_conservation;
    Alcotest.test_case "invariants: conservation names every terminal outcome" `Quick
      test_invariant_conservation_names_every_outcome;
    Alcotest.test_case "invariants: terminal-once oracle fires" `Quick
      test_invariant_terminal_once;
    Alcotest.test_case "invariants: duplicate-completion oracle fires" `Quick
      test_invariant_dup_completion;
    Alcotest.test_case "invariants: audit-shield oracle fires" `Quick
      test_invariant_audit_shield;
    Alcotest.test_case "invariants: quarantine-flow oracle fires" `Quick
      test_invariant_quarantine_flow;
    Alcotest.test_case "invariants: requeue-budget oracle fires" `Quick
      test_invariant_requeue_budget;
    Alcotest.test_case "invariants: goodput-floor oracle fires" `Quick
      test_invariant_goodput_floor;
    Alcotest.test_case "invariants: tenant oracles fire" `Quick test_invariant_tenants;
    Alcotest.test_case "invariants: retry-amplification oracle fires" `Quick
      test_invariant_retry_amplification;
    Alcotest.test_case "invariants: brownout-dwell oracle fires" `Quick
      test_invariant_brownout_dwell;
    Alcotest.test_case "scenario: tenant-mix CLI reproducer shape" `Quick
      test_tenancy_scenario_repro;
    Alcotest.test_case "scenario: tenant-mix run holds invariants" `Quick
      test_tenancy_scenario_holds;
    Alcotest.test_case "scenario: hedged tenant mix counts requests, not copies" `Quick
      test_tenant_offered_counts_requests;
    Alcotest.test_case "shrink: known-bad plan minimizes to <= 2 clauses" `Quick
      test_shrink_known_bad;
    Alcotest.test_case "shrink: irrelevant net plan stripped" `Quick
      test_shrink_strips_net;
    Alcotest.test_case "scenario: net-armed CLI reproducer shape" `Quick
      test_net_scenario_repro;
    Alcotest.test_case "invariants: net oracles pass healthy, fire on tamper" `Quick
      test_invariant_net_oracles;
    Alcotest.test_case "invariants: partition-blackout oracle fires" `Quick
      test_invariant_net_partition;
    Alcotest.test_case "campaign: lossy transports hold exactly-once in 200" `Quick
      test_net_campaign_holds;
    Alcotest.test_case "campaign: clean fleet, zero violations in 300" `Quick
      test_clean_campaign;
    Alcotest.test_case "campaign: faulty fleet holds invariants" `Quick
      test_faulty_campaign_holds;
    Alcotest.test_case "campaign: corrupting fleet holds invariants" `Quick
      test_corruption_campaign_holds;
    Alcotest.test_case "campaign: byte-identical reports" `Quick
      test_campaign_determinism;
    Alcotest.test_case "campaign: forced floor shrinks and reproduces" `Quick
      test_campaign_catches_forced_floor;
    Alcotest.test_case "campaign: debug flag restored" `Quick test_debug_flag_restored;
    Alcotest.test_case "golden: chaos slice, hedged dispatchers" `Quick
      test_golden_chaos_slice;
  ]
