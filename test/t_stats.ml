(** Golden pins of the serving summary's three output channels.

    A hand-built summary where every counter holds a distinct nonzero
    value exercises every activity group at once: the JSON object and the
    pretty-printed block are compared to fixed strings, so a label, key,
    group order or trailer ([goodput], [slo_attainment], the clamped line)
    cannot move silently. The metrics export of a net-armed 3-replica
    cluster pins the timeline's key order and values. *)

open Acrobat
open T_util
module Stats = Serve.Stats
module Cluster = Serve.Cluster
module Server = Serve.Server
module Traffic = Serve.Traffic
module Json = Serve.Json

let every_counter : Stats.summary =
  {
    Stats.s_offered = 1000;
    s_completed = 800;
    s_shed = 11;
    s_expired = 12;
    s_makespan_ms = 123.25;
    s_throughput_rps = 6490.5;
    s_p50_ms = 1.5;
    s_p95_ms = 2.75;
    s_p99_ms = 3.125;
    s_mean_ms = 1.625;
    s_mean_queue_ms = 0.375;
    s_mean_compute_ms = 1.25;
    s_batches = 13;
    s_mean_batch = 4.5;
    s_fault_batches = 14;
    s_retries = 15;
    s_bisections = 16;
    s_poisoned = 17;
    s_breaker_opens = 18;
    s_breaker_shed = 19;
    s_degraded_batches = 20;
    s_failovers = 21;
    s_requeued = 22;
    s_probes = 23;
    s_readmitted = 24;
    s_hedges = 25;
    s_hedge_wins = 26;
    s_hedge_cancels = 27;
    s_hedge_wasted = 28;
    s_clamped_schedules = 29;
    s_quota_shed = 30;
    s_swaps = 31;
    s_slo_ok = 600;
    s_limit_shed = 33;
    s_retry_shed = 34;
    s_retried_requests = 35;
    s_brownouts = 36;
    s_brownout_restores = 37;
    s_corrupted_batches = 38;
    s_corrupted_delivered = 39;
    s_audits = 40;
    s_audit_mismatches = 41;
    s_quarantines = 42;
    s_quarantine_restores = 43;
    s_net_sends = 44;
    s_net_resends = 45;
    s_net_dups = 46;
    s_net_drops = 47;
    s_net_partition_drops = 48;
    s_net_deliveries = 49;
    s_net_fresh = 50;
    s_net_dedup_hits = 51;
    s_net_acks = 52;
    s_net_ack_drops = 53;
    s_net_gray_drops = 54;
    s_net_ack_deliveries = 55;
    s_net_timeouts = 56;
    s_net_shed = 57;
    s_net_link_downs = 58;
    s_net_heals = 59;
    s_net_probes = 60;
  }

let test_summary_json_golden () =
  Alcotest.(check string) "summary_to_json"
    (String.concat ""
      [
        {|{"offered":1000,"completed":800,"shed":11,"expired":12,|};
        {|"makespan_ms":123.25,"throughput_rps":6490.5,"p50_ms":1.5,|};
        {|"p95_ms":2.75,"p99_ms":3.125,"mean_ms":1.625,"mean_queue_ms":0.375,|};
        {|"mean_compute_ms":1.25,"batches":13,"mean_batch":4.5,|};
        {|"drop_rate":0.213,"fault_batches":14,"retries":15,"bisections":16,|};
        {|"poisoned":17,"breaker_opens":18,"breaker_shed":19,|};
        {|"degraded_batches":20,"goodput":0.8,"failovers":21,"requeued":22,|};
        {|"probes":23,"readmitted":24,"hedges":25,"hedge_wins":26,|};
        {|"hedge_cancels":27,"hedge_wasted":28,"quota_shed":30,"swaps":31,|};
        {|"slo_ok":600,"slo_attainment":0.75,"limit_shed":33,"retry_shed":34,|};
        {|"retried_requests":35,"brownouts":36,"brownout_restores":37,|};
        {|"corrupted_batches":38,"corrupted_delivered":39,"audits":40,|};
        {|"audit_mismatches":41,"quarantines":42,"quarantine_restores":43,|};
        {|"net_sends":44,"net_resends":45,"net_dups":46,"net_drops":47,|};
        {|"net_partition_drops":48,"net_deliveries":49,"net_fresh":50,|};
        {|"net_dedup_hits":51,"net_acks":52,"net_ack_drops":53,|};
        {|"net_gray_drops":54,"net_ack_deliveries":55,"net_timeouts":56,|};
        {|"net_shed":57,"net_link_downs":58,"net_heals":59,"net_probes":60,|};
        {|"clamped_schedules":29}|};
      ])
    (Json.to_string (Stats.summary_to_json every_counter))

let test_summary_pp_golden () =
  Alcotest.(check string) "pp_summary"
    {|offered                1000
completed               800
shed (queue full)        11
expired (deadline)       12
makespan             123.25 ms
throughput           6490.5 req/s
latency p50            1.50 ms
latency p95            2.75 ms
latency p99            3.12 ms
latency mean           1.62 ms
queue wait (mean)      0.38 ms
compute (mean)         1.25 ms
batches                  13
mean batch size        4.50
failed batches           14
retries                  15
bisections               16
poisoned (dropped)       17
breaker opens            18
breaker shed             19
degraded batches         20
goodput                80.0 %
failovers                21
requeued                 22
probes                   23
readmitted               24
hedges issued            25
hedge wins               26
hedge cancels            27
hedge wasted             28
quota shed               30
model swaps              31
slo attained           75.0 %
limiter shed             33
retry-budget shed        34
retried requests         35
brownouts                36
brownout restores        37
corrupted batches        38
corrupted delivered      39
audits                   40
audit mismatches         41
quarantines              42
quarantine restores      43
net sends                44
net resends              45
net dups delivered       46
net drops                47
net partition drops      48
net deliveries           49
net dedup hits           51
net acks lost            53
net gray losses          54
net timeouts             56
net deadline shed        57
net link downs           58
net heals                59
clamped schedules        29  (scheduling bug?)|}
    (Fmt.str "%a" Stats.pp_summary every_counter)

let linear_cost batch =
  {
    Server.ex_latency_us = 100.0 +. (10.0 *. float_of_int (List.length batch));
    ex_profiler = None;
    ex_fingerprints = None;
    ex_corrupted = false;
  }

let test_cluster_metrics_golden () =
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 21) (Traffic.Poisson { rate_per_s = 4000.0 }) ~n:120
  in
  let plan =
    Acrobat_net.Net.parse
      "seed=9,delay=100:30,drop=0.05,dup=0.2,partition=5000:20000:2,timeout=2000,resends=2"
  in
  let report =
    Cluster.simulate ~snapshot_every_us:10_000.0
      { Cluster.default_config with Cluster.c_replicas = 3; Cluster.c_net = Some plan }
      ~arrivals ~payload:Fun.id
      ~executors:(Array.make 3 (Server.infallible linear_cost))
  in
  let json = Stats.metrics_json report.Cluster.cluster_stats in
  let final =
    match json with
    | Json.Obj (("metrics", final) :: _) -> Json.to_string final
    | _ -> Alcotest.fail "unexpected metrics JSON shape"
  in
  Alcotest.(check string) "final counters, in export order"
    (String.concat ""
      [
        {|{"serve.offered":120,"serve.completed":120,"serve.shed":0,|};
        {|"serve.expired":0,"serve.batches":116,"serve.fault_batches":0,|};
        {|"serve.retries":0,"serve.bisections":0,"serve.poisoned":0,|};
        {|"serve.breaker_opens":0,"serve.breaker_shed":0,|};
        {|"serve.degraded_batches":0,"serve.failovers":0,"serve.requeued":1,|};
        {|"serve.probes":0,"serve.readmitted":0,"serve.hedges":0,|};
        {|"serve.hedge_wins":0,"serve.hedge_cancels":0,"serve.hedge_wasted":0,|};
        {|"serve.clamped_schedules":0,"serve.quota_shed":0,"serve.swaps":0,|};
        {|"serve.slo_ok":0,"serve.limit_shed":0,"serve.retry_shed":0,|};
        {|"serve.retried_requests":0,"serve.brownouts":0,|};
        {|"serve.brownout_restores":0,"serve.corrupted_batches":0,|};
        {|"serve.corrupted_delivered":0,"serve.audits":0,|};
        {|"serve.audit_mismatches":0,"serve.quarantines":0,|};
        {|"serve.quarantine_restores":0,"serve.net_sends":135,|};
        {|"serve.net_resends":14,"serve.net_dups":20,"serve.net_drops":4,|};
        {|"serve.net_partition_drops":2,"serve.net_deliveries":149,|};
        {|"serve.net_fresh":120,"serve.net_dedup_hits":29,"serve.net_acks":131,|};
        {|"serve.net_ack_drops":9,"serve.net_gray_drops":0,|};
        {|"serve.net_ack_deliveries":122,"serve.net_timeouts":15,|};
        {|"serve.net_shed":0,"serve.net_link_downs":1,"serve.net_heals":1,|};
        {|"serve.net_probes":7,"device.kernel_calls":0,|};
        {|"device.gather_kernels":0,"device.gather_bytes":0,|};
        {|"device.memcpy_calls":0,"device.nodes_created":0,|};
        {|"device.batches_executed":0,"device.unbatched_ops":0,|};
        {|"device.fiber_switches":0}|};
      ])
    final;
  (* The periodic snapshots repeat the same keys at every 10 ms tick. *)
  Alcotest.(check string) "snapshots digest" "d8027f8e753fe9c40011160c33821c2f"
    (Digest.to_hex (Digest.string (Json.to_string json)))

(* A hand-built run: one completion and one queue shed. *)
let two_requests () =
  let t = Stats.create () in
  Stats.record_fields t ~id:0 ~arrival_us:0.0 ~start_us:1.0 ~done_us:2.0 ~batch_size:1;
  Stats.incr t Stats.shed;
  t

let broken t ~arrivals = Stats.conservation (Stats.summarize t) ~arrivals

let test_conservation_laws () =
  let laws t ~arrivals = List.map fst (broken t ~arrivals) in
  Alcotest.(check (list string)) "a balanced run breaks nothing" []
    (laws (two_requests ()) ~arrivals:2);
  Alcotest.(check (list string)) "an arrival without an outcome" [ "conservation" ]
    (laws (two_requests ()) ~arrivals:3);
  (* One counter per net law that appears in no other law. *)
  List.iter
    (fun (c : Stats.counter) ->
      let t = two_requests () in
      Stats.incr t c;
      match broken t ~arrivals:2 with
      | [ ("net_conservation", evidence) ] ->
        check_true (c.Stats.name ^ " named in the evidence") (contains evidence c.Stats.name)
      | _ -> Alcotest.failf "a stray %s must break exactly one net law" c.Stats.name)
    Stats.[ net_sends; net_fresh; net_acks ];
  let was = Serve.Event_loop.debug_checks_enabled () in
  Fun.protect
    ~finally:(fun () -> Serve.Event_loop.set_debug_checks was)
    (fun () ->
      Serve.Event_loop.set_debug_checks false;
      Stats.assert_conserved (two_requests ()) ~arrivals:3;
      Serve.Event_loop.set_debug_checks true;
      Stats.assert_conserved (two_requests ()) ~arrivals:2;
      match Stats.assert_conserved (two_requests ()) ~arrivals:3 with
      | () -> Alcotest.fail "debug checks armed: a broken law must raise"
      | exception Invalid_argument msg ->
        check_true "the error names the law" (contains msg "conservation"))

let suite =
  [
    Alcotest.test_case "summary JSON golden" `Quick test_summary_json_golden;
    Alcotest.test_case "summary pp golden" `Quick test_summary_pp_golden;
    Alcotest.test_case "net cluster metrics golden" `Quick test_cluster_metrics_golden;
    Alcotest.test_case "conservation laws reported" `Quick test_conservation_laws;
  ]
