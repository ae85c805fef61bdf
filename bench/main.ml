(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (`all`), or one at a time; `serve` runs the online-serving
    latency-vs-offered-load curves. Host-time measurements live in
    [bench/perf].

    `--json FILE` additionally dumps every selected experiment's rows as
    machine-readable JSON (one object keyed by experiment name), so the
    perf trajectory is trackable across commits:

    {v bench/main.exe serve --json BENCH_serve.json v}

    Latencies are simulated milliseconds from the device cost model
    (DESIGN.md §2): counts are real, unit costs are calibrated constants.
    Compare shapes, not absolute values, against the embedded paper
    numbers. *)

open Acrobat
module E = Experiments
module J = Serve.Json

let pf = Printf.printf

let size_str = function Model.Small -> "small" | Model.Large -> "large"

let hr title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

let table4 () =
  hr "Table 4: DyNet vs ACROBAT inference latency (ms)";
  pf "%-10s %-6s %5s | %10s %10s %8s | %10s %10s %8s\n" "model" "size" "batch" "dynet"
    "acrobat" "speedup" "paper-dy" "paper-ab" "paper-sp";
  let rows = E.table4 () in
  List.iter
    (fun (r : E.t4_row) ->
      let paper_dy, paper_sp =
        match r.t4_paper_dynet with
        | Some d -> Printf.sprintf "%10.2f" d, Printf.sprintf "%8.2f" (d /. r.t4_paper_acrobat)
        | None -> "       OOM", "       -"
      in
      pf "%-10s %-6s %5d | %10.2f %10.2f %8.2f | %s %10.2f %s\n" r.t4_model
        (size_str r.t4_size) r.t4_batch r.t4_dynet r.t4_acrobat
        (r.t4_dynet /. r.t4_acrobat) paper_dy r.t4_paper_acrobat paper_sp)
    rows;
  let geo =
    let logs = List.map (fun (r : E.t4_row) -> log (r.t4_dynet /. r.t4_acrobat)) rows in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  pf "geometric-mean speedup over DyNet: %.2fx (paper: 2.3x overall)\n" geo;
  J.List
    (List.map
       (fun (r : E.t4_row) ->
         J.Obj
           [
             "model", J.Str r.t4_model;
             "size", J.Str (size_str r.t4_size);
             "batch", J.Int r.t4_batch;
             "dynet_ms", J.Float r.t4_dynet;
             "acrobat_ms", J.Float r.t4_acrobat;
           ])
       rows)

let table5 () =
  hr "Table 5: activity breakdown at batch size 64 (ms)";
  let cells = E.table5 () in
  List.iter
    (fun (label, (dy : E.t5_cell), (ab : E.t5_cell)) ->
      pf "\n-- %s --\n" label;
      pf "%-18s %10s %10s\n" "activity" "dynet" "acrobat";
      pf "%-18s %10.2f %10.2f\n" "DFG construction" dy.t5_dfg ab.t5_dfg;
      pf "%-18s %10.2f %10.2f\n" "Scheduling" dy.t5_sched ab.t5_sched;
      pf "%-18s %10.2f %10.2f\n" "Mem. copy time" dy.t5_mem ab.t5_mem;
      pf "%-18s %10.2f %10.2f\n" "GPU kernel time" dy.t5_kernel ab.t5_kernel;
      pf "%-18s %10d %10d\n" "#Kernel calls" dy.t5_kernel_calls ab.t5_kernel_calls;
      pf "%-18s %10.2f %10.2f\n" "CUDA API time" dy.t5_api ab.t5_api)
    cells;
  pf "\npaper (TreeLSTM small): DFG 8.8/1.5, sched 9.7/0.4, mem 3.1/0.1, kernel 6.1/4.0, calls 1653/183, API 16.5/3.9\n";
  pf "paper (BiRNN large):    DFG 4.5/1.0, sched 3.3/0.4, mem 2.3/0.2, kernel 6.6/11.2, calls 580/380, API 12.0/11.1\n";
  let cell_json (c : E.t5_cell) =
    J.Obj
      [
        "dfg_ms", J.Float c.t5_dfg;
        "sched_ms", J.Float c.t5_sched;
        "mem_ms", J.Float c.t5_mem;
        "kernel_ms", J.Float c.t5_kernel;
        "kernel_calls", J.Int c.t5_kernel_calls;
        "api_ms", J.Float c.t5_api;
      ]
  in
  J.List
    (List.map
       (fun (label, dy, ab) ->
         J.Obj [ "config", J.Str label; "dynet", cell_json dy; "acrobat", cell_json ab ])
       cells)

let table6 () =
  hr "Table 6: Cortex vs ACROBAT inference latency (ms)";
  pf "%-10s %-6s %5s | %10s %10s | %10s %10s\n" "model" "size" "batch" "cortex" "acrobat"
    "paper-cx" "paper-ab";
  let rows = E.table6 () in
  List.iter
    (fun (r : E.t6_row) ->
      pf "%-10s %-6s %5d | %10.2f %10.2f | %10.2f %10.2f\n" r.t6_model (size_str r.t6_size)
        r.t6_batch r.t6_cortex r.t6_acrobat r.t6_paper_cortex r.t6_paper_acrobat)
    rows;
  J.List
    (List.map
       (fun (r : E.t6_row) ->
         J.Obj
           [
             "model", J.Str r.t6_model;
             "size", J.Str (size_str r.t6_size);
             "batch", J.Int r.t6_batch;
             "cortex_ms", J.Float r.t6_cortex;
             "acrobat_ms", J.Float r.t6_acrobat;
           ])
       rows)

let table7 () =
  hr "Table 7: Relay VM vs AOT compilation (ms)";
  pf "%-10s %-6s %5s | %10s %10s %8s | %10s %10s\n" "model" "size" "batch" "vm" "aot"
    "speedup" "paper-vm" "paper-aot";
  let rows = E.table7 () in
  List.iter
    (fun (r : E.t7_row) ->
      pf "%-10s %-6s %5d | %10.2f %10.2f %8.2f | %10.2f %10.2f\n" r.t7_model
        (size_str r.t7_size) r.t7_batch r.t7_vm r.t7_aot (r.t7_vm /. r.t7_aot) r.t7_paper_vm
        r.t7_paper_aot)
    rows;
  J.List
    (List.map
       (fun (r : E.t7_row) ->
         J.Obj
           [
             "model", J.Str r.t7_model;
             "size", J.Str (size_str r.t7_size);
             "batch", J.Int r.t7_batch;
             "vm_ms", J.Float r.t7_vm;
             "aot_ms", J.Float r.t7_aot;
           ])
       rows)

let table8 () =
  hr "Table 8: DyNet vs DyNet++ (improved heuristics) vs ACROBAT (ms)";
  pf "%-10s %-6s %5s | %8s %8s %8s | %8s %8s %8s\n" "model" "size" "batch" "DN" "DN++" "AB"
    "p-DN" "p-DN++" "p-AB";
  let rows = E.table8 () in
  List.iter
    (fun (r : E.t8_row) ->
      let pdn, pdnpp, pab = r.t8_paper in
      pf "%-10s %-6s %5d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n" r.t8_model
        (size_str r.t8_size) r.t8_batch r.t8_dn r.t8_dnpp r.t8_ab pdn pdnpp pab)
    rows;
  J.List
    (List.map
       (fun (r : E.t8_row) ->
         J.Obj
           [
             "model", J.Str r.t8_model;
             "size", J.Str (size_str r.t8_size);
             "batch", J.Int r.t8_batch;
             "dynet_ms", J.Float r.t8_dn;
             "dynetpp_ms", J.Float r.t8_dnpp;
             "acrobat_ms", J.Float r.t8_ab;
           ])
       rows)

let table9 () =
  hr "Table 9: PGO benefit during auto-scheduling (NestedRNN small, batch 8; ms)";
  pf "%8s | %10s %10s | %10s %10s\n" "iters" "no-PGO" "PGO" "paper-no" "paper-PGO";
  let rows = E.table9 () in
  List.iter
    (fun (r : E.t9_row) ->
      pf "%8d | %10.2f %10.2f | %10.2f %10.2f\n" r.t9_iters r.t9_nopgo r.t9_pgo
        r.t9_paper_nopgo r.t9_paper_pgo)
    rows;
  J.List
    (List.map
       (fun (r : E.t9_row) ->
         J.Obj
           [
             "iters", J.Int r.t9_iters;
             "nopgo_ms", J.Float r.t9_nopgo;
             "pgo_ms", J.Float r.t9_pgo;
           ])
       rows)

let fig5 () =
  hr "Figure 5: benefit of each optimization (large, batch 64; ms)";
  let rows = E.fig5 () in
  let labels = List.map fst E.ablation_ladder in
  pf "%-10s" "model";
  List.iter (fun l -> pf " %14s" l) labels;
  pf "\n";
  List.iter
    (fun (r : E.fig5_row) ->
      pf "%-10s" r.f5_model;
      List.iter (fun (_, ms) -> pf " %14.2f" ms) r.f5_steps;
      pf "\n")
    rows;
  pf "(expected shape: monotone improvement; gather fusion may hurt iterative low-parallelism models, cf. paper 7.3)\n";
  J.List
    (List.map
       (fun (r : E.fig5_row) ->
         J.Obj
           [
             "model", J.Str r.f5_model;
             "steps", J.Obj (List.map (fun (label, ms) -> label, J.Float ms) r.f5_steps);
           ])
       rows)

let fig9 () =
  hr "Figure 9: speedup over PyTorch";
  pf "%-10s %-6s %5s | %10s %10s %8s\n" "model" "size" "batch" "pytorch" "acrobat" "speedup";
  let rows = E.fig9 () in
  List.iter
    (fun (r : E.fig9_row) ->
      pf "%-10s %-6s %5d | %10.2f %10.2f %8.2f\n" r.f9_model (size_str r.f9_size) r.f9_batch
        r.f9_pytorch r.f9_acrobat (r.f9_pytorch /. r.f9_acrobat))
    rows;
  pf "(paper: all speedups > 1; larger for small model sizes; BiRNN lowest, MV-RNN highest)\n";
  J.List
    (List.map
       (fun (r : E.fig9_row) ->
         J.Obj
           [
             "model", J.Str r.f9_model;
             "size", J.Str (size_str r.f9_size);
             "batch", J.Int r.f9_batch;
             "pytorch_ms", J.Float r.f9_pytorch;
             "acrobat_ms", J.Float r.f9_acrobat;
           ])
       rows)

let extras () =
  hr "Extra ablation: scheduler comparison (batch 64)";
  pf "%-10s %-14s %10s %12s %8s\n" "model" "scheduler" "latency" "sched-ms" "batches";
  let sched_rows = E.ablation_scheduler () in
  List.iter
    (fun (id, sched, lat, sched_ms, batches) ->
      pf "%-10s %-14s %10.2f %12.3f %8d\n" id sched lat sched_ms batches)
    sched_rows;
  hr "Extra ablation: context sensitivity (BiRNN small, batch 64)";
  pf "%-8s %10s %14s %10s\n" "ctx" "latency" "gather-bytes" "gathers";
  let ctx_rows = E.ablation_context () in
  List.iter
    (fun (ctx, lat, bytes, gathers) -> pf "%-8b %10.2f %14d %10d\n" ctx lat bytes gathers)
    ctx_rows;
  J.Obj
    [
      ( "scheduler",
        J.List
          (List.map
             (fun (id, sched, lat, sched_ms, batches) ->
               J.Obj
                 [
                   "model", J.Str id;
                   "scheduler", J.Str sched;
                   "latency_ms", J.Float lat;
                   "sched_ms", J.Float sched_ms;
                   "batches", J.Int batches;
                 ])
             sched_rows) );
      ( "context",
        J.List
          (List.map
             (fun (ctx, lat, bytes, gathers) ->
               J.Obj
                 [
                   "context_sensitive", J.Bool ctx;
                   "latency_ms", J.Float lat;
                   "gather_bytes", J.Int bytes;
                   "gathers", J.Int gathers;
                 ])
             ctx_rows) );
    ]

(* --- Serving: latency vs offered load (the online front-end) --- *)

let serve () =
  hr "Serving: latency vs offered load (cross-request dynamic batching)";
  pf "%-10s %-9s %5s %9s | %10s %8s %8s %8s %7s %6s\n" "model" "policy" "load" "rate"
    "thruput" "p50" "p95" "p99" "batch" "drop";
  let rows = E.serve_curve () in
  List.iter
    (fun (r : E.serve_row) ->
      pf "%-10s %-9s %4.1fx %7.0f/s | %8.0f/s %7.2fms %7.2fms %7.2fms %7.2f %5.1f%%\n"
        r.sv_model r.sv_policy r.sv_load r.sv_rate r.sv_throughput r.sv_p50 r.sv_p95
        r.sv_p99 r.sv_mean_batch (100.0 *. r.sv_drop_rate))
    rows;
  pf
    "(expected shape: at >=1x load, adaptive sustains higher throughput and far lower p99 \
     than batch1 by amortizing launch+API overhead across requests)\n";
  J.List
    (List.map
       (fun (r : E.serve_row) ->
         J.Obj
           [
             "model", J.Str r.sv_model;
             "policy", J.Str r.sv_policy;
             "load", J.Float r.sv_load;
             "rate_rps", J.Float r.sv_rate;
             "throughput_rps", J.Float r.sv_throughput;
             "p50_ms", J.Float r.sv_p50;
             "p95_ms", J.Float r.sv_p95;
             "p99_ms", J.Float r.sv_p99;
             "mean_batch", J.Float r.sv_mean_batch;
             "drop_rate", J.Float r.sv_drop_rate;
           ])
       rows)

(* --- Serving: availability under injected faults --- *)

let faults () =
  hr "Serving: availability under faults (TreeLSTM tiny, injected kernel faults)";
  pf "%-9s %6s | %8s %10s %8s %8s | %6s %7s %7s %8s %8s\n" "policy" "rate" "goodput"
    "thruput" "p50" "p99" "faults" "retries" "bisect" "poisoned" "breaker";
  let rows = E.serve_faults () in
  List.iter
    (fun (r : E.faults_row) ->
      pf "%-9s %5.0f%% | %7.1f%% %8.0f/s %6.2fms %6.2fms | %6d %7d %7d %8d %8d\n"
        r.fv_policy
        (100.0 *. r.fv_fault_rate)
        (100.0 *. r.fv_goodput)
        r.fv_throughput r.fv_p50 r.fv_p99 r.fv_fault_batches r.fv_retries r.fv_bisections
        r.fv_poisoned r.fv_breaker_opens)
    rows;
  pf
    "(expected shape: retry+bisection+breaker hold goodput near 100%% through 5%% fault \
     rates at a modest p99 cost; only sustained fault storms dent availability)\n";
  J.List
    (List.map
       (fun (r : E.faults_row) ->
         J.Obj
           [
             "policy", J.Str r.fv_policy;
             "fault_rate", J.Float r.fv_fault_rate;
             "goodput", J.Float r.fv_goodput;
             "throughput_rps", J.Float r.fv_throughput;
             "p50_ms", J.Float r.fv_p50;
             "p99_ms", J.Float r.fv_p99;
             "fault_batches", J.Int r.fv_fault_batches;
             "retries", J.Int r.fv_retries;
             "bisections", J.Int r.fv_bisections;
             "poisoned", J.Int r.fv_poisoned;
             "breaker_opens", J.Int r.fv_breaker_opens;
           ])
       rows)

(* --- Serving: replicated cluster (failover + hedging) --- *)

let cluster () =
  hr "Serving: replicated cluster — failover availability and hedged tails";
  pf "%-22s %4s %6s | %8s %5s %8s %8s | %5s %5s %6s %5s\n" "scenario" "reps" "hedge"
    "goodput" "done" "p50" "p99" "fails" "requ" "hedges" "wins";
  let rows = E.serve_cluster_bench () in
  List.iter
    (fun (r : E.cluster_row) ->
      let hedge = match r.cl_hedge with None -> "off" | Some p -> Printf.sprintf "p%.0f" p in
      pf "%-22s %4d %6s | %7.1f%% %5d %6.2fms %6.2fms | %5d %5d %6d %5d\n" r.cl_label
        r.cl_replicas hedge
        (100.0 *. r.cl_goodput)
        r.cl_completed r.cl_p50 r.cl_p99 r.cl_failovers r.cl_requeued r.cl_hedges
        r.cl_hedge_wins)
    rows;
  pf
    "(expected shape: the faulty replica collapses the single server's goodput; with \
     replicas to fail over to it recovers >= 99%%; hedging cuts the straggler p99)\n";
  J.List
    (List.map
       (fun (r : E.cluster_row) ->
         J.Obj
           [
             "scenario", J.Str r.cl_label;
             "replicas", J.Int r.cl_replicas;
             ( "hedge_percentile",
               match r.cl_hedge with None -> J.Null | Some p -> J.Float p );
             "goodput", J.Float r.cl_goodput;
             "completed", J.Int r.cl_completed;
             "p50_ms", J.Float r.cl_p50;
             "p99_ms", J.Float r.cl_p99;
             "failovers", J.Int r.cl_failovers;
             "requeued", J.Int r.cl_requeued;
             "hedges", J.Int r.cl_hedges;
             "hedge_wins", J.Int r.cl_hedge_wins;
           ])
       rows)

(* --- Chaos: violations per kiloscenario over fixed campaigns --- *)

let chaos () =
  hr "Chaos: invariant violations over randomized fault campaigns";
  pf "%-10s %6s %12s %6s | %10s %12s\n" "campaign" "seed" "fault-prob" "runs" "violating"
    "per-kilosc";
  let campaigns =
    [
      "clean", { Chaos.default_campaign with Chaos.ca_seed = 42; ca_runs = 120;
                 ca_fault_prob = 0.0 };
      "faulty", { Chaos.default_campaign with Chaos.ca_seed = 42; ca_runs = 120;
                  ca_fault_prob = 0.6 };
    ]
  in
  let rows =
    List.map
      (fun (label, ca) ->
        let report = Chaos.run_campaign ca in
        let violating = List.length report.Chaos.rp_outcomes in
        pf "%-10s %6d %12.2f %6d | %10d %12.1f\n" label ca.Chaos.ca_seed
          ca.Chaos.ca_fault_prob ca.Chaos.ca_runs violating
          (Chaos.violations_per_kiloscenario report);
        label, ca, report)
      campaigns
  in
  pf
    "(expected shape: zero violations in both — the invariant suite holds over the \
     whole scenario grammar; any nonzero count is a reproducible bug, see acrobatc \
     chaos)\n";
  J.Obj
    (List.map
       (fun (label, ca, report) ->
         ( label,
           J.Obj
             [
               "seed", J.Int ca.Chaos.ca_seed;
               "fault_prob", J.Float ca.Chaos.ca_fault_prob;
               "runs", J.Int report.Chaos.rp_scenarios;
               "violating", J.Int (List.length report.Chaos.rp_outcomes);
               ( "violations_per_kiloscenario",
                 J.Float (Chaos.violations_per_kiloscenario report) );
             ] ))
       rows)

(* --- Multi-tenant serving: autoscaler vs fixed fleet --- *)

let tenants () =
  hr "Multi-tenant serving: fixed-at-min vs autoscaled fleet under a flash crowd";
  let rows = E.tenants_bench () in
  pf "%-10s | %8s %8s %8s %8s %6s | %5s %5s %6s %6s\n" "config" "goodput" "slo-att"
    "expired" "shed" "qshed" "peak" "final" "swaps" "util%";
  List.iter
    (fun (label, (r : Tenancy.Dispatcher.report)) ->
      let s = Serve.Stats.summarize r.Tenancy.Dispatcher.tn_stats in
      pf "%-10s | %8.3f %8.3f %8d %8d %6d | %5d %5d %6d %6.1f\n" label
        (Serve.Stats.goodput s) (Serve.Stats.slo_attainment s) s.Serve.Stats.s_expired
        s.Serve.Stats.s_shed s.Serve.Stats.s_quota_shed r.Tenancy.Dispatcher.tn_peak_replicas
        r.Tenancy.Dispatcher.tn_final_replicas r.Tenancy.Dispatcher.tn_swaps
        (100.0 *. Tenancy.Dispatcher.utilization r);
      List.iter
        (fun (tv : Tenancy.Dispatcher.tenant_view) ->
          let ts = Serve.Stats.summarize tv.Tenancy.Dispatcher.tv_stats in
          pf "  %-8s :: %-8s goodput %5.3f slo %5.3f offered %4d done %4d peak-infl %3d\n"
            tv.Tenancy.Dispatcher.tv_tenant.Tenancy.Tenant.tn_name
            tv.Tenancy.Dispatcher.tv_tenant.Tenancy.Tenant.tn_model (Serve.Stats.goodput ts)
            (Serve.Stats.slo_attainment ts) ts.Serve.Stats.s_offered
            ts.Serve.Stats.s_completed tv.Tenancy.Dispatcher.tv_peak_inflight)
        r.Tenancy.Dispatcher.tn_tenants;
      match r.Tenancy.Dispatcher.tn_scale_events with
      | [] -> ()
      | evs ->
        pf "  scale trajectory:";
        List.iter (fun (ts, ev, n) -> pf " %.0fms:%s->%d" (ts /. 1000.0) ev n) evs;
        pf "\n")
    rows;
  pf
    "(expected shape: the fixed fleet is under water — goodput well below 0.8 — while \
     the autoscaler rides the flash crowd at >= 0.95 with the same arrivals)\n";
  J.Obj
    (List.map
       (fun (label, r) -> label, Tenancy.Dispatcher.report_json r)
       rows)

(* --- Observability: the serving metrics timeline --- *)

let obs () =
  hr "Observability: metrics timeline of a fault-injected serve run";
  let j = E.observability () in
  (match J.member "metrics" j with
  | Some (J.Obj fields) ->
    pf "%-28s %14s\n" "metric" "value";
    List.iter
      (fun (k, v) ->
        match v with
        | J.Int n -> pf "%-28s %14d\n" k n
        | J.Float f -> pf "%-28s %14.2f\n" k f
        | _ -> ())
      fields
  | _ -> ());
  (match Option.bind (J.member "snapshots" j) J.to_list_opt with
  | Some snaps -> pf "(%d periodic snapshots on the virtual clock)\n" (List.length snaps)
  | None -> ());
  j

(* --- Overload resilience: goodput vs offered load, controls on vs off --- *)

let overload () =
  hr "Overload resilience: goodput vs offered load (retry budget + limiter + brownout)";
  pf "%-10s %5s %8s | %8s %5s %5s %5s %6s %6s %5s | %6s %6s %5s | %8s %8s\n" "config"
    "load" "rate" "goodput" "done" "exp" "shed" "lshed" "rshed" "retry" "bisect" "degr"
    "brown" "p50" "p99";
  let rows = E.overload_bench () in
  List.iter
    (fun (r : E.overload_row) ->
      pf
        "%-10s %4.1fx %6.0f/s | %7.1f%% %5d %5d %5d %6d %6d %5d | %6d %6d %5d | %6.2fms \
         %6.2fms\n"
        r.ov_config r.ov_load r.ov_rate_per_s
        (100.0 *. r.ov_goodput)
        r.ov_completed r.ov_expired r.ov_shed r.ov_limit_shed r.ov_retry_shed r.ov_retries
        r.ov_bisections r.ov_degraded_batches r.ov_brownouts r.ov_p50 r.ov_p99)
    rows;
  (* The acceptance gates of DESIGN.md §13, checked right here so a
     regression shows up in `make bench` output, not just in review. *)
  let off = List.filter (fun (r : E.overload_row) -> r.ov_config = "off") rows in
  let on = List.filter (fun (r : E.overload_row) -> r.ov_config = "resilience") rows in
  let above_sat =
    List.filter_map
      (fun (o : E.overload_row) ->
        if o.ov_load <= 1.0 then None
        else
          Option.map
            (fun n -> o, n)
            (List.find_opt (fun (n : E.overload_row) -> n.ov_load = o.ov_load) on))
      off
  in
  let wins =
    List.length
      (List.filter (fun ((o : E.overload_row), (n : E.overload_row)) ->
           n.ov_goodput > o.ov_goodput +. 1e-9)
         above_sat)
  in
  let never_worse =
    List.for_all
      (fun ((o : E.overload_row), (n : E.overload_row)) ->
        n.ov_goodput >= o.ov_goodput -. 1e-9)
      above_sat
  in
  let amplification_ok =
    List.for_all
      (fun (n : E.overload_row) ->
        float_of_int n.ov_retried <= (0.2 *. float_of_int (n.ov_completed + n.ov_expired
        + n.ov_shed + n.ov_limit_shed + n.ov_retry_shed + n.ov_poisoned)) +. 1e-9)
      on
  in
  pf "gates: above-saturation never-worse %b, strict wins %d/%d, retry-amplification <= budget %b\n"
    never_worse wins (List.length above_sat) amplification_ok;
  pf
    "(expected shape: past 1x load the off config drowns — uncapped retries and bisection \
     re-offer work the device cannot absorb and queue delay expires the rest — while the \
     armed config sheds the excess at the door, caps re-execution at 20%% of offered \
     load, and buys capacity with brownout)\n";
  J.List
    (List.map
       (fun (r : E.overload_row) ->
         J.Obj
           [
             "config", J.Str r.ov_config;
             "load", J.Float r.ov_load;
             "rate_rps", J.Float r.ov_rate_per_s;
             "goodput", J.Float r.ov_goodput;
             "completed", J.Int r.ov_completed;
             "expired", J.Int r.ov_expired;
             "shed", J.Int r.ov_shed;
             "limit_shed", J.Int r.ov_limit_shed;
             "retry_shed", J.Int r.ov_retry_shed;
             "retried_requests", J.Int r.ov_retried;
             "retries", J.Int r.ov_retries;
             "bisections", J.Int r.ov_bisections;
             "poisoned", J.Int r.ov_poisoned;
             "degraded_batches", J.Int r.ov_degraded_batches;
             "brownouts", J.Int r.ov_brownouts;
             "brownout_restores", J.Int r.ov_brownout_restores;
             "p50_ms", J.Float r.ov_p50;
             "p99_ms", J.Float r.ov_p99;
             ( "limit_trajectory",
               J.List
                 (List.map
                    (fun (ts, v) -> J.List [ J.Float ts; J.Float v ])
                    r.ov_limit_trajectory) );
           ])
       rows)

(* --- Integrity: delivered corruption vs audit sampling rate --- *)

let integrity () =
  hr "Silent-corruption defense: delivered corruption and goodput vs audit rate";
  pf "%-5s | %8s %5s | %7s %9s | %6s %8s | %4s %7s | %8s %8s\n" "audit" "goodput" "done"
    "corrupt" "delivered" "audits" "mismatch" "quar" "restore" "p50" "p99";
  let rows = E.integrity_bench () in
  List.iter
    (fun (r : E.integrity_row) ->
      pf "%5.2f | %7.1f%% %5d | %7d %9d | %6d %8d | %4d %7d | %6.2fms %6.2fms\n"
        r.ig_audit (100.0 *. r.ig_goodput) r.ig_completed r.ig_corrupted_batches
        r.ig_corrupted_delivered r.ig_audits r.ig_audit_mismatches r.ig_quarantines
        r.ig_quarantine_restores r.ig_p50 r.ig_p99)
    rows;
  (* The acceptance gates of DESIGN.md §14, checked here so a regression
     shows up in `make bench` output, not just in review: sampling at rate
     p bounds expected delivered corruption at (1 - p) of injected, so the
     curve must fall monotonically and hit exactly zero at 1.0 (every
     delivery verified); the audit re-executions may cost only bounded
     goodput over the identical unaudited run. *)
  let rec monotone = function
    | (a : E.integrity_row) :: (b :: _ as rest) ->
      b.ig_corrupted_delivered <= a.ig_corrupted_delivered && monotone rest
    | _ -> true
  in
  let zero_at_full =
    List.for_all
      (fun (r : E.integrity_row) -> r.ig_audit < 1.0 || r.ig_corrupted_delivered = 0)
      rows
  in
  let overhead_ok =
    match
      ( List.find_opt (fun (r : E.integrity_row) -> r.ig_audit = 0.0) rows,
        List.find_opt (fun (r : E.integrity_row) -> r.ig_audit = 1.0) rows )
    with
    | Some off, Some full -> full.ig_goodput >= off.ig_goodput -. 0.15
    | _ -> true
  in
  pf
    "gates: delivered-corruption monotone %b, zero at audit 1.0 %b, goodput overhead <= \
     15pts %b\n"
    (monotone rows) zero_at_full overhead_ok;
  pf
    "(expected shape: without auditing the corrupting replica's wrong answers are \
     delivered silently; each sampled delivery is re-executed unbatched on a clean \
     reference device and compared by fingerprint, so raising the rate intercepts more \
     of them — at 1.0, all of them — while the corruption scoreboard quarantines the \
     dirty replica and probes it back in only after clean audits)\n";
  J.List
    (List.map
       (fun (r : E.integrity_row) ->
         J.Obj
           [
             "audit", J.Float r.ig_audit;
             "goodput", J.Float r.ig_goodput;
             "completed", J.Int r.ig_completed;
             "corrupted_batches", J.Int r.ig_corrupted_batches;
             "corrupted_delivered", J.Int r.ig_corrupted_delivered;
             "audits", J.Int r.ig_audits;
             "audit_mismatches", J.Int r.ig_audit_mismatches;
             "quarantines", J.Int r.ig_quarantines;
             "quarantine_restores", J.Int r.ig_quarantine_restores;
             "p50_ms", J.Float r.ig_p50;
             "p99_ms", J.Float r.ig_p99;
           ])
       rows)

(* --- Simulator-core scale: events/sec, heap backends vs reference --- *)

let scale () =
  hr "Simulator-core scale: events/sec at 10^3..10^6 requests (heap vs reference)";
  pf "%9s %-10s | %9s %8s %7s %7s %7s | %8s %9s | %5s\n" "requests" "backend" "events"
    "done" "shed" "exp" "batch" "wall" "events/s" "equiv";
  let rows = E.scale_bench () in
  List.iter
    (fun (r : E.scale_row) ->
      pf "%9d %-10s | %9d %8d %7d %7d %7d | %7.2fs %9.0f | %5b\n" r.sc_requests
        r.sc_backend r.sc_events r.sc_completed r.sc_shed r.sc_expired r.sc_batches
        r.sc_wall_s
        (if r.sc_wall_s > 0.0 then float_of_int r.sc_events /. r.sc_wall_s else 0.0)
        r.sc_equivalent)
    rows;
  (* Acceptance gates (DESIGN.md §15): every size's summary must be
     byte-identical across backends (the heap rewrite changes nothing but
     speed), and at the largest size the heap core must deliver >= 10x the
     reference's simulator events/sec. *)
  let heap = List.filter (fun (r : E.scale_row) -> r.sc_backend = "heap") rows in
  let reference =
    List.filter (fun (r : E.scale_row) -> r.sc_backend = "reference") rows
  in
  let all_equivalent = List.for_all (fun (r : E.scale_row) -> r.sc_equivalent) rows in
  let eps = 1e-9 in
  let speedup =
    match
      ( List.fold_left
          (fun acc (r : E.scale_row) ->
            match acc with
            | Some (b : E.scale_row) when b.sc_requests >= r.sc_requests -> acc
            | _ -> Some r)
          None heap,
        List.fold_left
          (fun acc (r : E.scale_row) ->
            match acc with
            | Some (b : E.scale_row) when b.sc_requests >= r.sc_requests -> acc
            | _ -> Some r)
          None reference )
    with
    | Some h, Some f ->
      float_of_int h.sc_events /. (h.sc_wall_s +. eps)
      /. (float_of_int f.sc_events /. (f.sc_wall_s +. eps))
    | _ -> 0.0
  in
  pf "gates: backends byte-identical at every size %b, heap speedup at largest size \
      %.1fx (>= 10x %b)\n"
    all_equivalent speedup (speedup >= 10.0);
  pf
    "(expected shape: both backends simulate the identical campaign — same completions, \
     drops, percentiles, byte for byte — but the reference pays O(n) sorted-list walks \
     per admission probe and Map allocation churn per event, so its events/sec collapses \
     as the campaign grows while the heap core's stays roughly flat)\n";
  (* Wall time and events/sec are host measurements and deliberately stay
     out of the JSON: BENCH_scale.json must be byte-identical across runs
     (the Makefile cmp-gates it). *)
  J.List
    (List.map
       (fun (r : E.scale_row) ->
         J.Obj
           [
             "requests", J.Int r.sc_requests;
             "backend", J.Str r.sc_backend;
             "events", J.Int r.sc_events;
             "completed", J.Int r.sc_completed;
             "shed", J.Int r.sc_shed;
             "expired", J.Int r.sc_expired;
             "batches", J.Int r.sc_batches;
             "p50_ms", J.Float r.sc_p50;
             "p99_ms", J.Float r.sc_p99;
             "mean_ms", J.Float r.sc_mean;
             "equivalent", J.Bool r.sc_equivalent;
           ])
       rows)

(* --- Net partition: goodput through partition/heal, exactly-once vs
   naive resend --- *)

let partition () =
  hr "Net partition: goodput through a partition/heal cycle (3 replicas, lossy links)";
  pf "%-13s | %8s %6s %5s %5s %5s | %8s %8s | %6s %6s %5s %6s %6s %5s %4s %5s\n" "transport"
    "goodput" "done" "shed" "exp" "p-drop" "p50" "p99" "sends" "resend" "dups" "dedup"
    "fresh" "t/o" "down" "heals";
  let rows = E.partition_bench () in
  List.iter
    (fun (r : E.partition_row) ->
      pf
        "%-13s | %7.1f%% %6d %5d %5d %6d | %6.2fms %6.2fms | %6d %6d %5d %6d %6d %5d %4d \
         %5d\n"
        r.pt_label
        (100.0 *. r.pt_goodput)
        r.pt_completed r.pt_shed r.pt_expired r.pt_net_partition_drops r.pt_p50 r.pt_p99
        r.pt_net_sends r.pt_net_resends r.pt_net_dups r.pt_net_dedup_hits r.pt_net_fresh
        r.pt_net_timeouts r.pt_link_downs r.pt_heals)
    rows;
  (* The acceptance gates of DESIGN.md §16, checked here so a regression
     shows up in `make bench` output, not just in review: the idempotency
     window must absorb every duplicate (dedup hits > 0 with no goodput
     collapse), and switching it off must cost strictly measurable
     goodput — ghost re-executions displace real work. *)
  let find l = List.find_opt (fun (r : E.partition_row) -> r.pt_label = l) rows in
  let gates =
    match find "direct calls", find "exactly-once", find "naive resend" with
    | Some direct, Some exact, Some naive ->
      let strict = exact.pt_goodput > naive.pt_goodput +. 1e-9 in
      let absorbed = exact.pt_net_dedup_hits > 0 in
      let survives = exact.pt_goodput >= direct.pt_goodput -. 0.1 in
      pf
        "gates: exactly-once strictly beats naive resend %b (%.1f%% vs %.1f%%), dedup \
         absorbed %d duplicates %b, goodput within 10pts of direct calls %b\n"
        strict
        (100.0 *. exact.pt_goodput)
        (100.0 *. naive.pt_goodput)
        exact.pt_net_dedup_hits absorbed survives;
      strict && absorbed && survives
    | _ -> false
  in
  if not gates then pf "PARTITION GATES FAILED\n";
  pf
    "(expected shape: the partitioned replica's links go down and heal on schedule in \
     every transport row; with exactly-once delivery the dedup window absorbs the \
     duplicated and re-sent dispatches so goodput stays near the direct-call baseline, \
     while naive resend re-executes every duplicate, burning replica capacity the \
     offered load needed — strictly lower goodput from the identical arrival trace)\n";
  J.List
    (List.map
       (fun (r : E.partition_row) ->
         J.Obj
           [
             "transport", J.Str r.pt_label;
             "goodput", J.Float r.pt_goodput;
             "offered", J.Int r.pt_offered;
             "completed", J.Int r.pt_completed;
             "shed", J.Int r.pt_shed;
             "expired", J.Int r.pt_expired;
             "p50_ms", J.Float r.pt_p50;
             "p99_ms", J.Float r.pt_p99;
             "net_sends", J.Int r.pt_net_sends;
             "net_resends", J.Int r.pt_net_resends;
             "net_dups", J.Int r.pt_net_dups;
             "net_partition_drops", J.Int r.pt_net_partition_drops;
             "net_dedup_hits", J.Int r.pt_net_dedup_hits;
             "net_fresh", J.Int r.pt_net_fresh;
             "net_timeouts", J.Int r.pt_net_timeouts;
             "net_link_downs", J.Int r.pt_link_downs;
             "net_heals", J.Int r.pt_heals;
           ])
       rows)

let experiments =
  [
    "table4", table4;
    "table5", table5;
    "table6", table6;
    "table7", table7;
    "table8", table8;
    "table9", table9;
    "fig5", fig5;
    "fig9", fig9;
    "serve", serve;
    "faults", faults;
    "cluster", cluster;
    "chaos", chaos;
    "tenants", tenants;
    "obs", obs;
    "overload", overload;
    "integrity", integrity;
    "scale", scale;
    "partition", partition;
    "extras", extras;
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Split off `--json FILE` from the experiment selection. *)
  let rec split_json acc = function
    | [] -> List.rev acc, None
    | "--json" :: path :: rest ->
      let names, _ = split_json acc rest in
      names, Some path
    | x :: rest -> split_json (x :: acc) rest
  in
  let names, json_path = split_json [] args in
  let selected =
    match names with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  let results =
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> name, f ()
        | None ->
          pf "unknown experiment %S; available: %s all\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      selected
  in
  match json_path with
  | None -> ()
  | Some path ->
    J.to_file path (J.Obj results);
    pf "\nwrote %s\n" path
