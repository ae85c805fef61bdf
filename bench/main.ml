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
    numbers. The deterministic acceptance gates of the overload,
    integrity, partition and scale experiments fail the run: it exits 1
    naming every gate that failed. *)

open Acrobat
module E = Experiments
module J = Obs.Json
module Stats = Serve.Stats

let pf = Printf.printf

let hr title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- Column tables ---

   An experiment's row is a list of cells, one per column, built by one
   function per experiment: each cell carries its column's header, printed
   width (negative left-aligns, like printf's [%-Ns]), its text, and its
   JSON key and value. The printed table (its header read off the first
   row) and the [--json] rows both render from those cells, so each column
   is written once. A cell with no text is JSON only; one with no key is
   printed only. *)

type cell = { head : string; width : int; text : string option; json : (string * J.t) option }

let cell ?key head width text value =
  { head; width; text = Some text; json = Option.map (fun k -> k, value) key }

let text head width s = { head; width; text = Some s; json = None }
let json key value = { head = ""; width = 0; text = None; json = Some (key, value) }
let hidden c = { c with text = None }
let sep = text "|" 1 "|"
let str ?key head width s = cell ?key head width s (J.Str s)
let int ?key head width n = cell ?key head width (string_of_int n) (J.Int n)
let bool ?key head width b = cell ?key head width (string_of_bool b) (J.Bool b)
let float ?key head width fmt x = cell ?key head width (Printf.sprintf fmt x) (J.Float x)

(* A fraction, printed as a percentage. *)
let pct ?key head width fmt x = cell ?key head width (Printf.sprintf fmt (100.0 *. x)) (J.Float x)

(* A serving counter: its [Stats] row names the key, and [read] takes the
   row's reader to the value (one summary's, or a sum over several). *)
let counter read head width (c : Stats.counter) = int ~key:c.name head width (read c.read)

let ms ?key head width x = float ?key head width "%.2f" x
let latency ?(width = 8) head x = float ~key:(head ^ "_ms") head width "%.2fms" x
let goodput g = pct ~key:"goodput" "goodput" 8 "%.1f%%" g
let completed width n = int ~key:"completed" "done" width n

(* The paper's number; [E.oom] where its run ran out of memory. *)
let paper head width x = text head width (if Float.is_nan x then "OOM" else Printf.sprintf "%.2f" x)

let speedup head width a b =
  text head width (if Float.is_nan a then "-" else Printf.sprintf "%.2f" (a /. b))

let config (id, size, batch) =
  [
    str ~key:"model" "model" (-10) id;
    str ~key:"size" "size" (-6) (Model.size_name size);
    int ~key:"batch" "batch" 5 batch;
  ]

let obj cells = J.Obj (List.filter_map (fun c -> c.json) cells)

(* [cells] printed in line, serialized as one object under [key]. *)
let nest key cells = List.map (fun c -> { c with json = None }) cells @ [ json key (obj cells) ]

let pad width s =
  let n = abs width - String.length s in
  if n <= 0 then s else if width < 0 then s ^ String.make n ' ' else String.make n ' ' ^ s

let print_line cells text_of =
  pf "%s\n"
    (String.concat " " (List.filter_map (fun c -> Option.map (pad c.width) (text_of c)) cells))

let print_header cells = print_line cells (fun c -> Option.map (fun _ -> c.head) c.text)
let print_row cells = print_line cells (fun c -> c.text)

let print_rows = function
  | [] -> ()
  | first :: _ as rows ->
    print_header first;
    List.iter print_row rows

(* Print [rows] and return them as a JSON list of objects. *)
let table rows =
  print_rows rows;
  J.List (List.map obj rows)

(* [named] rows printed one line per column, under a header naming them. *)
let transpose head width named =
  match named with
  | [] -> []
  | (_, first) :: _ ->
    let column i (name, cells) = { (List.nth cells i) with head = name } in
    List.mapi (fun i c -> text head width c.head :: List.map (column i) named) first

(* --- Acceptance gates --- *)

let failed_gates = ref []

(* Record the gate [name] as failed unless [ok]; return [ok]. *)
let gate name ok =
  if not ok then failed_gates := name :: !failed_gates;
  ok

(* --- The paper's tables and figures --- *)

let table4 () =
  hr "Table 4: DyNet vs ACROBAT inference latency (ms)";
  let rows = E.table4 () in
  let json =
    table
      (List.map
         (fun (at, (dynet, acrobat), (paper_dynet, paper_acrobat)) ->
           config at
           @ [
               sep;
               ms ~key:"dynet_ms" "dynet" 10 dynet;
               ms ~key:"acrobat_ms" "acrobat" 10 acrobat;
               speedup "speedup" 8 dynet acrobat;
               sep;
               paper "paper-dy" 10 paper_dynet;
               paper "paper-ab" 10 paper_acrobat;
               speedup "paper-sp" 8 paper_dynet paper_acrobat;
             ])
         rows)
  in
  let logs = List.map (fun (_, (dynet, acrobat), _) -> log (dynet /. acrobat)) rows in
  let geo = exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs)) in
  pf "geometric-mean speedup over DyNet: %.2fx (paper: 2.3x overall)\n" geo;
  json

let activities (dfg, sched, mem, kernel, calls, api) =
  [
    ms ~key:"dfg_ms" "DFG construction" 10 dfg;
    ms ~key:"sched_ms" "Scheduling" 10 sched;
    ms ~key:"mem_ms" "Mem. copy time" 10 mem;
    ms ~key:"kernel_ms" "GPU kernel time" 10 kernel;
    int ~key:"kernel_calls" "#Kernel calls" 10 calls;
    ms ~key:"api_ms" "CUDA API time" 10 api;
  ]

let table5 () =
  hr "Table 5: activity breakdown at batch size 64 (ms)";
  J.List
    (List.map
       (fun (label, (dynet, acrobat), (paper_dynet, paper_acrobat)) ->
         let ours = [ "dynet", activities dynet; "acrobat", activities acrobat ] in
         let theirs =
           [ "paper-dy", activities paper_dynet; "paper-ab", activities paper_acrobat ]
         in
         pf "\n-- %s --\n" label;
         print_rows (transpose "activity" (-18) (ours @ theirs));
         J.Obj (("config", J.Str label) :: List.map (fun (name, cells) -> name, obj cells) ours))
       (E.table5 ()))

let table6 () =
  hr "Table 6: Cortex vs ACROBAT inference latency (ms)";
  table
    (List.map
       (fun (at, (cortex, acrobat), (paper_cortex, paper_acrobat)) ->
         config at
         @ [
             sep;
             ms ~key:"cortex_ms" "cortex" 10 cortex;
             ms ~key:"acrobat_ms" "acrobat" 10 acrobat;
             sep;
             paper "paper-cx" 10 paper_cortex;
             paper "paper-ab" 10 paper_acrobat;
           ])
       (E.table6 ()))

let table7 () =
  hr "Table 7: Relay VM vs AOT compilation (ms)";
  table
    (List.map
       (fun (at, (vm, aot), (paper_vm, paper_aot)) ->
         config at
         @ [
             sep;
             ms ~key:"vm_ms" "vm" 10 vm;
             ms ~key:"aot_ms" "aot" 10 aot;
             speedup "speedup" 8 vm aot;
             sep;
             paper "paper-vm" 10 paper_vm;
             paper "paper-aot" 10 paper_aot;
           ])
       (E.table7 ()))

let table8 () =
  hr "Table 8: DyNet vs DyNet++ (improved heuristics) vs ACROBAT (ms)";
  table
    (List.map
       (fun (at, (dn, dnpp, ab), (pdn, pdnpp, pab)) ->
         config at
         @ [
             sep;
             ms ~key:"dynet_ms" "DN" 8 dn;
             ms ~key:"dynetpp_ms" "DN++" 8 dnpp;
             ms ~key:"acrobat_ms" "AB" 8 ab;
             sep;
             paper "p-DN" 8 pdn;
             paper "p-DN++" 8 pdnpp;
             paper "p-AB" 8 pab;
           ])
       (E.table8 ()))

let table9 () =
  hr "Table 9: PGO benefit during auto-scheduling (NestedRNN small, batch 8; ms)";
  table
    (List.map
       (fun (iters, (nopgo, pgo), (paper_nopgo, paper_pgo)) ->
         [
           int ~key:"iters" "iters" 8 iters;
           sep;
           ms ~key:"nopgo_ms" "no-PGO" 10 nopgo;
           ms ~key:"pgo_ms" "PGO" 10 pgo;
           sep;
           paper "paper-no" 10 paper_nopgo;
           paper "paper-PGO" 10 paper_pgo;
         ])
       (E.table9 ()))

let fig5 () =
  hr "Figure 5: benefit of each optimization (large, batch 64; ms)";
  let json =
    table
      (List.map
         (fun (id, steps) ->
           str ~key:"model" "model" (-10) id
           :: nest "steps" (List.map (fun (label, x) -> ms ~key:label label 14 x) steps))
         (E.fig5 ()))
  in
  pf "(expected shape: monotone improvement; gather fusion may hurt iterative low-parallelism models, cf. paper 7.3)\n";
  json

let fig9 () =
  hr "Figure 9: speedup over PyTorch";
  let json =
    table
      (List.map
         (fun (at, (pytorch, acrobat)) ->
           config at
           @ [
               sep;
               ms ~key:"pytorch_ms" "pytorch" 10 pytorch;
               ms ~key:"acrobat_ms" "acrobat" 10 acrobat;
               speedup "speedup" 8 pytorch acrobat;
             ])
         (E.fig9 ()))
  in
  pf "(paper: all speedups > 1; larger for small model sizes; BiRNN lowest, MV-RNN highest)\n";
  json

let extras () =
  hr "Extra ablation: scheduler comparison (batch 64)";
  let scheduler =
    table
      (List.map
         (fun (id, sched, (s : Driver.stats)) ->
           [
             str ~key:"model" "model" (-10) id;
             str ~key:"scheduler" "scheduler" (-14) sched;
             ms ~key:"latency_ms" "latency" 10 s.latency_ms;
             float ~key:"sched_ms" "sched-ms" 12 "%.3f"
               (Profiler.time_us s.profiler Profiler.Scheduling /. 1000.0);
             int ~key:"batches" "batches" 8 s.profiler.Profiler.batches_executed;
           ])
         (E.ablation_scheduler ()))
  in
  hr "Extra ablation: context sensitivity (BiRNN small, batch 64)";
  let context =
    table
      (List.map
         (fun (ctx, (s : Driver.stats)) ->
           [
             bool ~key:"context_sensitive" "ctx" (-8) ctx;
             ms ~key:"latency_ms" "latency" 10 s.latency_ms;
             int ~key:"gather_bytes" "gather-bytes" 14 s.profiler.Profiler.gather_bytes;
             int ~key:"gathers" "gathers" 10 s.profiler.Profiler.gather_kernels;
           ])
         (E.ablation_context ()))
  in
  J.Obj [ "scheduler", scheduler; "context", context ]

(* --- Serving: latency vs offered load (the online front-end) --- *)

let serve () =
  hr "Serving: latency vs offered load (cross-request dynamic batching)";
  let json =
    table
      (List.map
         (fun (id, policy, load, rate, (s : Stats.summary)) ->
           [
             str ~key:"model" "model" (-10) id;
             str ~key:"policy" "policy" (-9) policy;
             float ~key:"load" "load" 5 "%.1fx" load;
             float ~key:"rate_rps" "rate" 9 "%.0f/s" rate;
             sep;
             float ~key:"throughput_rps" "thruput" 10 "%.0f/s" s.s_throughput_rps;
             latency ~width:9 "p50" s.s_p50_ms;
             latency ~width:9 "p95" s.s_p95_ms;
             latency ~width:9 "p99" s.s_p99_ms;
             float ~key:"mean_batch" "batch" 7 "%.2f" s.s_mean_batch;
             pct ~key:"drop_rate" "drop" 6 "%.1f%%" (Stats.drop_rate s);
           ])
         (E.serve_curve ()))
  in
  pf
    "(expected shape: at >=1x load, adaptive sustains higher throughput and far lower p99 \
     than batch1 by amortizing launch+API overhead across requests)\n";
  json

(* --- Serving: availability under injected faults --- *)

let faults () =
  hr "Serving: availability under faults (TreeLSTM tiny, injected kernel faults)";
  let json =
    table
      (List.map
         (fun (policy, fault_rate, (s : Stats.summary)) ->
           let count = counter (fun read -> read s) in
           [
             str ~key:"policy" "policy" (-9) policy;
             pct ~key:"fault_rate" "rate" 6 "%.0f%%" fault_rate;
             sep;
             goodput (Stats.goodput s);
             float ~key:"throughput_rps" "thruput" 10 "%.0f/s" s.s_throughput_rps;
             latency "p50" s.s_p50_ms;
             latency "p99" s.s_p99_ms;
             sep;
             count "faults" 6 Stats.fault_batches;
             count "retries" 7 Stats.retries;
             count "bisect" 7 Stats.bisections;
             count "poisoned" 8 Stats.poisoned;
             count "breaker" 8 Stats.breaker_opens;
           ])
         (E.serve_faults ()))
  in
  pf
    "(expected shape: retry+bisection+breaker hold goodput near 100%% through 5%% fault \
     rates at a modest p99 cost; only sustained fault storms dent availability)\n";
  json

(* --- Serving: replicated cluster (failover + hedging) --- *)

let cluster () =
  hr "Serving: replicated cluster — failover availability and hedged tails";
  let json =
    table
      (List.map
         (fun (label, replicas, hedge, (s : Stats.summary)) ->
           let count = counter (fun read -> read s) in
           [
             str ~key:"scenario" "scenario" (-22) label;
             int ~key:"replicas" "reps" 4 replicas;
             cell ~key:"hedge_percentile" "hedge" 6
               (Option.fold ~none:"off" ~some:(Printf.sprintf "p%.0f") hedge)
               (Option.fold ~none:J.Null ~some:(fun p -> J.Float p) hedge);
             sep;
             goodput (Stats.goodput s);
             completed 5 s.s_completed;
             latency "p50" s.s_p50_ms;
             latency "p99" s.s_p99_ms;
             sep;
             count "fails" 5 Stats.failovers;
             count "requ" 5 Stats.requeued;
             count "hedges" 6 Stats.hedges;
             count "wins" 5 Stats.hedge_wins;
           ])
         (E.serve_cluster_bench ()))
  in
  pf
    "(expected shape: the faulty replica collapses the single server's goodput; with \
     replicas to fail over to it recovers >= 99%%; hedging cuts the straggler p99)\n";
  json

(* --- Chaos: violations per kiloscenario over fixed campaigns --- *)

let chaos () =
  hr "Chaos: invariant violations over randomized fault campaigns";
  let campaigns = E.chaos_campaigns () in
  let rows =
    List.map
      (fun (label, (ca : Chaos.campaign), (report : Chaos.report)) ->
        [
          text "campaign" (-10) label;
          int ~key:"seed" "seed" 6 ca.ca_seed;
          float ~key:"fault_prob" "fault-prob" 12 "%.2f" ca.ca_fault_prob;
          int ~key:"runs" "runs" 6 report.rp_scenarios;
          sep;
          int ~key:"violating" "violating" 10 (List.length report.rp_outcomes);
          float ~key:"violations_per_kiloscenario" "per-kilosc" 12 "%.1f"
            (Chaos.violations_per_kiloscenario report);
        ])
      campaigns
  in
  print_rows rows;
  pf
    "(expected shape: zero violations in both — the invariant suite holds over the \
     whole scenario grammar; any nonzero count is a reproducible bug, see acrobatc \
     chaos)\n";
  J.Obj (List.map2 (fun (label, _, _) cells -> label, obj cells) campaigns rows)

(* --- Multi-tenant serving: autoscaler vs fixed fleet ---

   Its per-tenant lines and scale trajectory print under each config's
   row, so this printer stays bespoke; the JSON is the dispatcher's own
   report. *)

let tenants () =
  hr "Multi-tenant serving: fixed-at-min vs autoscaled fleet under a flash crowd";
  let rows = E.tenants_bench () in
  let module D = Tenancy.Dispatcher in
  List.iteri
    (fun i (label, (r : D.report)) ->
      let s = Stats.summarize r.tn_stats in
      let cells =
        [
          text "config" (-10) label;
          sep;
          float "goodput" 8 "%.3f" (Stats.goodput s);
          float "slo-att" 8 "%.3f" (Stats.slo_attainment s);
          int "expired" 8 s.s_expired;
          int "shed" 8 s.s_shed;
          int "qshed" 6 s.s_quota_shed;
          sep;
          int "peak" 5 r.tn_peak_replicas;
          int "final" 5 r.tn_final_replicas;
          int "swaps" 6 r.tn_swaps;
          float "util%" 6 "%.1f" (100.0 *. D.utilization r);
        ]
      in
      if i = 0 then print_header cells;
      print_row cells;
      List.iter
        (fun (tv : D.tenant_view) ->
          let ts = Stats.summarize tv.tv_stats in
          pf "  %-8s :: %-8s goodput %5.3f slo %5.3f offered %4d done %4d peak-infl %3d\n"
            tv.tv_tenant.Tenancy.Tenant.tn_name tv.tv_tenant.Tenancy.Tenant.tn_model
            (Stats.goodput ts) (Stats.slo_attainment ts) ts.s_offered ts.s_completed
            tv.tv_peak_inflight)
        r.tn_tenants;
      match r.tn_scale_events with
      | [] -> ()
      | evs ->
        pf "  scale trajectory:";
        List.iter (fun (ts, ev, n) -> pf " %.0fms:%s->%d" (ts /. 1000.0) ev n) evs;
        pf "\n")
    rows;
  pf
    "(expected shape: the fixed fleet is under water — goodput well below 0.8 — while \
     the autoscaler rides the flash crowd at >= 0.95 with the same arrivals)\n";
  J.Obj (List.map (fun (label, r) -> label, D.report_json r) rows)

(* --- Observability: the serving metrics timeline ---

   A dump of the library's own metrics export, whatever its keys: no
   column table to declare. *)

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
  let rows = E.overload_bench () in
  let json =
    table
      (List.map
         (fun (config, load, rate, (s : Stats.summary), trajectory) ->
           let count = counter (fun read -> read s) in
           [
             str ~key:"config" "config" (-10) config;
             float ~key:"load" "load" 5 "%.1fx" load;
             float ~key:"rate_rps" "rate" 8 "%.0f/s" rate;
             sep;
             goodput (Stats.goodput s);
             completed 5 s.s_completed;
             count "exp" 5 Stats.expired;
             count "shed" 5 Stats.shed;
             count "lshed" 6 Stats.limit_shed;
             count "rshed" 6 Stats.retry_shed;
             hidden (count "" 0 Stats.retried_requests);
             count "retry" 5 Stats.retries;
             sep;
             count "bisect" 6 Stats.bisections;
             hidden (count "" 0 Stats.poisoned);
             count "degr" 6 Stats.degraded_batches;
             count "brown" 5 Stats.brownouts;
             hidden (count "" 0 Stats.brownout_restores);
             sep;
             latency "p50" s.s_p50_ms;
             latency "p99" s.s_p99_ms;
             json "limit_trajectory"
               (J.List (List.map (fun (ts, v) -> J.List [ J.Float ts; J.Float v ]) trajectory));
           ])
         rows)
  in
  (* The acceptance gates of DESIGN.md §13: past saturation the armed
     config is never worse than the off config, strictly better at two
     loads or more, and re-executes at most its 20% retry budget. *)
  let goodput_at want =
    List.filter_map
      (fun (config, load, _, s, _) ->
        if config = want && load > 1.0 then Some (load, Stats.goodput s) else None)
      rows
  in
  let above_sat =
    List.filter_map
      (fun (load, off) ->
        Option.map (fun on -> off, on) (List.assoc_opt load (goodput_at "resilience")))
      (goodput_at "off")
  in
  let wins = List.length (List.filter (fun (off, on) -> on > off +. 1e-9) above_sat) in
  let never_worse =
    gate "overload: never worse above saturation"
      (List.for_all (fun (off, on) -> on >= off -. 1e-9) above_sat)
  in
  ignore (gate "overload: at least 2 strict wins above saturation" (wins >= 2));
  let amplification_ok =
    gate "overload: retry amplification within budget"
      (List.for_all
         (fun (config, _, _, (s : Stats.summary), _) ->
           config <> "resilience"
           || float_of_int s.s_retried_requests <= (0.2 *. float_of_int s.s_offered) +. 1e-9)
         rows)
  in
  pf "gates: above-saturation never-worse %b, strict wins %d/%d, retry-amplification <= budget %b\n"
    never_worse wins (List.length above_sat) amplification_ok;
  pf
    "(expected shape: past 1x load the off config drowns — uncapped retries and bisection \
     re-offer work the device cannot absorb and queue delay expires the rest — while the \
     armed config sheds the excess at the door, caps re-execution at 20%% of offered \
     load, and buys capacity with brownout)\n";
  json

(* --- Integrity: delivered corruption vs audit sampling rate --- *)

let integrity () =
  hr "Silent-corruption defense: delivered corruption and goodput vs audit rate";
  let rows = E.integrity_bench () in
  let sum f runs = List.fold_left (fun acc s -> acc + f s) 0 runs in
  let mean f runs =
    List.fold_left (fun acc s -> acc +. f s) 0.0 runs /. float_of_int (List.length runs)
  in
  let json =
    table
      (List.map
         (fun (audit, runs) ->
           let count = counter (fun read -> sum read runs) in
           [
             float ~key:"audit" "audit" 5 "%.2f" audit;
             sep;
             goodput (mean Stats.goodput runs);
             completed 5 (sum (fun (s : Stats.summary) -> s.s_completed) runs);
             sep;
             count "corrupt" 7 Stats.corrupted_batches;
             count "delivered" 9 Stats.corrupted_delivered;
             sep;
             count "audits" 6 Stats.audits;
             count "mismatch" 8 Stats.audit_mismatches;
             sep;
             count "quar" 4 Stats.quarantines;
             count "restore" 7 Stats.quarantine_restores;
             sep;
             latency "p50" (mean (fun (s : Stats.summary) -> s.s_p50_ms) runs);
             latency "p99" (mean (fun (s : Stats.summary) -> s.s_p99_ms) runs);
           ])
         rows)
  in
  (* The acceptance gates of DESIGN.md §14: sampling at rate p bounds
     expected delivered corruption at (1 - p) of injected, so the curve
     must fall monotonically and hit exactly zero at 1.0 (every delivery
     verified); the audit re-executions may cost only bounded goodput over
     the identical unaudited run. *)
  let delivered =
    List.map (fun (audit, runs) -> audit, sum Stats.corrupted_delivered.read runs) rows
  in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> b <= a && monotone rest
    | _ -> true
  in
  let goodput_at a = Option.map (mean Stats.goodput) (List.assoc_opt a rows) in
  let monotone = gate "integrity: delivered corruption monotone" (monotone delivered) in
  let zero_at_full =
    gate "integrity: zero delivered corruption at audit 1.0"
      (List.for_all (fun (audit, n) -> audit < 1.0 || n = 0) delivered)
  in
  let overhead_ok =
    gate "integrity: goodput overhead <= 15 points"
      (match goodput_at 0.0, goodput_at 1.0 with
      | Some off, Some full -> full >= off -. 0.15
      | _ -> true)
  in
  pf
    "gates: delivered-corruption monotone %b, zero at audit 1.0 %b, goodput overhead <= \
     15pts %b\n"
    monotone zero_at_full overhead_ok;
  pf
    "(expected shape: without auditing the corrupting replica's wrong answers are \
     delivered silently; each sampled delivery is re-executed unbatched on a clean \
     reference device and compared by fingerprint, so raising the rate intercepts more \
     of them — at 1.0, all of them — while the corruption scoreboard quarantines the \
     dirty replica and probes it back in only after clean audits)\n";
  json

(* --- Simulator-core scale: events/sec, production core vs its reference build --- *)

let scale () =
  hr "Simulator-core scale: events/sec at 10^3..10^6 requests (heap vs reference)";
  let rows = E.scale_bench () in
  let events_per_s events wall = float_of_int events /. wall in
  (* Wall time and events/sec are host measurements and deliberately stay
     out of the JSON: BENCH_scale.json must be byte-identical across runs
     (the Makefile cmp-gates it). The summary columns are the library's
     own [Stats.summary_to_json] fields, under their own keys. *)
  let json =
    table
      (List.map
         (fun (requests, backend, events, summary, wall, equivalent) ->
           let field head width key =
             let v = Option.get (J.member key summary) in
             cell ~key head width (J.to_string v) v
           in
           [
             int ~key:"requests" "requests" 9 requests;
             str ~key:"backend" "backend" (-10) backend;
             sep;
             int ~key:"events" "events" 9 events;
             field "done" 8 "completed";
             field "shed" 7 "shed";
             field "exp" 7 "expired";
             field "batch" 7 "batches";
             hidden (field "" 0 "p50_ms");
             hidden (field "" 0 "p99_ms");
             hidden (field "" 0 "mean_ms");
             sep;
             text "wall" 8 (Printf.sprintf "%.2fs" wall);
             text "events/s" 9
               (Printf.sprintf "%.0f" (if wall > 0.0 then events_per_s events wall else 0.0));
             sep;
             bool ~key:"equivalent" "equiv" 5 equivalent;
           ])
         rows)
  in
  (* Acceptance gates (DESIGN.md §15, §25): every size's summary must be
     byte-identical across the production core and its reference build
     (the heaps change nothing but speed). At the largest size the heap
     core should deliver >= 10x the reference's simulator events/sec, but
     that is host wall-clock, so it is reported, not gated. *)
  let all_equivalent =
    gate "scale: backends byte-identical at every size"
      (List.for_all (fun (_, _, _, _, _, equivalent) -> equivalent) rows)
  in
  let largest want =
    List.fold_left
      (fun acc ((requests, backend, _, _, _, _) as r) ->
        match acc with
        | _ when backend <> want -> acc
        | Some (best, _, _, _, _, _) when best >= requests -> acc
        | _ -> Some r)
      None rows
  in
  let eps = 1e-9 in
  let speedup =
    match largest "heap", largest "reference" with
    | Some (_, _, h_events, _, h_wall, _), Some (_, _, r_events, _, r_wall, _) ->
      events_per_s h_events (h_wall +. eps) /. events_per_s r_events (r_wall +. eps)
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
  json

(* --- Net partition: goodput through partition/heal, exactly-once vs
   naive resend --- *)

let partition () =
  hr "Net partition: goodput through a partition/heal cycle (3 replicas, lossy links)";
  let capacity_rps, rate_per_s, rows = E.partition_bench () in
  pf "offered %.0f req/s: %.2fx the fleet's capacity of %.0f req/s (3 replicas, full batches)\n"
    rate_per_s (rate_per_s /. capacity_rps) capacity_rps;
  let json =
    table
      (List.map
         (fun (label, (s : Stats.summary)) ->
           let count = counter (fun read -> read s) in
           [
             str ~key:"transport" "transport" (-13) label;
             sep;
             goodput (Stats.goodput s);
             json "offered" (J.Int s.s_offered);
             completed 6 s.s_completed;
             count "shed" 5 Stats.shed;
             count "exp" 5 Stats.expired;
             sep;
             latency "p50" s.s_p50_ms;
             latency "p99" s.s_p99_ms;
             sep;
             count "sends" 6 Stats.net_sends;
             count "resend" 6 Stats.net_resends;
             count "dups" 5 Stats.net_dups;
             count "p-drop" 6 Stats.net_partition_drops;
             count "dedup" 6 Stats.net_dedup_hits;
             count "fresh" 6 Stats.net_fresh;
             count "t/o" 5 Stats.net_timeouts;
             count "down" 4 Stats.net_link_downs;
             count "heals" 5 Stats.net_heals;
           ])
         rows)
  in
  (* The acceptance gates of DESIGN.md §16: the idempotency window must
     absorb every duplicate (dedup hits > 0 with no goodput collapse), and
     switching it off must cost strictly measurable goodput — ghost
     re-executions displace real work. *)
  let transport label = List.assoc_opt label rows in
  (match transport "direct calls", transport "exactly-once", transport "naive resend" with
  | Some direct, Some exact, Some naive ->
    let strict =
      gate "partition: exactly-once strictly beats naive resend"
        (Stats.goodput exact > Stats.goodput naive +. 1e-9)
    in
    let absorbed = gate "partition: dedup absorbed duplicates" (exact.s_net_dedup_hits > 0) in
    let survives =
      gate "partition: goodput within 10 points of direct calls"
        (Stats.goodput exact >= Stats.goodput direct -. 0.1)
    in
    pf
      "gates: exactly-once strictly beats naive resend %b (%.1f%% vs %.1f%%), dedup \
       absorbed %d duplicates %b, goodput within 10pts of direct calls %b\n"
      strict
      (100.0 *. Stats.goodput exact)
      (100.0 *. Stats.goodput naive)
      exact.s_net_dedup_hits absorbed survives
  | _ -> ignore (gate "partition: a transport row is missing" false));
  pf
    "(expected shape: the partitioned replica's links go down and heal on schedule in \
     every transport row; with exactly-once delivery the dedup window absorbs the \
     duplicated and re-sent dispatches so goodput stays near the direct-call baseline, \
     while naive resend re-executes every duplicate, burning replica capacity the \
     offered load needed — strictly lower goodput from the identical arrival trace)\n";
  json

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
  (match json_path with
  | None -> ()
  | Some path ->
    J.to_file path (J.Obj results);
    pf "\nwrote %s\n" path);
  match List.rev !failed_gates with
  | [] -> ()
  | failed ->
    List.iter (Printf.eprintf "gate failed: %s\n") failed;
    exit 1
